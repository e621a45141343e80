// Small helpers shared across the flow: string formatting, and the two
// bounds on a shape (element count and rank) that every entry point for
// shapes checks.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace cfd {

/// Joins the elements of `items` with `sep`, using operator<< to print.
template <typename Range>
std::string join(const Range& items, const std::string& sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& item : items) {
    if (!first)
      os << sep;
    os << item;
    first = false;
  }
  return os.str();
}

/// Formats a shape such as [11 11 11].
std::string formatShape(const std::vector<std::int64_t>& shape);

/// The bound on a tensor's element count: 2^28. dsl::Sema, lowering,
/// ir::Program::verify() and the store codec check every shape against
/// it before any product of its extents is formed, so every size the
/// flow derives from a shape fits in int64:
///   element count                                   <= 2^28
///   byte size (8-byte elements)                     <= 2^31
///   next-power-of-two window of a byte size         <= 2^32
///   layout stride (a product of some extents)       <= 2^28
///   two-factor contraction domain (|lhs| x |rhs|)   <= 2^56
/// The last leaves a factor of 2^7 below 2^63.
inline constexpr std::int64_t kMaxTensorElements = std::int64_t{1} << 28;

/// The bound on a tensor's rank and on the loop depth of a statement:
/// 8. poly::AffineExpr keeps this many coefficients inline, so every
/// index space and loop nest the flow builds must fit in it. It is an
/// input limit, checked where ranks enter the flow:
///   dsl::Sema: every declared shape and every shape a product or
///     contraction forms (through isBoundedShape; the product under a
///     contraction is never formed, so Helmholtz's rank-9
///     `S # S # S # u` compiles);
///   lowering: the domain of every binary contraction it emits;
///   ir::Program::verify(): every shape and every contraction domain;
///   the store codec: every shape, affine map and loop nest it decodes.
/// CFDlang's kernels need rank 3 and loop depth 4.
inline constexpr int kMaxDims = 8;

/// True when `shape` has at most kMaxDims extents, each positive, whose
/// product is at most kMaxTensorElements. Forms no product that could
/// overflow.
bool isBoundedShape(const std::vector<std::int64_t>& shape);

/// The diagnostic for a shape that fails isBoundedShape, e.g.
/// "shape [a b c] exceeds the bound of 268,435,456 elements per tensor"
/// or "shape [2 2 2 2 2 2 2 2 2] exceeds the bound of 8 dimensions per
/// tensor".
std::string shapeBoundMessage(const std::vector<std::int64_t>& shape);

/// Formats `value` with `digits` digits after the decimal point.
std::string formatFixed(double value, int digits);

/// Formats a quantity with thousands separators, e.g. 42679 -> "42,679".
std::string formatThousands(std::int64_t value);

/// Left-pads `s` with spaces to at least `width` characters.
std::string padLeft(const std::string& s, std::size_t width);

/// Right-pads `s` with spaces to at least `width` characters.
std::string padRight(const std::string& s, std::size_t width);

} // namespace cfd
