// Small helpers shared across the flow: string formatting, and the one
// bound on a tensor's element count that every entry point for shapes
// checks.
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

/// True when every extent of `shape` is positive and their product is
/// at most kMaxTensorElements. Forms no product that could overflow.
bool isBoundedShape(const std::vector<std::int64_t>& shape);

/// The diagnostic for a shape that fails isBoundedShape, e.g.
/// "shape [a b c] exceeds the bound of 268,435,456 elements per tensor".
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
