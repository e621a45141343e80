// Affine expressions over a fixed number of integer dimensions.
//
// This is the core abstraction of the polyhedral-lite engine that replaces
// libISL in this reproduction (see DESIGN.md §2). CFDlang kernels only give
// rise to dense rectangular iteration domains with affine index functions,
// so a plain linear-combination representation is complete for this
// program class.
//
// An expression keeps its coefficients inline, in an array of kMaxDims
// (support/Format.h) entries plus a count, so building, combining,
// substituting and copying expressions never touch the heap. kMaxDims is
// a checked input limit (every entry point for ranks and loop nests
// rejects more); the constructors here assert it.
#pragma once

#include "support/Format.h"

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace cfd {
class TextBuilder;
}

namespace cfd::poly {

/// Dimension names d0 .. d7, as str() prints them.
inline constexpr std::array<std::string_view, kMaxDims> kDimNames = {
    "d0", "d1", "d2", "d3", "d4", "d5", "d6", "d7"};

/// An affine expression `sum_i coeff[i] * d_i + constant` over `numDims`
/// integer dimensions d_0 .. d_{numDims-1}, numDims <= kMaxDims.
class AffineExpr {
public:
  AffineExpr() = default;

  /// Expression equal to dimension `dim` of a `numDims`-dimensional space.
  static AffineExpr dim(int numDims, int dim);

  /// Constant expression in a `numDims`-dimensional space.
  static AffineExpr constant(int numDims, std::int64_t value);

  /// Builds an expression from explicit coefficients.
  static AffineExpr fromCoefficients(std::span<const std::int64_t> coefficients,
                                     std::int64_t constant);

  int numDims() const { return numDims_; }
  std::int64_t coefficient(int dim) const;
  /// The coefficients of the live dimensions.
  std::span<const std::int64_t> coefficients() const {
    return {coefficients_.data(), static_cast<std::size_t>(numDims_)};
  }
  std::int64_t constantTerm() const { return constant_; }

  bool isConstant() const;
  /// True if the expression is exactly `d_dim` (coefficient 1, all else 0).
  bool isDim(int dim) const;
  /// True if `dim` appears with a non-zero coefficient.
  bool usesDim(int dim) const;

  std::int64_t evaluate(std::span<const std::int64_t> point) const;

  AffineExpr operator+(const AffineExpr& other) const;
  AffineExpr operator-(const AffineExpr& other) const;
  AffineExpr operator*(std::int64_t factor) const;
  AffineExpr operator+(std::int64_t value) const;

  /// Equal spaces, constants and live coefficients.
  friend bool operator==(const AffineExpr& a, const AffineExpr& b);

  /// Substitutes each dimension d_i with `replacements[i]` (an expression
  /// over the `targetDims`-dimensional space). All replacements must share
  /// that space. `targetDims` is required because a constant expression
  /// with no replacements could not otherwise determine the result space.
  AffineExpr substitute(std::span<const AffineExpr> replacements,
                        int targetDims) const;

  /// Appends the expression to `out`, naming dimension i `dimNames[i]`:
  /// terms in dimension order, unit coefficients dropped, a zero
  /// constant omitted unless it is the whole expression ("121*i0 - i1 +
  /// 7"). The one formatter behind str() and the C emitter.
  void print(TextBuilder& out,
             std::span<const std::string_view> dimNames) const;

  /// The expression over dimension names d0, d1, ...
  std::string str() const;

private:
  std::array<std::int64_t, kMaxDims> coefficients_{};
  std::int64_t constant_ = 0;
  int numDims_ = 0;
};

} // namespace cfd::poly
