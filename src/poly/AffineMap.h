// Multi-result affine maps between integer index spaces.
#pragma once

#include "poly/AffineExpr.h"

#include <optional>
#include <vector>

namespace cfd::poly {

class Box;

/// A map f : Z^numDims -> Z^numResults where every result is affine.
///
/// Used for tensor access functions (statement instance -> array element),
/// memory layouts (tensor index -> flat array offset) and partitioning maps
/// (array offset -> bank/offset), mirroring the roles isl maps play in the
/// paper's flow.
class AffineMap {
public:
  AffineMap() = default;
  AffineMap(int numDims, std::vector<AffineExpr> results);

  /// The identity map on `numDims` dimensions.
  static AffineMap identity(int numDims);

  /// A map selecting dimensions `dims` of the input space, in order.
  static AffineMap projection(int numDims, std::span<const int> dims);

  /// The canonical row-major layout of a tensor with extents `shape`:
  /// [i0, .., ik] -> i0*stride0 + i1*stride1 + ... (C99 innermost-last).
  static AffineMap rowMajorLayout(std::span<const std::int64_t> shape);

  /// Column-major (Fortran, innermost-first) layout of `shape`.
  static AffineMap columnMajorLayout(std::span<const std::int64_t> shape);

  int numDims() const { return numDims_; }
  int numResults() const { return static_cast<int>(results_.size()); }
  const AffineExpr& result(int i) const;
  const std::vector<AffineExpr>& results() const { return results_; }

  bool isIdentity() const;
  bool usesDim(int dim) const;

  std::vector<std::int64_t>
  evaluate(std::span<const std::int64_t> point) const;

  /// Composition (this ∘ other): applies `other` first.
  AffineMap compose(const AffineMap& other) const;

  /// Concatenates results of two maps over the same input space.
  AffineMap concat(const AffineMap& other) const;

  /// Exhaustively checks injectivity on the (small, dense) domain box.
  bool isInjectiveOn(const Box& domain) const;

  std::string str() const;

private:
  int numDims_ = 0;
  std::vector<AffineExpr> results_;
};

} // namespace cfd::poly
