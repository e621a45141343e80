#include "poly/AffineMap.h"

#include "poly/Box.h"
#include "support/Error.h"
#include "support/TextBuilder.h"

#include <set>

namespace cfd::poly {

AffineMap::AffineMap(int numDims, std::vector<AffineExpr> results)
    : numDims_(numDims), results_(std::move(results)) {
  CFD_ASSERT(numDims_ >= 0 && numDims_ <= kMaxDims,
             "affine space of " + std::to_string(numDims_) +
                 " dimensions exceeds kMaxDims");
  for (const auto& expr : results_)
    CFD_ASSERT(expr.numDims() == numDims_, "result space mismatch");
}

AffineMap AffineMap::identity(int numDims) {
  std::vector<AffineExpr> results;
  results.reserve(static_cast<std::size_t>(numDims));
  for (int i = 0; i < numDims; ++i)
    results.push_back(AffineExpr::dim(numDims, i));
  return AffineMap(numDims, std::move(results));
}

AffineMap AffineMap::projection(int numDims, std::span<const int> dims) {
  std::vector<AffineExpr> results;
  results.reserve(dims.size());
  for (int dim : dims)
    results.push_back(AffineExpr::dim(numDims, dim));
  return AffineMap(numDims, std::move(results));
}

namespace {

/// The one-result dense layout of `shape`: innermost-last (row-major)
/// or innermost-first (column-major) strides.
AffineMap denseLayout(std::span<const std::int64_t> shape, bool rowMajor) {
  CFD_ASSERT(shape.size() <= static_cast<std::size_t>(kMaxDims),
             "layout rank exceeds kMaxDims");
  const int rank = static_cast<int>(shape.size());
  std::array<std::int64_t, kMaxDims> coefficients{};
  std::int64_t stride = 1;
  for (int step = 0; step < rank; ++step) {
    const auto i = static_cast<std::size_t>(rowMajor ? rank - 1 - step : step);
    coefficients[i] = stride;
    stride *= shape[i];
  }
  return AffineMap(rank, {AffineExpr::fromCoefficients(
                             {coefficients.data(), shape.size()}, 0)});
}

} // namespace

AffineMap AffineMap::rowMajorLayout(std::span<const std::int64_t> shape) {
  return denseLayout(shape, /*rowMajor=*/true);
}

AffineMap AffineMap::columnMajorLayout(std::span<const std::int64_t> shape) {
  return denseLayout(shape, /*rowMajor=*/false);
}

const AffineExpr& AffineMap::result(int i) const {
  CFD_ASSERT(i >= 0 && i < numResults(), "result index out of range");
  return results_[static_cast<std::size_t>(i)];
}

bool AffineMap::isIdentity() const {
  if (numResults() != numDims_)
    return false;
  for (int i = 0; i < numResults(); ++i)
    if (!result(i).isDim(i))
      return false;
  return true;
}

bool AffineMap::usesDim(int dim) const {
  for (const auto& expr : results_)
    if (expr.usesDim(dim))
      return true;
  return false;
}

std::vector<std::int64_t>
AffineMap::evaluate(std::span<const std::int64_t> point) const {
  std::vector<std::int64_t> out;
  out.reserve(results_.size());
  for (const auto& expr : results_)
    out.push_back(expr.evaluate(point));
  return out;
}

AffineMap AffineMap::compose(const AffineMap& other) const {
  CFD_ASSERT(numDims_ == other.numResults(),
             "composition arity mismatch (this ∘ other)");
  std::vector<AffineExpr> results;
  results.reserve(results_.size());
  for (const auto& expr : results_)
    results.push_back(expr.substitute(other.results(), other.numDims()));
  return AffineMap(other.numDims(), std::move(results));
}

AffineMap AffineMap::concat(const AffineMap& other) const {
  CFD_ASSERT(numDims_ == other.numDims(), "concat space mismatch");
  std::vector<AffineExpr> results = results_;
  results.insert(results.end(), other.results().begin(),
                 other.results().end());
  return AffineMap(numDims_, std::move(results));
}

bool AffineMap::isInjectiveOn(const Box& domain) const {
  CFD_ASSERT(domain.rank() == numDims_, "domain rank mismatch");
  std::set<std::vector<std::int64_t>> seen;
  bool injective = true;
  domain.forEachPoint([&](std::span<const std::int64_t> point) {
    if (!injective)
      return;
    if (!seen.insert(evaluate(point)).second)
      injective = false;
  });
  return injective;
}

std::string AffineMap::str() const {
  TextBuilder out;
  out << '(';
  for (int i = 0; i < numDims_; ++i) {
    if (i != 0)
      out << ", ";
    out << kDimNames[static_cast<std::size_t>(i)];
  }
  out << ") -> (";
  for (int i = 0; i < numResults(); ++i) {
    if (i != 0)
      out << ", ";
    result(i).print(out, kDimNames);
  }
  out << ')';
  return out.take();
}

} // namespace cfd::poly
