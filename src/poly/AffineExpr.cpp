#include "poly/AffineExpr.h"

#include "support/Error.h"
#include "support/TextBuilder.h"

namespace cfd::poly {

namespace {

void checkSpace(int numDims) {
  CFD_ASSERT(numDims >= 0 && numDims <= kMaxDims,
             "affine space of " + std::to_string(numDims) +
                 " dimensions exceeds kMaxDims");
}

} // namespace

AffineExpr AffineExpr::dim(int numDims, int dim) {
  checkSpace(numDims);
  CFD_ASSERT(dim >= 0 && dim < numDims, "dimension index out of range");
  AffineExpr expr;
  expr.numDims_ = numDims;
  expr.coefficients_[static_cast<std::size_t>(dim)] = 1;
  return expr;
}

AffineExpr AffineExpr::constant(int numDims, std::int64_t value) {
  checkSpace(numDims);
  AffineExpr expr;
  expr.numDims_ = numDims;
  expr.constant_ = value;
  return expr;
}

AffineExpr
AffineExpr::fromCoefficients(std::span<const std::int64_t> coefficients,
                             std::int64_t constant) {
  CFD_ASSERT(coefficients.size() <= static_cast<std::size_t>(kMaxDims),
             "affine space of " + std::to_string(coefficients.size()) +
                 " dimensions exceeds kMaxDims");
  AffineExpr expr;
  expr.numDims_ = static_cast<int>(coefficients.size());
  for (std::size_t i = 0; i < coefficients.size(); ++i)
    expr.coefficients_[i] = coefficients[i];
  expr.constant_ = constant;
  return expr;
}

std::int64_t AffineExpr::coefficient(int dim) const {
  CFD_ASSERT(dim >= 0 && dim < numDims(), "dimension index out of range");
  return coefficients_[static_cast<std::size_t>(dim)];
}

bool AffineExpr::isConstant() const {
  for (std::int64_t c : coefficients())
    if (c != 0)
      return false;
  return true;
}

bool AffineExpr::isDim(int dim) const {
  if (constant_ != 0)
    return false;
  for (int i = 0; i < numDims(); ++i)
    if (coefficients_[static_cast<std::size_t>(i)] != (i == dim ? 1 : 0))
      return false;
  return true;
}

bool AffineExpr::usesDim(int dim) const { return coefficient(dim) != 0; }

std::int64_t AffineExpr::evaluate(std::span<const std::int64_t> point) const {
  CFD_ASSERT(static_cast<int>(point.size()) == numDims(),
             "point rank mismatch");
  std::int64_t value = constant_;
  for (std::size_t i = 0; i < point.size(); ++i)
    value += coefficients_[i] * point[i];
  return value;
}

AffineExpr AffineExpr::operator+(const AffineExpr& other) const {
  CFD_ASSERT(numDims() == other.numDims(), "space mismatch in addition");
  AffineExpr result = *this;
  for (std::size_t i = 0; i < static_cast<std::size_t>(numDims_); ++i)
    result.coefficients_[i] += other.coefficients_[i];
  result.constant_ += other.constant_;
  return result;
}

AffineExpr AffineExpr::operator-(const AffineExpr& other) const {
  return *this + other * -1;
}

AffineExpr AffineExpr::operator*(std::int64_t factor) const {
  AffineExpr result = *this;
  for (std::size_t i = 0; i < static_cast<std::size_t>(numDims_); ++i)
    result.coefficients_[i] *= factor;
  result.constant_ *= factor;
  return result;
}

AffineExpr AffineExpr::operator+(std::int64_t value) const {
  AffineExpr result = *this;
  result.constant_ += value;
  return result;
}

bool operator==(const AffineExpr& a, const AffineExpr& b) {
  if (a.numDims_ != b.numDims_ || a.constant_ != b.constant_)
    return false;
  for (std::size_t i = 0; i < static_cast<std::size_t>(a.numDims_); ++i)
    if (a.coefficients_[i] != b.coefficients_[i])
      return false;
  return true;
}

AffineExpr AffineExpr::substitute(std::span<const AffineExpr> replacements,
                                  int targetDims) const {
  CFD_ASSERT(static_cast<int>(replacements.size()) == numDims(),
             "substitution arity mismatch");
  AffineExpr result = AffineExpr::constant(targetDims, constant_);
  for (std::size_t i = 0; i < replacements.size(); ++i) {
    const AffineExpr& replacement = replacements[i];
    CFD_ASSERT(replacement.numDims() == targetDims,
               "replacement space mismatch");
    const std::int64_t c = coefficients_[i];
    if (c == 0)
      continue;
    for (std::size_t d = 0; d < static_cast<std::size_t>(targetDims); ++d)
      result.coefficients_[d] += replacement.coefficients_[d] * c;
    result.constant_ += replacement.constant_ * c;
  }
  return result;
}

void AffineExpr::print(TextBuilder& out,
                       std::span<const std::string_view> dimNames) const {
  CFD_ASSERT(static_cast<int>(dimNames.size()) >= numDims(),
             "name count mismatch");
  bool first = true;
  for (std::size_t i = 0; i < static_cast<std::size_t>(numDims_); ++i) {
    const std::int64_t c = coefficients_[i];
    if (c == 0)
      continue;
    if (!first)
      out << (c > 0 ? " + " : " - ");
    else if (c < 0)
      out << '-';
    const std::int64_t mag = c > 0 ? c : -c;
    if (mag != 1)
      out << mag << '*';
    out << dimNames[i];
    first = false;
  }
  if (first)
    out << constant_;
  else if (constant_ != 0)
    out << (constant_ > 0 ? " + " : " - ")
        << (constant_ > 0 ? constant_ : -constant_);
}

std::string AffineExpr::str() const {
  TextBuilder out;
  print(out, kDimNames);
  return out.take();
}

} // namespace cfd::poly
