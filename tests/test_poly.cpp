#include "poly/AffineExpr.h"
#include "poly/AffineMap.h"
#include "poly/Box.h"
#include "support/Error.h"

#include <gtest/gtest.h>

namespace cfd::poly {
namespace {

TEST(AffineExprTest, DimAndConstant) {
  const AffineExpr d1 = AffineExpr::dim(3, 1);
  EXPECT_TRUE(d1.isDim(1));
  EXPECT_FALSE(d1.isDim(0));
  EXPECT_FALSE(d1.isConstant());
  const AffineExpr c = AffineExpr::constant(3, 42);
  EXPECT_TRUE(c.isConstant());
  EXPECT_EQ(c.constantTerm(), 42);
}

TEST(AffineExprTest, Arithmetic) {
  const AffineExpr d0 = AffineExpr::dim(2, 0);
  const AffineExpr d1 = AffineExpr::dim(2, 1);
  const AffineExpr expr = d0 * 11 + d1 + 5;
  const std::int64_t point[] = {3, 4};
  EXPECT_EQ(expr.evaluate(point), 11 * 3 + 4 + 5);
  const AffineExpr diff = expr - d1;
  EXPECT_EQ(diff.evaluate(point), 11 * 3 + 5);
  EXPECT_TRUE(expr.usesDim(0));
  EXPECT_TRUE(expr.usesDim(1));
  EXPECT_FALSE(diff.usesDim(1));
}

TEST(AffineExprTest, Substitute) {
  // f(x, y) = 2x + 3y; substitute x = a + b, y = 4.
  const AffineExpr f =
      AffineExpr::dim(2, 0) * 2 + AffineExpr::dim(2, 1) * 3;
  const AffineExpr repl[] = {
      AffineExpr::dim(2, 0) + AffineExpr::dim(2, 1),
      AffineExpr::constant(2, 4),
  };
  const AffineExpr g = f.substitute(repl, 2);
  const std::int64_t point[] = {5, 7};
  EXPECT_EQ(g.evaluate(point), 2 * (5 + 7) + 3 * 4);
}

TEST(AffineExprTest, Printing) {
  const AffineExpr expr =
      AffineExpr::dim(2, 0) * 121 + AffineExpr::dim(2, 1) * -1 + 7;
  EXPECT_EQ(expr.str(), "121*d0 - d1 + 7");
  EXPECT_EQ(AffineExpr::constant(2, 0).str(), "0");
}

TEST(AffineExprTest, OutOfRangeDimThrows) {
  EXPECT_THROW(AffineExpr::dim(2, 2), InternalError);
  EXPECT_THROW(AffineExpr::dim(2, -1), InternalError);
}

// Coefficients live inline: kMaxDims of them plus the constant and the
// count, 80 bytes, which is what a 3-4-dim expression cost with its heap
// block before.
TEST(AffineExprTest, InlineUpToTheRankBound) {
  static_assert(kMaxDims == 8);
  static_assert(sizeof(AffineExpr) == 80);
  const std::int64_t coefficients[kMaxDims] = {1, 2, 3, 4, 5, 6, 7, 8};
  const AffineExpr full = AffineExpr::fromCoefficients(coefficients, 9);
  EXPECT_EQ(full.numDims(), kMaxDims);
  EXPECT_EQ(full.str(), "d0 + 2*d1 + 3*d2 + 4*d3 + 5*d4 + 6*d5 + 7*d6 + "
                        "8*d7 + 9");
  EXPECT_THROW(AffineExpr::constant(kMaxDims + 1, 0), InternalError);
  EXPECT_THROW(AffineExpr::dim(kMaxDims + 1, 0), InternalError);
  const std::int64_t tooMany[kMaxDims + 1] = {};
  EXPECT_THROW(AffineExpr::fromCoefficients(tooMany, 0), InternalError);
  EXPECT_THROW(AffineMap(kMaxDims + 1, {}), InternalError);
}

// Equality compares the space, the constant and the live coefficients.
TEST(AffineExprTest, EqualityOverTheLiveDims) {
  const AffineExpr d1 = AffineExpr::dim(3, 1);
  EXPECT_EQ(d1, AffineExpr::dim(3, 1));
  EXPECT_NE(d1, AffineExpr::dim(3, 0));
  EXPECT_NE(d1, AffineExpr::dim(2, 1));
  EXPECT_NE(d1, d1 + 1);
  EXPECT_EQ(d1 * 2 - d1, d1);
}

TEST(AffineMapTest, RowMajorLayoutMatchesC99) {
  // t[i,j,k] -> 121 i + 11 j + k for shape [11 11 11] (paper §IV-D).
  const std::int64_t shape[] = {11, 11, 11};
  const AffineMap layout = AffineMap::rowMajorLayout(shape);
  ASSERT_EQ(layout.numResults(), 1);
  const std::int64_t point[] = {2, 3, 4};
  EXPECT_EQ(layout.evaluate(point)[0], 121 * 2 + 11 * 3 + 4);
}

TEST(AffineMapTest, ColumnMajorLayout) {
  const std::int64_t shape[] = {11, 11, 11};
  const AffineMap layout = AffineMap::columnMajorLayout(shape);
  const std::int64_t point[] = {2, 3, 4};
  EXPECT_EQ(layout.evaluate(point)[0], 2 + 11 * 3 + 121 * 4);
}

TEST(AffineMapTest, IdentityAndProjection) {
  EXPECT_TRUE(AffineMap::identity(3).isIdentity());
  const int dims[] = {2, 0};
  const AffineMap proj = AffineMap::projection(3, dims);
  const std::int64_t point[] = {7, 8, 9};
  const auto image = proj.evaluate(point);
  ASSERT_EQ(image.size(), 2u);
  EXPECT_EQ(image[0], 9);
  EXPECT_EQ(image[1], 7);
  EXPECT_FALSE(proj.isIdentity());
}

TEST(AffineMapTest, Compose) {
  // layout ∘ transpose: [i,j] -> [j,i] -> 11 j + i  (shape [11 11]).
  const int swap[] = {1, 0};
  const AffineMap transpose = AffineMap::projection(2, swap);
  const std::int64_t shape[] = {11, 11};
  const AffineMap layout = AffineMap::rowMajorLayout(shape);
  const AffineMap composed = layout.compose(transpose);
  const std::int64_t point[] = {3, 4};
  EXPECT_EQ(composed.evaluate(point)[0], 11 * 4 + 3);
}

TEST(AffineMapTest, ConcatAndInjectivity) {
  const std::int64_t shape[] = {4, 5};
  const AffineMap layout = AffineMap::rowMajorLayout(shape);
  EXPECT_TRUE(layout.isInjectiveOn(Box::fromShape(shape)));
  // A lossy map (sum of indices) is not injective.
  const AffineMap sum(2, {AffineExpr::dim(2, 0) + AffineExpr::dim(2, 1)});
  EXPECT_FALSE(sum.isInjectiveOn(Box::fromShape(shape)));
  const AffineMap both = layout.concat(sum);
  EXPECT_EQ(both.numResults(), 2);
}

TEST(BoxTest, ShapeConstruction) {
  const std::int64_t shape[] = {11, 11};
  const Box box = Box::fromShape(shape);
  EXPECT_EQ(box.rank(), 2);
  EXPECT_EQ(box.size(), 121);
  EXPECT_FALSE(box.empty());
  EXPECT_EQ(box.shape(), (std::vector<std::int64_t>{11, 11}));
}

TEST(BoxTest, ContainsAndIntersect) {
  const Box a({0, 0}, {10, 10});
  const Box b({5, 5}, {15, 15});
  const std::int64_t inside[] = {6, 6};
  const std::int64_t outside[] = {12, 3};
  EXPECT_TRUE(a.contains(inside));
  EXPECT_FALSE(a.contains(outside));
  const Box inter = a.intersect(b);
  EXPECT_EQ(inter.size(), 25);
  EXPECT_TRUE(a.overlaps(b));
  const Box c({20, 20}, {30, 30});
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(a.intersect(c).empty());
}

TEST(BoxTest, Rank0IsScalar) {
  const Box scalar({}, {});
  EXPECT_EQ(scalar.rank(), 0);
  EXPECT_EQ(scalar.size(), 1);
  int visits = 0;
  scalar.forEachPoint([&](std::span<const std::int64_t>) { ++visits; });
  EXPECT_EQ(visits, 1);
}

TEST(BoxTest, ForEachPointLexicographic) {
  const std::int64_t shape[] = {2, 3};
  std::vector<std::vector<std::int64_t>> points;
  Box::fromShape(shape).forEachPoint(
      [&](std::span<const std::int64_t> point) {
        points.emplace_back(point.begin(), point.end());
      });
  ASSERT_EQ(points.size(), 6u);
  EXPECT_EQ(points.front(), (std::vector<std::int64_t>{0, 0}));
  EXPECT_EQ(points[1], (std::vector<std::int64_t>{0, 1}));
  EXPECT_EQ(points.back(), (std::vector<std::int64_t>{1, 2}));
  // Strictly increasing lexicographically.
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_LT(points[i - 1], points[i]);
}

TEST(BoxTest, EmptyBoxVisitsNothing) {
  const Box empty({0, 5}, {3, 5});
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0);
  int visits = 0;
  empty.forEachPoint([&](std::span<const std::int64_t>) { ++visits; });
  EXPECT_EQ(visits, 0);
}

// Property-style sweep: row-major layouts are injective and dense for a
// family of shapes.
class LayoutProperty
    : public ::testing::TestWithParam<std::vector<std::int64_t>> {};

TEST_P(LayoutProperty, RowMajorIsDenseBijection) {
  const auto shape = GetParam();
  const Box box = Box::fromShape(shape);
  const AffineMap layout = AffineMap::rowMajorLayout(shape);
  std::vector<bool> hit(static_cast<std::size_t>(box.size()), false);
  box.forEachPoint([&](std::span<const std::int64_t> point) {
    const std::int64_t offset = layout.evaluate(point)[0];
    ASSERT_GE(offset, 0);
    ASSERT_LT(offset, box.size());
    EXPECT_FALSE(hit[static_cast<std::size_t>(offset)]);
    hit[static_cast<std::size_t>(offset)] = true;
  });
  for (bool h : hit)
    EXPECT_TRUE(h);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, LayoutProperty,
    ::testing::Values(std::vector<std::int64_t>{7},
                      std::vector<std::int64_t>{3, 4},
                      std::vector<std::int64_t>{11, 11},
                      std::vector<std::int64_t>{2, 3, 5},
                      std::vector<std::int64_t>{11, 11, 11},
                      std::vector<std::int64_t>{2, 2, 2, 2}));

} // namespace
} // namespace cfd::poly
