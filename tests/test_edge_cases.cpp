// Edge-case and failure-injection coverage across the whole flow:
// degenerate shapes, full reductions to scalars, multiple outputs,
// type aliases, extreme replication requests, and hostile inputs.
#include "core/Flow.h"
#include "rtl/SystemModel.h"

#include <gtest/gtest.h>

namespace cfd {
namespace {

TEST(EdgeCaseTest, FullReductionToScalar) {
  // Inner product: s = <A, B> over both dimensions.
  const Flow flow = Flow::compile(R"(
var input  A : [4 6]
var input  B : [4 6]
var output s : []
s = A # B . [[0 2] [1 3]]
)");
  EXPECT_LE(flow.validate(), 1e-12);
  // Scalar output: PLM depth 1, one BRAM at most.
  const ir::Tensor* s = flow.program().findTensor("s");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->type.numElements(), 1);
}

TEST(EdgeCaseTest, ExtentOneDimensions) {
  const Flow flow = Flow::compile(R"(
var input  A : [1 5]
var input  B : [5 1]
var output C : [1 1]
C = A # B . [[1 2]]
)");
  EXPECT_LE(flow.validate(), 1e-12);
}

TEST(EdgeCaseTest, MultipleOutputs) {
  const Flow flow = Flow::compile(R"(
var input  a : [6]
var input  b : [6]
var output sum : [6]
var output dif : [6]
sum = a + b
dif = a - b
)");
  EXPECT_LE(flow.validate(), 1e-12);
  int outputs = 0;
  for (const auto& entry : flow.systemDesign().addressMap)
    if (entry.array == "sum" || entry.array == "dif")
      ++outputs;
  EXPECT_EQ(outputs, 2);
}

TEST(EdgeCaseTest, TypeAliases) {
  const Flow flow = Flow::compile(R"(
type mat  : [7 7]
type cube : [7 7 7]
var input  S : mat
var input  u : cube
var output v : cube
v = S # S # S # u . [[1 6] [3 7] [5 8]]
)");
  EXPECT_LE(flow.validate(), 1e-9);
  EXPECT_EQ(flow.program().findTensor("S")->type.shape,
            (std::vector<std::int64_t>{7, 7}));
}

TEST(EdgeCaseTest, UnknownTypeAliasRejected) {
  EXPECT_THROW(Flow::compile("var input x : nosuchtype\n"
                             "var output y : [3]\ny = x"),
               FlowError);
}

TEST(EdgeCaseTest, DuplicateTypeAliasRejected) {
  EXPECT_THROW(Flow::compile("type t : [3]\ntype t : [4]\n"
                             "var input x : t\nvar output y : t\ny = x"),
               FlowError);
}

TEST(EdgeCaseTest, ScalarOnlyProgram) {
  const Flow flow = Flow::compile(R"(
var input  x : []
var output y : []
y = x * x + 1
)");
  EXPECT_LE(flow.validate(), 1e-12);
}

TEST(EdgeCaseTest, LongEntryWiseChain) {
  std::string source = "var input a : [8]\nvar output z : [8]\n";
  std::string expr = "a";
  for (int i = 0; i < 20; ++i)
    expr = "(" + expr + " + a)";
  source += "z = " + expr + "\n";
  const Flow flow = Flow::compile(source);
  EXPECT_LE(flow.validate(), 1e-9);
}

TEST(EdgeCaseTest, RankFourTensors) {
  // A dims 0-3, B dims 4-5; contracting (3, 4) leaves [3 4 3] ++ [3].
  const Flow flow = Flow::compile(R"(
var input  A : [3 4 3 4]
var input  B : [4 3]
var output C : [3 4 3 3]
C = A # B . [[3 4]]
)");
  EXPECT_LE(flow.validate(), 1e-12);
}

TEST(EdgeCaseTest, EmptySourceRejected) {
  // No outputs -> nothing to generate.
  EXPECT_THROW(Flow::compile(""), FlowError);
  EXPECT_THROW(Flow::compile("var input x : [3]"), FlowError);
}

TEST(EdgeCaseTest, HugeTensorViolatesEq3) {
  // A 2M-word PLM cannot fit the device. At 2^21 elements the shape is
  // far under the flow's element bound, so the failure is Eq. 3's.
  try {
    Flow::compile(R"(
var input  a : [128 128 128]
var output b : [128 128 128]
b = a + a
)");
    ADD_FAILURE() << "a 2M-word PLM fit the device";
  } catch (const FlowError& e) {
    EXPECT_NE(std::string(e.what()).find("Eq. 3"), std::string::npos)
        << e.what();
  }
}

TEST(EdgeCaseTest, ContractionIntermediateOverTheShapeBoundIsAFlowError) {
  // Sema bounds the factors and the result, all 2^15 elements. The
  // right-to-left factor order first forms b # c, an outer product of
  // 2^30 elements, which lowering refuses before any stage sizes it.
  try {
    Flow::compile(R"(
var input  a : [32768]
var input  b : [32768]
var input  c : [32768]
var output v : [32768]
v = a # b # c . [[0 2]]
)");
    ADD_FAILURE() << "formed an intermediate over the shape bound";
  } catch (const FlowError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "contraction intermediate: shape [32768 32768] exceeds "
                  "the bound of 268,435,456 elements per tensor"),
              std::string::npos)
        << e.what();
  }
}

TEST(EdgeCaseTest, WhitespaceAndCommentRobustness) {
  const Flow flow = Flow::compile("  var   input a:[3]\n"
                                  "% comment line\n"
                                  "var output b : [3] // trailing\n"
                                  "\n\n b=a// done\n");
  EXPECT_LE(flow.validate(), 1e-12);
}

TEST(EdgeCaseTest, RtlModelHandlesMultipleOutputs) {
  const Flow flow = Flow::compile(
      R"(
var input  a : [6]
var input  b : [6]
var output sum : [6]
var output dif : [6]
sum = a + b
dif = a - b
)",
      [] {
        FlowOptions o;
        o.system.memories = 2;
        o.system.kernels = 2;
        return o;
      }());
  rtl::SystemModel system(flow);
  eval::DenseTensor a = eval::makeTestInput({6}, 3);
  eval::DenseTensor b = eval::makeTestInput({6}, 4);
  system.writeArray(0, "a", a);
  system.writeArray(0, "b", b);
  system.runIteration();
  const eval::DenseTensor sum = system.readArray(0, "sum");
  const eval::DenseTensor dif = system.readArray(0, "dif");
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(sum.data[i], a.data[i] + b.data[i], 1e-12);
    EXPECT_NEAR(dif.data[i], a.data[i] - b.data[i], 1e-12);
  }
}

TEST(EdgeCaseTest, ContractionOfThreeFactorsAllPairsAcross) {
  // Chain A-B-C where B bridges both contractions.
  const Flow flow = Flow::compile(R"(
var input  A : [3 4]
var input  B : [4 5]
var input  C : [5 6]
var output D : [3 6]
D = A # B # C . [[1 2] [3 4]]
)");
  EXPECT_LE(flow.validate(), 1e-12);
}

TEST(EdgeCaseTest, UnrollFactorMustBePowerOfTwo) {
  FlowOptions options;
  options.hls.unrollFactor = 3;
  EXPECT_THROW(Flow::compile("var input a : [4]\nvar output b : [4]\n"
                             "b = a + a",
                             options),
               InternalError);
}

} // namespace
} // namespace cfd
