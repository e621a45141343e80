// IR optimizer tests (DESIGN.md §12): per-pass rewrite semantics on
// hand-written programs, level-0 byte-identity with the canonicalize-only
// flow, a randomized pass-order fuzz that checks the pseudo-SSA
// invariants after every pass, and textual round-trips of optimized
// programs.
#include "core/Flow.h"
#include "ir/PassManager.h"
#include "ir/TextIO.h"
#include "ir/Transforms.h"

#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace cfd {
namespace {

/// Two outputs computed by byte-identical contraction statements — the
/// smallest program where CSE pays off end to end.
constexpr const char* kRedundantContraction = R"(
var input  A : [6 7]
var input  x : [7]
var output y : [6]
var output z : [6]
y = A # x . [[1 2]]
z = A # x . [[1 2]]
)";

ir::Program optimized(const char* text, int level) {
  ir::Program program = ir::parseProgramText(text);
  ir::OptimizeOptions options;
  options.level = level;
  ir::optimize(program, options);
  return program;
}

// ---- Pass selection ----

TEST(OptimizeOptionsTest, EnabledPassesFollowTheLevelGate) {
  ir::OptimizeOptions options;
  options.level = 0;
  EXPECT_EQ(ir::enabledPasses(options),
            (std::vector<std::string>{"canonicalize"}));
  options.level = 1;
  EXPECT_EQ(ir::enabledPasses(options),
            (std::vector<std::string>{"canonicalize", "cse", "fold", "dce"}));
  options.level = 2;
  EXPECT_EQ(ir::enabledPasses(options),
            (std::vector<std::string>{"canonicalize", "cse", "fold", "fuse",
                                      "dce"}));
  options.fuse = false;
  EXPECT_EQ(ir::enabledPasses(options),
            (std::vector<std::string>{"canonicalize", "cse", "fold", "dce"}));
}

TEST(OptimizeOptionsTest, UnknownPassNameThrows) {
  ir::Program program = ir::parseProgramText("input a : [2]\n"
                                             "output b : [2]\n"
                                             "b = copy(a)\n");
  EXPECT_THROW(ir::runPass(program, "loop-unroll"), InternalError);
}

// ---- CSE ----

TEST(CsePassTest, DuplicateTransientChainsCollapse) {
  const ir::Program program = optimized("input A : [4 4]\n"
                                        "input x : [4]\n"
                                        "output y : [4]\n"
                                        "output z : [4]\n"
                                        "transient t0 : [4]\n"
                                        "transient t1 : [4]\n"
                                        "t0 = contract(A, x, pairs={(1,0)})\n"
                                        "t1 = contract(A, x, pairs={(1,0)})\n"
                                        "y = t0 + t0\n"
                                        "z = t1 + t1\n",
                                        /*level=*/1);
  // The duplicate contraction collapses onto t0, which in turn makes the
  // two entry-wise statements identical — the second becomes a copy.
  EXPECT_EQ(program.str(), "input A : [4 4]\n"
                           "input x : [4]\n"
                           "output y : [4]\n"
                           "output z : [4]\n"
                           "transient t0 : [4]\n"
                           "t0 = contract(A, x, pairs={(1,0)})\n"
                           "y = t0 + t0\n"
                           "z = copy(y)\n");
}

TEST(CsePassTest, DuplicateOutputBecomesCopyOfRepresentative) {
  const ir::Program program = optimized("input A : [4 4]\n"
                                        "input x : [4]\n"
                                        "output y : [4]\n"
                                        "output z : [4]\n"
                                        "y = contract(A, x, pairs={(1,0)})\n"
                                        "z = contract(A, x, pairs={(1,0)})\n",
                                        /*level=*/1);
  EXPECT_EQ(program.str(), "input A : [4 4]\n"
                           "input x : [4]\n"
                           "output y : [4]\n"
                           "output z : [4]\n"
                           "y = contract(A, x, pairs={(1,0)})\n"
                           "z = copy(y)\n");
}

TEST(CsePassTest, CommutativeEntryWiseOpsMatchEitherOperandOrder) {
  const ir::Program program = optimized("input a : [3]\n"
                                        "input b : [3]\n"
                                        "output y : [3]\n"
                                        "output z : [3]\n"
                                        "y = a * b\n"
                                        "z = b * a\n",
                                        /*level=*/1);
  EXPECT_NE(program.str().find("z = copy(y)"), std::string::npos)
      << program.str();
}

TEST(CsePassTest, NonCommutativeOpsAreNotMerged) {
  const ir::Program program = optimized("input a : [3]\n"
                                        "input b : [3]\n"
                                        "output y : [3]\n"
                                        "output z : [3]\n"
                                        "y = a - b\n"
                                        "z = b - a\n",
                                        /*level=*/1);
  EXPECT_NE(program.str().find("z = b - a"), std::string::npos)
      << program.str();
}

// CSE merges structurally equal ops only. Each pair below computes
// values that a looser relation could merge: equal numbers, or equal
// sums in another loop order, or equal entries in another layout.
TEST(CsePassTest, FillsOfZeroAndNegativeZeroAreNotMerged) {
  const ir::Program program = optimized("output y : [3]\n"
                                        "output z : [3]\n"
                                        "y = fill(0)\n"
                                        "z = fill(-0)\n",
                                        /*level=*/1);
  EXPECT_EQ(program.str(), "output y : [3]\n"
                           "output z : [3]\n"
                           "y = fill(0)\n"
                           "z = fill(-0)\n");
}

TEST(CsePassTest, ContractionsDifferingInPairOrderAreNotMerged) {
  const char* text = "input A : [3 4]\n"
                     "input B : [3 4]\n"
                     "output y : []\n"
                     "output z : []\n"
                     "y = contract(A, B, pairs={(0,0), (1,1)})\n"
                     "z = contract(A, B, pairs={(1,1), (0,0)})\n";
  EXPECT_EQ(optimized(text, /*level=*/1).str(), text);
}

TEST(CsePassTest, ContractionsDifferingInResultPermAreNotMerged) {
  const char* text = "input a : [3]\n"
                     "input b : [3]\n"
                     "output y : [3 3]\n"
                     "output z : [3 3]\n"
                     "y = contract(a, b, pairs={})\n"
                     "z = contract(a, b, pairs={}, perm=[1 0])\n";
  EXPECT_EQ(optimized(text, /*level=*/1).str(), text);
}

TEST(CsePassTest, EqualOpsOverDifferentTargetShapesAreNotMerged) {
  const char* text = "output y : [3]\n"
                     "output z : [4]\n"
                     "y = fill(1)\n"
                     "z = fill(1)\n";
  EXPECT_EQ(optimized(text, /*level=*/1).str(), text);
}

// ---- Constant folding / algebraic identities ----

TEST(FoldPassTest, MulByFilledOneBecomesCopy) {
  const ir::Program program = optimized("input x : [3 3]\n"
                                        "output y : [3 3]\n"
                                        "transient one : [3 3]\n"
                                        "one = fill(1)\n"
                                        "y = x * one\n",
                                        /*level=*/1);
  EXPECT_EQ(program.str(), "input x : [3 3]\n"
                           "output y : [3 3]\n"
                           "y = copy(x)\n");
}

TEST(FoldPassTest, AddZeroIsIdentityAndMulZeroIsFill) {
  const ir::Program program = optimized("input x : [3]\n"
                                        "output y : [3]\n"
                                        "output z : [3]\n"
                                        "transient zero : [3]\n"
                                        "zero = fill(0)\n"
                                        "y = x + zero\n"
                                        "z = x * zero\n",
                                        /*level=*/1);
  EXPECT_EQ(program.str(), "input x : [3]\n"
                           "output y : [3]\n"
                           "output z : [3]\n"
                           "y = copy(x)\n"
                           "z = fill(0)\n");
}

TEST(FoldPassTest, FillFedEntryWiseOpsFoldArithmetically) {
  const ir::Program program = optimized("output y : [2 2]\n"
                                        "transient a : [2 2]\n"
                                        "transient b : [2 2]\n"
                                        "a = fill(2)\n"
                                        "b = fill(3)\n"
                                        "y = a * b\n",
                                        /*level=*/1);
  EXPECT_EQ(program.str(), "output y : [2 2]\n"
                           "y = fill(6)\n");
}

TEST(FoldPassTest, InversePermutedCopiesCollapseToIdentity) {
  const ir::Program program = optimized("input x : [2 3]\n"
                                        "output y : [2 3]\n"
                                        "transient t0 : [3 2]\n"
                                        "t0 = copy(x, perm=[1 0])\n"
                                        "y = copy(t0, perm=[1 0])\n",
                                        /*level=*/1);
  EXPECT_EQ(program.str(), "input x : [2 3]\n"
                           "output y : [2 3]\n"
                           "y = copy(x)\n");
}

// ---- DCE ----

TEST(DcePassTest, DeadTransientChainIsRemoved) {
  const ir::Program program = optimized("input a : [3]\n"
                                        "output y : [3]\n"
                                        "transient t0 : [3]\n"
                                        "transient t1 : [3]\n"
                                        "t0 = a + a\n"
                                        "t1 = t0 * t0\n"
                                        "y = a - a\n",
                                        /*level=*/1);
  EXPECT_EQ(program.str(), "input a : [3]\n"
                           "output y : [3]\n"
                           "y = a - a\n");
}

// ---- Fusion ----

TEST(FusePassTest, PermutedCopyIsAbsorbedIntoContraction) {
  // t0 = A^T, so contracting t0 dim 0 with B dim 0 is contracting
  // A dim 1 with B dim 0 — the fused form must remap the pair through
  // the copy's permutation.
  const ir::Program program =
      optimized("input A : [4 5]\n"
                "input B : [5 6]\n"
                "output C : [4 6]\n"
                "transient t0 : [5 4]\n"
                "t0 = copy(A, perm=[1 0])\n"
                "C = contract(t0, B, pairs={(0,0)})\n",
                /*level=*/2);
  EXPECT_EQ(program.str(), "input A : [4 5]\n"
                           "input B : [5 6]\n"
                           "output C : [4 6]\n"
                           "C = contract(A, B, pairs={(1,0)})\n");
}

TEST(FusePassTest, FusedContractionStaysOutOfLevelOne) {
  const ir::Program program =
      optimized("input A : [4 5]\n"
                "input B : [5 6]\n"
                "output C : [4 6]\n"
                "transient t0 : [5 4]\n"
                "t0 = copy(A, perm=[1 0])\n"
                "C = contract(t0, B, pairs={(0,0)})\n",
                /*level=*/1);
  EXPECT_NE(program.str().find("t0 = copy(A, perm=[1 0])"),
            std::string::npos)
      << program.str();
}

TEST(FusePassTest, NonAdjacentIdentityCopyIsRetargeted) {
  // t0's definition and the copy that publishes it are separated by an
  // unrelated statement, so canonicalize's adjacent retargeting cannot
  // fire — the fuse pass handles the general case.
  const ir::Program program = optimized("input a : [3]\n"
                                        "input b : [3]\n"
                                        "output w : [3]\n"
                                        "output y : [3]\n"
                                        "transient t0 : [3]\n"
                                        "t0 = a + b\n"
                                        "w = a * b\n"
                                        "y = copy(t0)\n",
                                        /*level=*/2);
  EXPECT_EQ(program.str(), "input a : [3]\n"
                           "input b : [3]\n"
                           "output w : [3]\n"
                           "output y : [3]\n"
                           "y = a + b\n"
                           "w = a * b\n");
}

// ---- Level 0 matches the canonicalize-only flow byte for byte ----

TEST(OptLevelZeroTest, ProgramsMatchCanonicalizedLoweringExactly) {
  const char* sources[] = {test::kInverseHelmholtz, test::kMatMul2D,
                           test::kEntryWiseChain, kRedundantContraction};
  for (const char* source : sources) {
    FlowOptions options;
    options.optimize.level = 0;
    const Flow flow = Flow::compile(source, options);
    ir::Program manual = flow.loweredProgram();
    ir::canonicalize(manual);
    EXPECT_EQ(flow.program().str(), manual.str()) << source;
  }
}

TEST(OptLevelZeroTest, ArtifactsMatchDefaultLevelWhenOptimizerIsANoOp) {
  // The Helmholtz lowering has no duplicate subexpressions, fills, or
  // copies, so every optimization level must produce byte-identical
  // artifacts (the golden tests pin the default-level bytes).
  FlowOptions level0;
  level0.optimize.level = 0;
  const Flow base = Flow::compile(test::kInverseHelmholtz, level0);
  FlowOptions level2;
  level2.optimize.level = 2;
  const Flow opt = Flow::compile(test::kInverseHelmholtz, level2);
  EXPECT_EQ(base.cCode(), opt.cCode());
  EXPECT_EQ(base.mnemosyneConfig(), opt.mnemosyneConfig());
  EXPECT_EQ(base.hostCode(), opt.hostCode());
}

TEST(OptLevelZeroTest, RedundantProgramValidatesAtEveryLevel) {
  // The per-pass ablation: level 0, each level-1 pass alone, level 1 and
  // level 2, with the ops left and the modeled kernel latency of each.
  // The SEM kernel that applies its stiffness chain twice loses its
  // common subexpressions to cse and one more op to fuse + dce at level
  // 2; the Helmholtz kernel has nothing to remove.
  auto passes = [](int level, bool cse, bool fold, bool dce, bool fuse) {
    ir::OptimizeOptions options;
    options.level = level;
    options.cse = cse;
    options.fold = fold;
    options.dce = dce;
    options.fuse = fuse;
    return options;
  };
  const ir::OptimizeOptions configs[] = {
      passes(0, false, false, false, false), // level 0
      passes(1, true, false, false, false),  // cse only
      passes(1, false, true, false, false),  // fold only
      passes(1, false, false, true, false),  // dce only
      passes(1, true, true, true, false),    // level 1
      passes(2, true, true, true, true),     // level 2
  };
  const struct {
    const char* source;
    std::size_t ops[6];
    double kernelUs[6];
  } cases[] = {
      {test::kInverseHelmholtz,
       {7, 7, 7, 7, 7, 7},
       {486.445, 486.445, 486.445, 486.445, 486.445, 486.445}},
      {test::kRedundantSem,
       {8, 6, 8, 8, 6, 5},
       {144.035, 77.21, 144.035, 144.035, 77.21, 74.63}},
      {kRedundantContraction,
       {2, 2, 2, 2, 2, 2},
       {1.08, 0.59, 1.08, 1.08, 0.59, 0.59}},
  };
  for (const auto& c : cases)
    for (int i = 0; i < 6; ++i) {
      FlowOptions options;
      options.optimize = configs[i];
      const Flow flow = Flow::compile(c.source, options);
      EXPECT_EQ(flow.program().operations().size(), c.ops[i])
          << "config " << i << " on " << c.source;
      EXPECT_EQ(flow.kernelReport().timeUs(), c.kernelUs[i])
          << "config " << i << " on " << c.source;
      EXPECT_LE(flow.validate(), 1e-8) << "config " << i;
    }
  // And the optimizer actually removed the duplicate contraction.
  FlowOptions level1;
  level1.optimize.level = 1;
  const Flow flow = Flow::compile(kRedundantContraction, level1);
  EXPECT_NE(flow.program().str().find("z = copy(y)"), std::string::npos)
      << flow.program().str();
}

// ---- Randomized pass-order fuzz ----

TEST(PassOrderFuzzTest, EveryRandomOrderKeepsTheProgramVerified) {
  std::vector<std::string> corpus = {
      "input A : [4 4]\n"
      "input x : [4]\n"
      "output y : [4]\n"
      "output z : [4]\n"
      "transient t0 : [4]\n"
      "transient t1 : [4]\n"
      "t0 = contract(A, x, pairs={(1,0)})\n"
      "t1 = contract(A, x, pairs={(1,0)})\n"
      "y = t0 + t0\n"
      "z = t1 + t1\n",
      "input x : [3]\n"
      "output y : [3]\n"
      "output z : [3]\n"
      "transient zero : [3]\n"
      "transient t0 : [3]\n"
      "zero = fill(0)\n"
      "t0 = x + zero\n"
      "y = t0 * t0\n"
      "z = copy(t0)\n",
      "input A : [4 5]\n"
      "input B : [5 6]\n"
      "output C : [4 6]\n"
      "transient t0 : [5 4]\n"
      "transient t1 : [4 6]\n"
      "t0 = copy(A, perm=[1 0])\n"
      "t1 = contract(t0, B, pairs={(0,0)})\n"
      "C = copy(t1)\n",
  };
  for (const char* source :
       {test::kInverseHelmholtz, test::kEntryWiseChain, test::kMatMul2D})
    corpus.push_back(Flow::compile(source).loweredProgram().str());

  std::mt19937 rng(20260808);
  std::vector<std::string> order(ir::kPassNames.begin(),
                                 ir::kPassNames.end());
  for (int round = 0; round < 20; ++round) {
    for (const std::string& text : corpus) {
      ir::Program program = ir::parseProgramText(text);
      std::shuffle(order.begin(), order.end(), rng);
      for (const std::string& pass : order) {
        ir::runPass(program, pass);
        ASSERT_NO_THROW(program.verify())
            << "after pass '" << pass << "' in round " << round << " on:\n"
            << text;
      }
    }
  }
}

// ---- TextIO round-trips of optimized programs ----

TEST(TextIoRoundTripTest, OptimizedProgramsRoundTripThroughText) {
  for (const char* source :
       {test::kInverseHelmholtz, test::kEntryWiseChain, test::kMatMul2D,
        kRedundantContraction}) {
    for (int level = 1; level <= 2; ++level) {
      FlowOptions options;
      options.optimize.level = level;
      const Flow flow = Flow::compile(source, options);
      const std::string text = flow.program().str();
      EXPECT_EQ(ir::parseProgramText(text).str(), text)
          << "level " << level << " on " << source;
    }
  }
}

// ---- Report plumbing ----

TEST(OptimizeReportTest, ReportCountsOpsAndAggregatesPassRuns) {
  ir::Program program =
      ir::parseProgramText("input A : [4 4]\n"
                           "input x : [4]\n"
                           "output y : [4]\n"
                           "output z : [4]\n"
                           "y = contract(A, x, pairs={(1,0)})\n"
                           "z = contract(A, x, pairs={(1,0)})\n");
  const ir::OptimizeReport report = ir::optimize(program);
  EXPECT_EQ(report.opsBefore, 2);
  EXPECT_EQ(report.opsAfter, 2); // contract + copy
  EXPECT_GE(report.iterations, 1);
  const std::vector<ir::PassResult> totals = report.aggregated();
  // Aggregation merges fixpoint rounds: one entry per distinct pass.
  for (std::size_t i = 0; i < totals.size(); ++i)
    for (std::size_t j = i + 1; j < totals.size(); ++j)
      EXPECT_NE(totals[i].name, totals[j].name);
  EXPECT_FALSE(report.str().empty());
}

TEST(OptimizeReportTest, FlowExposesTheReportOfItsCompile) {
  FlowOptions options;
  options.optimize.level = 1;
  const Flow flow = Flow::compile(kRedundantContraction, options);
  const ir::OptimizeReport& report = flow.optimizeReport();
  EXPECT_GT(report.passes.size(), 0u);
  EXPECT_EQ(report.opsAfter,
            static_cast<int>(flow.program().operations().size()));
}

} // namespace
} // namespace cfd
