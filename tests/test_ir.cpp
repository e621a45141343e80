#include "dsl/Parser.h"
#include "ir/Analysis.h"
#include "ir/Lowering.h"
#include "ir/TextIO.h"
#include "ir/Transforms.h"
#include "support/Error.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <functional>

namespace cfd::ir {
namespace {

Program lowerSource(const char* source, LoweringOptions options = {}) {
  return lower(dsl::parseAndCheck(source), options);
}

TEST(LoweringTest, Fig1ProducesFig6Arrays) {
  const Program program = lowerSource(test::kInverseHelmholtz);
  // The paper's Fig. 6 kernel interface: S, D, u, v, t, r, t0..t3.
  EXPECT_EQ(program.tensors().size(), 10u);
  for (const char* name :
       {"S", "D", "u", "v", "t", "r", "t0", "t1", "t2", "t3"})
    EXPECT_NE(program.findTensor(name), nullptr) << name;
  // Transients carry the intermediate shape [11 11 11].
  EXPECT_EQ(program.findTensor("t0")->type.shape,
            (std::vector<std::int64_t>{11, 11, 11}));
  EXPECT_EQ(program.findTensor("t0")->kind, TensorKind::Transient);
  // 7 statements: 3 + 1 (Hadamard) + 3.
  EXPECT_EQ(program.operations().size(), 7u);
}

TEST(LoweringTest, ContractionSplitReducesWork) {
  // Each binary contraction is O(p^4): 3 * 11^4 per original contraction,
  // plus 11^3 multiplies for the Hadamard product.
  const Program program = lowerSource(test::kInverseHelmholtz);
  const OpWork work = totalWork(program);
  const std::int64_t p4 = 11LL * 11 * 11 * 11;
  EXPECT_EQ(work.fmul, 6 * p4 + 11 * 11 * 11);
  EXPECT_EQ(work.fadd, 6 * p4);
}

TEST(LoweringTest, SingleContractionStatementShapes) {
  const Program program = lowerSource(test::kMatMul2D);
  ASSERT_EQ(program.operations().size(), 1u);
  const Operation& op = program.operations()[0];
  EXPECT_EQ(op.kind, OpKind::Contract);
  ASSERT_EQ(op.pairs.size(), 1u);
  // C[i,j] = sum_k A[i,k] B[k,j]; domain = [4, 6, 5].
  const poly::Box domain = program.domain(op);
  EXPECT_EQ(domain.shape(), (std::vector<std::int64_t>{4, 6, 5}));
  EXPECT_EQ(program.numOutputDims(op), 2);
}

TEST(LoweringTest, AccessMapsMatchMatMulSemantics) {
  const Program program = lowerSource(test::kMatMul2D);
  const Operation& op = program.operations()[0];
  const auto reads = program.readAccesses(op);
  ASSERT_EQ(reads.size(), 2u);
  // Domain point (i=1, j=2, k=3): A[1,3], B[3,2], C[1,2].
  const std::int64_t point[] = {1, 2, 3};
  EXPECT_EQ(reads[0].map.evaluate(point),
            (std::vector<std::int64_t>{1, 3}));
  EXPECT_EQ(reads[1].map.evaluate(point),
            (std::vector<std::int64_t>{3, 2}));
  EXPECT_EQ(program.writeAccess(op).map.evaluate(point),
            (std::vector<std::int64_t>{1, 2}));
}

TEST(LoweringTest, TraceIsRejected) {
  EXPECT_THROW(lowerSource("var input A : [3 3]\nvar output s : []\n"
                           "s = A . [[0 1]]"),
               FlowError);
}

TEST(LoweringTest, LeftToRightFactorizationAlsoVerifies) {
  LoweringOptions options;
  options.factorization = FactorizationOrder::LeftToRight;
  const Program program = lowerSource(test::kInverseHelmholtz, options);
  EXPECT_EQ(program.operations().size(), 7u);
  EXPECT_NO_THROW(program.verify());
}

TEST(LoweringTest, EntryWiseChain) {
  const Program program = lowerSource(test::kEntryWiseChain);
  // All statements are entry-wise or fills.
  for (const auto& op : program.operations())
    EXPECT_TRUE(op.kind == OpKind::EntryWise || op.kind == OpKind::Fill);
  EXPECT_NO_THROW(program.verify());
}

TEST(LoweringTest, DirectCopyAssignment) {
  const Program program =
      lowerSource("var input a : [5]\nvar output b : [5]\nb = a");
  ASSERT_EQ(program.operations().size(), 1u);
  EXPECT_EQ(program.operations()[0].kind, OpKind::Copy);
}

/// A valid program broken in one field, and the message verify() must
/// reject it with: the text between the "assertion failed: <cond>: "
/// prefix and the " (file:line)" suffix.
struct BrokenCase {
  const char* message;
  std::function<void(std::vector<Operation>&)> breakIt;
};

void expectEachRejected(const Program& valid,
                        const std::vector<BrokenCase>& cases) {
  for (const BrokenCase& c : cases) {
    SCOPED_TRACE(c.message);
    Program program = valid;
    c.breakIt(program.operations());
    try {
      program.verify();
      ADD_FAILURE() << "verify() accepted the broken program";
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string(": ") + c.message +
                                           " ("),
                std::string::npos)
          << e.what();
    }
  }
}

// One hand-broken program per verify() invariant.
TEST(ProgramTest, VerifyRejectsEachBrokenInvariant) {
  const Program valid = parseProgramText(R"(
input a : [4]
input A : [2 3]
input B : [3 4]
output b : [4]
output c : [2 4]
transient t : [4]
t = a + a
b = copy(t)
c = contract(A, B, pairs={(1,0)})
)");
  const TensorId a = valid.findTensor("a")->id;
  const TensorId A = valid.findTensor("A")->id;
  const TensorId b = valid.findTensor("b")->id;
  const std::size_t sum = 0, copy = 1, contract = 2;
  expectEachRejected(
      valid,
      {{"tensor id out of range", [](auto& ops) { ops[copy].lhs = 99; }},
       {"input tensor a is written",
        [&](auto& ops) { ops[sum].target = a; }},
       {"tensor b violates single assignment",
        [&](auto& ops) { ops[sum].target = b; }},
       {"tensor t read before definition",
        [](auto& ops) { std::swap(ops[sum], ops[copy]); }},
       {"entry-wise operand rank mismatch",
        [&](auto& ops) { ops[sum].rhs = A; }},
       {"copy rank mismatch", [&](auto& ops) { ops[copy].lhs = A; }},
       {"resultPerm arity mismatch",
        [](auto& ops) { ops[contract].resultPerm = {0}; }},
       // The domain is [2 4 3]: a result position 3 is past it.
       {"dimension index out of range",
        [](auto& ops) { ops[contract].resultPerm = {0, 3}; }},
       {"write rank mismatch on c",
        [](auto& ops) { ops[contract].pairs.clear(); }},
       {"write out of bounds on c",
        [](auto& ops) { ops[contract].resultPerm = {1, 0}; }},
       {"output b is never written",
        [](auto& ops) { ops.erase(ops.begin() + copy); }}});
}

// Contraction pairs and copy perms name operand dims; one outside an
// operand's rank is rejected before anything indexes with it.
TEST(ProgramTest, VerifyRejectsDimsOutsideTheOperandRank) {
  const Program valid = parseProgramText(R"(
input a : [2 3]
input b : [3 2]
output c : [2 2]
output d : [3 2]
c = contract(a, b, pairs={(1,0)})
d = copy(a, perm=[1 0])
)");
  const std::size_t contract = 0, copy = 1;
  expectEachRejected(
      valid, {{"contraction pair dimension out of range",
               [](auto& ops) { ops[contract].pairs = {{2, 0}}; }},
              {"contraction pair dimension out of range",
               [](auto& ops) { ops[contract].pairs = {{1, 2}}; }},
              {"contraction pair dimension out of range",
               [](auto& ops) { ops[contract].pairs = {{-1, 0}}; }},
              {"copy perm entry out of range",
               [](auto& ops) { ops[copy].perm = {1, 2}; }},
              {"copy perm entry out of range",
               [](auto& ops) { ops[copy].perm = {-1, 0}; }},
              {"copy perm shorter than target rank",
               [](auto& ops) { ops[copy].perm = {1}; }}});
}

// kMaxDims (support/Format.h) bounds every contraction's loop domain:
// the free dims of both operands plus one loop per pair. Dropping a pair
// here turns an 8-loop domain into a 9-loop one.
TEST(ProgramTest, VerifyRejectsAContractionDomainOverTheRankBound) {
  const Program valid = parseProgramText(R"(
input a : [2 2 2 3 3]
input b : [3 3 2 2 2]
output c : [2 2 2 2 2 2]
c = contract(a, b, pairs={(3,0), (4,1)})
)");
  EXPECT_NO_THROW(valid.verify());
  expectEachRejected(
      valid, {{"contraction domain of 9 loops on c exceeds the bound of 8 "
               "loops per statement",
               [](auto& ops) { ops.front().pairs = {{4, 1}}; }}});
}

TEST(ProgramTest, InterfaceOrderGroupsKinds) {
  const Program program = lowerSource(test::kInverseHelmholtz);
  const auto order = program.interfaceOrder();
  ASSERT_EQ(order.size(), 10u);
  // Inputs first (S, D, u), then output v, then locals t/r, then t0..t3.
  EXPECT_EQ(program.tensor(order[0]).name, "S");
  EXPECT_EQ(program.tensor(order[3]).name, "v");
  EXPECT_EQ(program.tensor(order[4]).kind, TensorKind::Local);
  EXPECT_EQ(program.tensor(order[9]).kind, TensorKind::Transient);
}

TEST(TransformsTest, CanonicalizeDropsIdentityCopies) {
  // 'w = a' materializes as a copy into the local w; the canonicalizer
  // keeps interface contracts but removes transient-level copies.
  Program program = lowerSource(
      "var input a : [4]\nvar output b : [4]\nvar w : [4]\nw = a\nb = w + a");
  const std::size_t before = program.operations().size();
  const CanonicalizeStats stats = canonicalize(program);
  EXPECT_LE(program.operations().size(), before);
  EXPECT_NO_THROW(program.verify());
  (void)stats;
}

TEST(AnalysisTest, TransitiveOperandSets) {
  const Program program = lowerSource(test::kInverseHelmholtz);
  const auto sets = transitiveOperandSets(program);
  const TensorId v = program.findTensor("v")->id;
  const TensorId u = program.findTensor("u")->id;
  const TensorId S = program.findTensor("S")->id;
  const TensorId D = program.findTensor("D")->id;
  // v transitively depends on everything.
  EXPECT_TRUE(sets.at(v).count(u));
  EXPECT_TRUE(sets.at(v).count(S));
  EXPECT_TRUE(sets.at(v).count(D));
  // u depends on nothing.
  EXPECT_TRUE(sets.at(u).empty());
}

TEST(AnalysisTest, DefUseChains) {
  const Program program = lowerSource(test::kInverseHelmholtz);
  const auto defs = definingStatement(program);
  const auto uses = readingStatements(program);
  const TensorId t = program.findTensor("t")->id;
  const TensorId S = program.findTensor("S")->id;
  EXPECT_GE(defs.at(t), 0);
  EXPECT_EQ(defs.at(S), -1);
  // S is read by all six contraction statements.
  EXPECT_EQ(uses.at(S).size(), 6u);
  // t is read exactly once (Hadamard).
  EXPECT_EQ(uses.at(t).size(), 1u);
}

TEST(AnalysisTest, WorkOfHadamard) {
  const Program program = lowerSource(test::kInverseHelmholtz);
  // Find the EntryWise op (r = D * t).
  const Operation* hadamard = nullptr;
  for (const auto& op : program.operations())
    if (op.kind == OpKind::EntryWise)
      hadamard = &op;
  ASSERT_NE(hadamard, nullptr);
  const OpWork work = workOf(program, *hadamard);
  EXPECT_EQ(work.fmul, 1331);
  EXPECT_EQ(work.loads, 2 * 1331);
  EXPECT_EQ(work.stores, 1331);
}

} // namespace
} // namespace cfd::ir
