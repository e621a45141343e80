#include "dsl/Parser.h"
#include "ir/Lowering.h"
#include "ir/TextIO.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

namespace cfd::ir {
namespace {

TEST(TextIOTest, RoundTripsInverseHelmholtz) {
  const Program original =
      lower(dsl::parseAndCheck(test::kInverseHelmholtz));
  const std::string text = original.str();
  const Program reparsed = parseProgramText(text);
  // Structural identity: same tensors, same ops, same printout.
  EXPECT_EQ(reparsed.str(), text);
  EXPECT_EQ(reparsed.tensors().size(), original.tensors().size());
  EXPECT_EQ(reparsed.operations().size(), original.operations().size());
}

TEST(TextIOTest, RoundTripsAllTestPrograms) {
  for (const char* source :
       {test::kInverseHelmholtz, test::kInterpolation, test::kMatMul2D,
        test::kEntryWiseChain}) {
    const Program original = lower(dsl::parseAndCheck(source));
    const std::string text = original.str();
    EXPECT_EQ(parseProgramText(text).str(), text) << source;
  }
}

TEST(TextIOTest, ParsesHandWrittenProgram) {
  const Program program = parseProgramText(R"(
input a : [4]
input b : [4]
output c : [4]
transient t0 : [4]
t0 = a + b
c = copy(t0)
)");
  EXPECT_EQ(program.operations().size(), 2u);
  EXPECT_EQ(program.operations()[0].kind, OpKind::EntryWise);
  EXPECT_EQ(program.operations()[1].kind, OpKind::Copy);
}

TEST(TextIOTest, ParsesContractWithPerm) {
  const Program program = parseProgramText(R"(
input A : [2 3]
input B : [3 4]
output C : [4 2]
C = contract(A, B, pairs={(1,0)}, perm=[1 0])
)");
  const Operation& op = program.operations()[0];
  EXPECT_EQ(op.pairs.size(), 1u);
  EXPECT_EQ(op.resultPerm, (std::vector<int>{1, 0}));
}

TEST(TextIOTest, ParsesFillAndScalars) {
  const Program program = parseProgramText(R"(
output y : [3]
transient s : []
s = fill(2.5)
y = fill(-1)
)");
  EXPECT_DOUBLE_EQ(program.operations()[0].scalar, 2.5);
  EXPECT_DOUBLE_EQ(program.operations()[1].scalar, -1.0);
}

TEST(TextIOTest, RejectsMalformedInput) {
  EXPECT_THROW(parseProgramText("input a : 4]"), FlowError);
  EXPECT_THROW(parseProgramText("input a : [4]\nb = a + a"), FlowError);
  EXPECT_THROW(parseProgramText("input a : [4]\noutput b : [4]\n"
                                "b = a ? a"),
               FlowError);
  EXPECT_THROW(parseProgramText("input a : [4]\noutput b : [4]\n"
                                "b = copy(a) junk"),
               FlowError);
  // verify() failures surface too: output never written.
  EXPECT_THROW(parseProgramText("input a : [4]\noutput b : [4]"),
               InternalError);
  // Dims past an operand's rank: a contraction pair and a copy perm.
  const std::string rank2 =
      "input a : [2 2]\ninput b : [2 2]\noutput c : [2 2]\n";
  EXPECT_THROW(parseProgramText(rank2 + "c = contract(a, b, pairs={(5,0)})"),
               InternalError);
  EXPECT_THROW(parseProgramText(rank2 + "c = copy(a, perm=[0 7])"),
               InternalError);
}

TEST(TextIOTest, ErrorsCarryLineNumbers) {
  try {
    parseProgramText("input a : [4]\noutput b : [4]\nb = a ? a");
    FAIL() << "expected FlowError";
  } catch (const FlowError& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

} // namespace
} // namespace cfd::ir
