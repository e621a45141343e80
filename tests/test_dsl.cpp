#include "dsl/Parser.h"
#include "dsl/Sema.h"
#include "support/Error.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

namespace cfd::dsl {
namespace {

Program parseOk(const char* source) {
  Diagnostics diags;
  Parser parser(source, diags);
  Program program = parser.parseProgram();
  EXPECT_FALSE(diags.hasErrors()) << diags.str();
  return program;
}

TEST(LexerTest, TokenizesFig1Statement) {
  Diagnostics diags;
  Lexer lexer("t = S # S # S # u . [[1 6] [3 7] [5 8]]", diags);
  const auto tokens = lexer.lexAll();
  EXPECT_FALSE(diags.hasErrors());
  ASSERT_GE(tokens.size(), 10u);
  EXPECT_EQ(tokens[0].kind, TokenKind::Identifier);
  EXPECT_EQ(tokens[1].kind, TokenKind::Equal);
  EXPECT_EQ(tokens[3].kind, TokenKind::Hash);
  EXPECT_EQ(tokens.back().kind, TokenKind::EndOfFile);
}

TEST(LexerTest, DotBeforeBracketIsContraction) {
  Diagnostics diags;
  Lexer lexer("u . [[0 1]] 2.5 1e3", diags);
  const auto tokens = lexer.lexAll();
  EXPECT_EQ(tokens[1].kind, TokenKind::Dot);
  bool sawFloat = false;
  for (const auto& token : tokens)
    if (token.kind == TokenKind::FloatLiteral) {
      sawFloat = true;
      EXPECT_TRUE(token.floatValue == 2.5 || token.floatValue == 1000.0);
    }
  EXPECT_TRUE(sawFloat);
}

TEST(LexerTest, CommentsAreSkipped) {
  Diagnostics diags;
  Lexer lexer("var x : [3] // trailing\n% full line\ny = x", diags);
  const auto tokens = lexer.lexAll();
  EXPECT_FALSE(diags.hasErrors());
  int identifiers = 0;
  for (const auto& token : tokens)
    if (token.kind == TokenKind::Identifier)
      ++identifiers;
  EXPECT_EQ(identifiers, 3); // x, y, x
}

TEST(LexerTest, TracksLocations) {
  Diagnostics diags;
  Lexer lexer("a\n  b", diags);
  const auto tokens = lexer.lexAll();
  EXPECT_EQ(tokens[0].location.line, 1);
  EXPECT_EQ(tokens[0].location.column, 1);
  EXPECT_EQ(tokens[1].location.line, 2);
  EXPECT_EQ(tokens[1].location.column, 3);
}

TEST(LexerTest, InvalidCharacterIsReported) {
  Diagnostics diags;
  Lexer lexer("a @ b", diags);
  lexer.lexAll();
  EXPECT_TRUE(diags.hasErrors());
}

TEST(ParserTest, ParsesFig1Program) {
  const Program program = parseOk(test::kInverseHelmholtz);
  ASSERT_EQ(program.declarations.size(), 6u);
  EXPECT_EQ(program.declarations[0].name, "S");
  EXPECT_EQ(program.declarations[0].kind, VarKind::Input);
  EXPECT_EQ(program.declarations[0].shape,
            (std::vector<std::int64_t>{11, 11}));
  EXPECT_EQ(program.declarations[3].kind, VarKind::Output);
  EXPECT_EQ(program.declarations[4].kind, VarKind::Local);
  ASSERT_EQ(program.assignments.size(), 3u);
  const Expr& first = *program.assignments[0].value;
  EXPECT_EQ(first.kind, ExprKind::Contraction);
  ASSERT_EQ(first.pairs.size(), 3u);
  EXPECT_EQ(first.pairs[0], (IndexPair{1, 6}));
  EXPECT_EQ(first.pairs[2], (IndexPair{5, 8}));
  EXPECT_EQ(first.operands[0]->kind, ExprKind::Product);
  EXPECT_EQ(first.operands[0]->operands.size(), 4u);
}

TEST(ParserTest, PrecedenceEntryWiseVsProduct) {
  // 'D * t' where t is a contraction: '*' binds looser than '#'/'.'.
  const Program program =
      parseOk("var input D : [2 2]\nvar input A : [2 3]\nvar input B : [3 2]\n"
              "var output r : [2 2]\nr = D * A # B . [[1 2]]");
  const Expr& value = *program.assignments[0].value;
  ASSERT_EQ(value.kind, ExprKind::Mul);
  EXPECT_EQ(value.operands[0]->kind, ExprKind::Ident);
  EXPECT_EQ(value.operands[1]->kind, ExprKind::Contraction);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  const Program program =
      parseOk("var input a : [3]\nvar input b : [3]\nvar output c : [3]\n"
              "c = a * (a + b)");
  const Expr& value = *program.assignments[0].value;
  ASSERT_EQ(value.kind, ExprKind::Mul);
  EXPECT_EQ(value.operands[1]->kind, ExprKind::Add);
}

TEST(ParserTest, RoundTripPrinting) {
  const Program program = parseOk(test::kInverseHelmholtz);
  const std::string printed = printProgram(program);
  // Reparse the printed form; must match structurally.
  const Program reparsed = parseOk(printed.c_str());
  EXPECT_EQ(reparsed.declarations.size(), program.declarations.size());
  EXPECT_EQ(reparsed.assignments.size(), program.assignments.size());
  EXPECT_EQ(printProgram(reparsed), printed);
}

TEST(ParserTest, SyntaxErrorsAreRecoverable) {
  Diagnostics diags;
  Parser parser("var x : 3]\nvar input y : [4]\nz = y", diags);
  const Program program = parser.parseProgram();
  EXPECT_TRUE(diags.hasErrors());
  // Recovery still sees the later declaration.
  EXPECT_NE(program.findDecl("y"), nullptr);
}

TEST(ParserTest, NegativeExtentRejected) {
  Diagnostics diags;
  Parser parser("var x : [0]", diags);
  parser.parseProgram();
  EXPECT_TRUE(diags.hasErrors());
}

TEST(ParserTest, ExpressionDepthIsBoundedWhereTheCodecBoundsIt) {
  // Every shape parses with its deepest node at kMaxExprDepth. Two
  // levels deeper (contractions nest in pairs), each is one diagnostic
  // and a skipped statement, not a recursion as deep as the input.
  for (const std::string& source : test::deepExpressionSources(kMaxExprDepth))
    EXPECT_NO_THROW(parseAndCheck(source));
  for (const std::string& source :
       test::deepExpressionSources(kMaxExprDepth + 2)) {
    Diagnostics diags;
    const Program program = Parser(source, diags).parseProgram();
    ASSERT_EQ(diags.errorCount(), 1u) << diags.str();
    EXPECT_EQ(diags.all()[0].message,
              "expression nested deeper than 256 levels");
    EXPECT_TRUE(program.assignments.empty());
  }
}

TEST(SemaTest, AcceptsFig1AndInfersShapes) {
  Program program = parseOk(test::kInverseHelmholtz);
  Diagnostics diags;
  EXPECT_TRUE(analyze(program, diags)) << diags.str();
  EXPECT_EQ(program.assignments[0].value->shape,
            (std::vector<std::int64_t>{11, 11, 11}));
  EXPECT_EQ(program.assignments[1].value->shape,
            (std::vector<std::int64_t>{11, 11, 11}));
}

TEST(SemaTest, UndeclaredVariable) {
  Program program = parseOk("var output y : [3]\ny = x");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  EXPECT_NE(diags.str().find("undeclared"), std::string::npos);
}

TEST(SemaTest, EntryWiseShapeMismatch) {
  Program program = parseOk(
      "var input a : [3]\nvar input b : [4]\nvar output c : [3]\nc = a + b");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  EXPECT_NE(diags.str().find("equal shapes"), std::string::npos);
}

TEST(SemaTest, ScalarBroadcastAllowed) {
  Program program = parseOk(
      "var input a : [3 3]\nvar output c : [3 3]\nc = a * 2 + 1");
  Diagnostics diags;
  EXPECT_TRUE(analyze(program, diags)) << diags.str();
}

TEST(SemaTest, ContractionPairExtentMismatch) {
  Program program = parseOk("var input A : [3 4]\nvar input B : [5 6]\n"
                            "var output C : [3 6]\nC = A # B . [[1 2]]");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  EXPECT_NE(diags.str().find("different extents"), std::string::npos);
}

TEST(SemaTest, ContractionDimOutOfRange) {
  Program program = parseOk("var input A : [3 4]\nvar input B : [4 5]\n"
                            "var output C : [3 5]\nC = A # B . [[1 9]]");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  EXPECT_NE(diags.str().find("out of range"), std::string::npos);
}

TEST(SemaTest, DuplicateContractionDim) {
  Program program = parseOk("var input A : [3 4]\nvar input B : [4 4]\n"
                            "var output C : [3]\nC = A # B . [[1 2] [1 3]]");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  EXPECT_NE(diags.str().find("more than once"), std::string::npos);
}

TEST(SemaTest, InputAssignmentRejected) {
  Program program =
      parseOk("var input a : [3]\nvar output b : [3]\na = b\nb = a");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  EXPECT_NE(diags.str().find("must not be assigned"), std::string::npos);
}

TEST(SemaTest, DoubleAssignmentRejected) {
  Program program = parseOk(
      "var input a : [3]\nvar output b : [3]\nb = a\nb = a");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  EXPECT_NE(diags.str().find("single-assignment"), std::string::npos);
}

TEST(SemaTest, UseBeforeDefinition) {
  Program program = parseOk(
      "var input a : [3]\nvar output b : [3]\nvar t : [3]\nb = t\nt = a");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  EXPECT_NE(diags.str().find("before it is defined"), std::string::npos);
}

TEST(SemaTest, UnassignedOutputRejected) {
  Program program = parseOk("var input a : [3]\nvar output b : [3]");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  EXPECT_NE(diags.str().find("never assigned"), std::string::npos);
}

TEST(SemaTest, AssignmentShapeMismatch) {
  Program program = parseOk("var input A : [3 4]\nvar input B : [4 5]\n"
                            "var output C : [9 9]\nC = A # B . [[1 2]]");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  EXPECT_NE(diags.str().find("shape mismatch"), std::string::npos);
}

TEST(SemaTest, ShapeBoundIsInclusive) {
  Program atBound = parseOk("var input a : [16384 16384]\n"
                            "var output b : [16384 16384]\nb = a");
  Diagnostics diags;
  EXPECT_TRUE(analyze(atBound, diags)) << diags.str();

  Program overBound = parseOk("var input a : [16384 16385]\n"
                              "var output b : [16384 16385]\nb = a");
  EXPECT_FALSE(analyze(overBound, diags));
  EXPECT_NE(diags.str().find("'a': shape [16384 16385] exceeds the bound "
                             "of 268,435,456 elements per tensor"),
            std::string::npos)
      << diags.str();
}

TEST(SemaTest, ShapeBoundCoversFormedProducts) {
  // The product under the contraction (2^58 elements) is never formed
  // whole, but its factor a # b (2^30) is.
  Program program = parseOk("var input a : [16384 2]\n"
                            "var input b : [16384 2]\n"
                            "var input c : [16384 16384]\n"
                            "var output v : [2 2]\n"
                            "v = (a # b) # c . [[0 4] [2 5]]");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  EXPECT_EQ(diags.errorCount(), 1u) << diags.str();
  EXPECT_NE(diags.str().find("shape [16384 2 16384 2] exceeds the bound"),
            std::string::npos)
      << diags.str();
}

// kMaxDims (support/Format.h) bounds the rank of every declared or
// formed shape; the product under a contraction is never formed, so it
// may exceed it.
TEST(SemaTest, RankBoundIsInclusive) {
  Program atBound = parseOk("var input a : [2 2 2 2 2 2 2 2]\n"
                            "var output b : [2 2 2 2 2 2 2 2]\nb = a");
  Diagnostics accepted;
  EXPECT_TRUE(analyze(atBound, accepted)) << accepted.str();

  Program overBound = parseOk("var input a : [2 2 2 2 2 2 2 2 2]\n"
                              "var output b : [2 2 2 2 2 2 2 2 2]\nb = a");
  Diagnostics rejected;
  EXPECT_FALSE(analyze(overBound, rejected));
  EXPECT_EQ(rejected.errorCount(), 2u) << rejected.str();
  EXPECT_NE(rejected.str().find("'a': shape [2 2 2 2 2 2 2 2 2] exceeds the "
                                "bound of 8 dimensions per tensor"),
            std::string::npos)
      << rejected.str();

  // The factor a # b is formed at rank 9; the rank-10 product under the
  // contraction is not.
  Program formed = parseOk("var input a : [2 2 2 2 2]\n"
                           "var input b : [2 2 2 2]\n"
                           "var input c : [2]\n"
                           "var output v : [2 2 2 2 2 2 2 2]\n"
                           "v = (a # b) # c . [[8 9]]");
  Diagnostics formedDiags;
  EXPECT_FALSE(analyze(formed, formedDiags));
  EXPECT_EQ(formedDiags.errorCount(), 1u) << formedDiags.str();
  EXPECT_NE(formedDiags.str().find("shape [2 2 2 2 2 2 2 2 2] exceeds the "
                                   "bound of 8 dimensions"),
            std::string::npos)
      << formedDiags.str();

  // Helmholtz contracts a rank-9 product.
  Program helmholtz = parseOk(test::kInverseHelmholtz);
  Diagnostics helmholtzDiags;
  EXPECT_TRUE(analyze(helmholtz, helmholtzDiags)) << helmholtzDiags.str();
}

TEST(SemaTest, ParseAndCheckThrowsOnBadInput) {
  EXPECT_THROW(parseAndCheck("var output z : [3]\nz = q"), FlowError);
  EXPECT_NO_THROW(parseAndCheck(test::kInverseHelmholtz));
}

} // namespace
} // namespace cfd::dsl
