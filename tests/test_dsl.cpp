#include "core/Session.h"
#include "dsl/Parser.h"
#include "dsl/Sema.h"
#include "support/Error.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <string_view>

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
      EXPECT_TRUE(token.text == "2.5" || token.text == "1e3") << token.text;
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
  ASSERT_FALSE(program.declarations.empty());
  EXPECT_EQ(program.declarations.back().name, "y");
}

TEST(ParserTest, NegativeExtentRejected) {
  Diagnostics diags;
  Parser parser("var x : [0]", diags);
  parser.parseProgram();
  EXPECT_TRUE(diags.hasErrors());
}

// Each literal's range ends at its type's limit: the parser takes the
// limit itself and reports the next value; a float that underflows to
// zero is taken.
TEST(ParserTest, LiteralRangesEndAtTheirTypesLimits) {
  const auto parseErrors = [](const std::string& source) {
    Diagnostics diags;
    Parser(source, diags).parseProgram();
    std::string messages;
    for (const Diagnostic& diagnostic : diags.all())
      messages += diagnostic.message + "\n";
    return messages;
  };
  const std::string pair = "var input S : [3 3]\nvar input u : [3 3]\n"
                           "var output v : [3 3]\nv = S # u . [[1 ";
  EXPECT_EQ(parseErrors(pair + "2147483647]]\n"), "");
  EXPECT_EQ(parseErrors(pair + "2147483648]]\n"),
            "integer literal '2147483648' is out of range\n");
  EXPECT_EQ(parseErrors("var input u : [9223372036854775807]\n"), "");
  EXPECT_EQ(parseErrors("var input u : [9223372036854775808]\n"),
            "integer literal '9223372036854775808' is out of range\n");
  const std::string scalar = "var input u : [3]\nvar output v : [3]\nv = u * ";
  EXPECT_EQ(parseErrors(scalar + "1.7976931348623157e308\n"), "");
  EXPECT_EQ(parseErrors(scalar + "1.8e308\n"),
            "float literal '1.8e308' is out of range\n");
  const Program underflow = parseAndCheck(scalar + "1e-999\n");
  EXPECT_EQ(underflow.assignments[0].value->operands[1]->value, 0.0);
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

// A repeated name is one error; its uses resolve to the first
// declaration, so neither declaration is reported unused.
TEST(SemaTest, DuplicateDeclarationIsOneError) {
  Program program = parseOk(
      "var input x : [3]\nvar input x : [3]\nvar output y : [3]\ny = x");
  Diagnostics diags;
  EXPECT_FALSE(analyze(program, diags));
  ASSERT_EQ(diags.all().size(), 1u) << diags.str();
  EXPECT_EQ(diags.all()[0].message, "duplicate declaration of 'x'");
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

TEST(LexerTest, NulByteIsOneUnexpectedCharacter) {
  // A NUL inside the source (in code or in a comment) once stopped the
  // cursor without ending the input, so lexing never finished.
  using namespace std::string_literals;
  const std::string code =
      "var input u : [2]\nvar output v : [2]\nv = u\0\n"s;
  Diagnostics diags;
  Lexer lexer(code, diags);
  const auto tokens = lexer.lexAll();
  EXPECT_EQ(tokens.back().kind, TokenKind::EndOfFile);
  EXPECT_EQ(diags.errorCount(), 1u);
  EXPECT_NE(diags.str().find("3:6: error: unexpected character '\\x00'"),
            std::string::npos)
      << diags.str();

  const std::string comment =
      "% a\0b\nvar input u : [2]\nvar output v : [2]\nv = u\n"s;
  EXPECT_NO_THROW(parseAndCheck(comment));
}

TEST(SemaTest, ParseAndCheckThrowsOnBadInput) {
  EXPECT_THROW(parseAndCheck("var output z : [3]\nz = q"), FlowError);
  EXPECT_NO_THROW(parseAndCheck(test::kInverseHelmholtz));
}

// ---- Fuzz: seeded mutations of every test kernel ----

/// splitmix64: the same sequence on every platform, which the standard
/// distributions do not promise.
std::uint64_t nextRandom(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One to three edits: a byte flip, a truncation, or an inserted
/// bracket, parenthesis, '#', '.', '=' or digit.
std::string mutate(std::string source, std::uint64_t& state) {
  constexpr std::string_view kInserted = "[]()#.=0123456789";
  const int edits = 1 + static_cast<int>(nextRandom(state) % 3);
  for (int edit = 0; edit < edits && !source.empty(); ++edit) {
    const std::size_t at = nextRandom(state) % source.size();
    switch (nextRandom(state) % 3) {
    case 0:
      source[at] =
          static_cast<char>(source[at] ^ (1 + nextRandom(state) % 255));
      break;
    case 1: source.resize(at); break;
    default:
      source.insert(at, 1, kInserted[nextRandom(state) % kInserted.size()]);
      break;
    }
  }
  return source;
}

TEST(DslParserFuzz, SeededMutationsCompileOrFailWithStableDiagnostics) {
  // Every mutant ends in a result or in diagnostics. A failing one is
  // compiled twice by one Session, and the second answer — rethrown from
  // the stage cache's failure entry, with no stage recomputed — is byte
  // for byte the first one's and a fresh Session's.
  constexpr int kMutantsPerKernel = 64;
  const std::string kernels[] = {
      test::kInverseHelmholtz, test::kInterpolation,
      test::kMatMul2D,         test::kEntryWiseChain,
      test::kRedundantSem,     test::contractionChainSource(2)};
  std::uint64_t state = 26;
  Session session;
  int compiled = 0;
  int failed = 0;
  for (const std::string& kernel : kernels) {
    for (int i = 0; i < kMutantsPerKernel; ++i) {
      const std::string source = mutate(kernel, state);
      SCOPED_TRACE("mutant:\n" + source);
      bool parsed = true;
      try {
        parseAndCheck(source);
      } catch (const FlowError&) {
        parsed = false;
      }
      const auto first = session.compile(CompileRequest(source));
      const std::int64_t misses = session.stats().stageCache.misses;
      const auto second = session.compile(CompileRequest(source));
      EXPECT_EQ(session.stats().stageCache.misses, misses);
      ASSERT_EQ(second.ok(), first.ok());
      if (first.ok()) {
        EXPECT_TRUE(parsed);
        ++compiled;
        continue;
      }
      ++failed;
      EXPECT_TRUE(first.diagnostics().hasErrors());
      Session fresh;
      const auto cold = fresh.compile(CompileRequest(source));
      ASSERT_FALSE(cold.ok());
      EXPECT_EQ(second.errorText(), first.errorText());
      EXPECT_EQ(cold.errorText(), first.errorText());
      EXPECT_EQ(second.diagnostics().toJson().dump(),
                first.diagnostics().toJson().dump());
      EXPECT_EQ(cold.diagnostics().toJson().dump(),
                first.diagnostics().toJson().dump());
    }
  }
  // Both outcomes occur, so the mutations neither all miss the parser
  // nor all break the source.
  EXPECT_GT(compiled, 0);
  EXPECT_GT(failed, 0);
}

} // namespace
} // namespace cfd::dsl
