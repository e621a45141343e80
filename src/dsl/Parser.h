// Recursive-descent parser for CFDlang.
//
// Grammar (see Lexer.h for token syntax):
//
//   program     := (typeDecl | varDecl | assignment)*
//   typeDecl    := 'type' IDENT ':' shape
//   varDecl     := 'var' ('input' | 'output')? IDENT ':' (shape | IDENT)
//   shape       := '[' INT* ']'
//   assignment  := IDENT '=' expr
//   expr        := term (('+' | '-') term)*
//   term        := factor (('*' | '/') factor)*
//   factor      := product ('.' pairList)?
//   product     := primary ('#' primary)*
//   primary     := IDENT | NUMBER | '(' expr ')'
//   pairList    := '[' ('[' INT INT ']')+ ']'
//
// Contraction binds tighter than entry-wise operators, so
// `D * S # S # S # u . [[..]]` parses as D ∘ contraction(product).
// An expression nests at most kMaxExprDepth (AST.h) levels deep.
//
// A literal's value must fit where it is used: an integer in an int64,
// a contracted dimension in an int, a float in a finite double. One
// that does not is a parse error naming the literal as written.
#pragma once

#include "dsl/AST.h"
#include "dsl/Lexer.h"

#include <optional>

namespace cfd::dsl {

class Parser {
public:
  /// Lexes `source`, which the parser's tokens view: it must outlive
  /// the parser.
  Parser(std::string_view source, Diagnostics& diagnostics);

  /// Parses a whole translation unit. On syntax errors, diagnostics are
  /// recorded and a best-effort partial program is returned.
  Program parseProgram();

private:
  const Token& current() const;
  const Token& peekNext() const;
  const Token& consume();
  bool match(TokenKind kind);
  const Token& expect(TokenKind kind, const char* context);
  void synchronize();

  /// Reports number literal `literal` out of range for its use.
  void outOfRange(const Token& literal);
  /// The value of integer literal `literal` if it is at most `max`;
  /// otherwise reports the literal out of range.
  std::optional<std::int64_t> integerValue(const Token& literal,
                                           std::int64_t max);
  /// A contracted dimension: 0 unless `token` is an integer literal
  /// within an int (expect() or integerValue() reported the others).
  int pairIndex(const Token& token);
  /// The value of a number literal, or 0 after reporting it out of
  /// range.
  double numberValue(const Token& literal);

  /// A parsed subexpression and the depth of its deepest node below
  /// its root (0 for a leaf).
  struct Parsed {
    ExprPtr expr;
    int height = 0;
  };
  /// Thrown once an assignment nests deeper than kMaxExprDepth and its
  /// diagnostic is recorded; parseAssignment skips the statement.
  struct TooDeep {};

  void parseTypeDecl(Program& program);
  void parseVarDecl(Program& program);
  void parseAssignment(Program& program);
  std::vector<std::int64_t> parseShape();
  std::vector<std::int64_t> parseShapeOrTypeName(const Program& program);
  Parsed parseExpr();
  Parsed parseTerm();
  Parsed parseFactor();
  Parsed parseProduct();
  Parsed parsePrimary();
  std::vector<IndexPair> parsePairList();
  /// A binary entry-wise node over `lhs` and `rhs`.
  Parsed binary(ExprKind kind, SourceLocation location, Parsed lhs,
                Parsed rhs);
  /// `height` if it is within kMaxExprDepth; else throws TooDeep.
  int checkHeight(int height, SourceLocation location);
  [[noreturn]] void tooDeep(SourceLocation location);

  std::vector<Token> tokens_;
  std::size_t index_ = 0;
  /// Factors of the products being parsed, innermost last: each product
  /// moves its own into an operand vector of the final size.
  std::vector<ExprPtr> factors_;
  /// The pairs of the contraction being parsed.
  std::vector<IndexPair> pairs_;
  /// Parentheses and unary minuses open around the current token: the
  /// parser recurses once for each.
  int nesting_ = 0;
  Diagnostics& diagnostics_;
};

/// Convenience wrapper: lex + parse + sema in one call; throws FlowError
/// on any error. The returned program owns all its strings.
Program parseAndCheck(std::string_view source);

} // namespace cfd::dsl
