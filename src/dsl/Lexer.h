// Hand-written lexer for CFDlang.
//
// CFDlang source (paper Fig. 1) consists of variable declarations and
// tensor assignments:
//
//   var input  S : [11 11]
//   var input  u : [11 11 11]
//   var output v : [11 11 11]
//   t = S # S # S # u . [[1 6] [3 7] [5 8]]
//
// Comments run from '//' or '%' to end of line. Tokens view the source
// (Token.h): it must outlive them.
#pragma once

#include "dsl/Token.h"
#include "support/Diagnostics.h"

#include <string_view>
#include <vector>

namespace cfd::dsl {

class Lexer {
public:
  Lexer(std::string_view source, Diagnostics& diagnostics);

  /// Lexes the next token, advancing the cursor.
  Token lex();

  /// Lexes the entire buffer including the trailing EndOfFile token.
  std::vector<Token> lexAll();

private:
  char peek(std::size_t ahead = 0) const;
  bool atEnd() const;
  void skipWhitespaceAndComments();
  /// The token of `kind` spelled from `begin` to the cursor.
  Token makeToken(TokenKind kind, std::size_t begin,
                  SourceLocation location) const;
  Token lexNumber(SourceLocation start);
  Token lexIdentifier(SourceLocation start);

  std::string_view source_;
  Diagnostics& diagnostics_;
  std::size_t cursor_ = 0;
  int line_ = 1;
  /// Offset of the first byte of the cursor's line.
  std::size_t lineStart_ = 0;
};

} // namespace cfd::dsl
