// Token definitions for the CFDlang lexer.
#pragma once

#include "support/SourceLocation.h"

#include <string>
#include <string_view>

namespace cfd::dsl {

enum class TokenKind {
  // Punctuation and operators.
  LBracket,   // [
  RBracket,   // ]
  LParen,     // (
  RParen,     // )
  Colon,      // :
  Equal,      // =
  Plus,       // +
  Minus,      // -
  Star,       // *  (entry-wise / Hadamard product)
  Slash,      // /  (entry-wise division)
  Hash,       // #  (tensor / outer product)
  Dot,        // .  (contraction specifier)
  // Keywords.
  KwVar,      // var
  KwInput,    // input
  KwOutput,   // output
  KwType,     // type
  // Literals and identifiers.
  Identifier,
  IntegerLiteral,
  FloatLiteral,
  // Sentinels.
  EndOfFile,
  Invalid,
};

const char* tokenKindName(TokenKind kind);

/// One lexed token. `text` views the source the Lexer read, so that
/// source must outlive every token lexed from it; the parser converts a
/// literal's text to its value where it knows the value's range.
struct Token {
  TokenKind kind = TokenKind::Invalid;
  std::string_view text;
  SourceLocation location;

  bool is(TokenKind k) const { return kind == k; }
  std::string str() const;
};

} // namespace cfd::dsl
