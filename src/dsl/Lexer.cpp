#include "dsl/Lexer.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

namespace cfd::dsl {

const char* tokenKindName(TokenKind kind) {
  switch (kind) {
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::Colon:
    return "':'";
  case TokenKind::Equal:
    return "'='";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Hash:
    return "'#'";
  case TokenKind::Dot:
    return "'.'";
  case TokenKind::KwVar:
    return "'var'";
  case TokenKind::KwInput:
    return "'input'";
  case TokenKind::KwOutput:
    return "'output'";
  case TokenKind::KwType:
    return "'type'";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntegerLiteral:
    return "integer literal";
  case TokenKind::FloatLiteral:
    return "float literal";
  case TokenKind::EndOfFile:
    return "end of file";
  case TokenKind::Invalid:
    return "invalid token";
  }
  return "unknown";
}

std::string Token::str() const {
  if (kind == TokenKind::Identifier || kind == TokenKind::IntegerLiteral ||
      kind == TokenKind::FloatLiteral)
    return std::string(text);
  return tokenKindName(kind);
}

namespace {

// ASCII classes, as <cctype> classifies characters in the "C" locale
// (the library never sets another one), without a call per character.
bool isDigit(char c) { return c >= '0' && c <= '9'; }
bool isAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}
bool isIdentifierChar(char c) { return isAlpha(c) || isDigit(c) || c == '_'; }
bool isSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

} // namespace

Lexer::Lexer(std::string_view source, Diagnostics& diagnostics)
    : source_(source), diagnostics_(diagnostics) {}

char Lexer::peek(std::size_t ahead) const {
  const std::size_t index = cursor_ + ahead;
  return index < source_.size() ? source_[index] : '\0';
}

bool Lexer::atEnd() const { return cursor_ >= source_.size(); }

void Lexer::skipWhitespaceAndComments() {
  // A NUL byte inside the source is a character like any other: only
  // the end of the source stops the cursor.
  while (!atEnd()) {
    const char c = source_[cursor_];
    if (c == '\n') {
      ++line_;
      lineStart_ = ++cursor_;
    } else if (isSpace(c)) {
      ++cursor_;
    } else if (c == '%' || (c == '/' && peek(1) == '/')) {
      cursor_ = std::min(source_.find('\n', cursor_), source_.size());
    } else {
      return;
    }
  }
}

Token Lexer::makeToken(TokenKind kind, std::size_t begin,
                       SourceLocation location) const {
  return Token{kind, source_.substr(begin, cursor_ - begin), location};
}

Token Lexer::lexNumber(SourceLocation start) {
  const std::size_t begin = cursor_;
  const auto skipDigits = [&] {
    while (isDigit(peek()))
      ++cursor_;
  };
  bool isFloat = false;
  skipDigits();
  // A '.' only belongs to the number when followed by a digit; otherwise it
  // is the contraction operator (e.g. "u . [[1 6]]").
  if (peek() == '.' && isDigit(peek(1))) {
    isFloat = true;
    ++cursor_;
    skipDigits();
  }
  if (peek() == 'e' || peek() == 'E') {
    const bool hasSign = peek(1) == '+' || peek(1) == '-';
    if (isDigit(peek(hasSign ? 2 : 1))) {
      isFloat = true;
      cursor_ += hasSign ? 2 : 1;
      skipDigits();
    }
  }
  return makeToken(isFloat ? TokenKind::FloatLiteral
                           : TokenKind::IntegerLiteral,
                   begin, start);
}

Token Lexer::lexIdentifier(SourceLocation start) {
  const std::size_t begin = cursor_;
  while (isIdentifierChar(peek()))
    ++cursor_;
  Token token = makeToken(TokenKind::Identifier, begin, start);
  if (token.text == "var")
    token.kind = TokenKind::KwVar;
  else if (token.text == "input")
    token.kind = TokenKind::KwInput;
  else if (token.text == "output")
    token.kind = TokenKind::KwOutput;
  else if (token.text == "type")
    token.kind = TokenKind::KwType;
  return token;
}

Token Lexer::lex() {
  skipWhitespaceAndComments();
  // Columns count bytes from the start of the line, from 1.
  const SourceLocation start{line_,
                             static_cast<int>(cursor_ - lineStart_) + 1};
  const std::size_t begin = cursor_;
  if (atEnd())
    return makeToken(TokenKind::EndOfFile, begin, start);

  const char c = source_[cursor_];
  if (isDigit(c))
    return lexNumber(start);
  if (isAlpha(c) || c == '_')
    return lexIdentifier(start);

  ++cursor_;
  switch (c) {
  case '[':
    return makeToken(TokenKind::LBracket, begin, start);
  case ']':
    return makeToken(TokenKind::RBracket, begin, start);
  case '(':
    return makeToken(TokenKind::LParen, begin, start);
  case ')':
    return makeToken(TokenKind::RParen, begin, start);
  case ':':
    return makeToken(TokenKind::Colon, begin, start);
  case '=':
    return makeToken(TokenKind::Equal, begin, start);
  case '+':
    return makeToken(TokenKind::Plus, begin, start);
  case '-':
    return makeToken(TokenKind::Minus, begin, start);
  case '*':
    return makeToken(TokenKind::Star, begin, start);
  case '/':
    return makeToken(TokenKind::Slash, begin, start);
  case '#':
    return makeToken(TokenKind::Hash, begin, start);
  case '.':
    return makeToken(TokenKind::Dot, begin, start);
  default: {
    // A control byte (NUL included) is named by its value, so the
    // message stays printable.
    std::string shown(1, c);
    if (std::iscntrl(static_cast<unsigned char>(c))) {
      char hex[8];
      std::snprintf(hex, sizeof hex, "\\x%02x",
                    static_cast<unsigned char>(c));
      shown = hex;
    }
    diagnostics_.error(start, "unexpected character '" + shown + "'");
    return makeToken(TokenKind::Invalid, begin, start);
  }
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> tokens;
  // CFDlang averages more than two source bytes per token.
  tokens.reserve(source_.size() / 2 + 1);
  while (true) {
    tokens.push_back(lex());
    if (tokens.back().is(TokenKind::EndOfFile))
      return tokens;
  }
}

} // namespace cfd::dsl
