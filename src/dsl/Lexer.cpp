#include "dsl/Lexer.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

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
    return text;
  return tokenKindName(kind);
}

Lexer::Lexer(std::string_view source, Diagnostics& diagnostics)
    : source_(source), diagnostics_(diagnostics) {}

char Lexer::peek(int ahead) const {
  const std::size_t index = cursor_ + static_cast<std::size_t>(ahead);
  return index < source_.size() ? source_[index] : '\0';
}

char Lexer::advance() {
  // A NUL byte inside the source is a character like any other: only
  // the end of the source stops the cursor.
  if (atEnd())
    return '\0';
  const char c = source_[cursor_];
  ++cursor_;
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

bool Lexer::atEnd() const { return cursor_ >= source_.size(); }

void Lexer::skipWhitespaceAndComments() {
  while (!atEnd()) {
    const char c = peek();
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      continue;
    }
    if (c == '%' || (c == '/' && peek(1) == '/')) {
      while (!atEnd() && peek() != '\n')
        advance();
      continue;
    }
    break;
  }
}

Token Lexer::makeToken(TokenKind kind, std::string text,
                       SourceLocation location) const {
  Token token;
  token.kind = kind;
  token.text = std::move(text);
  token.location = location;
  return token;
}

Token Lexer::lexNumber(SourceLocation start) {
  std::string text;
  bool isFloat = false;
  while (std::isdigit(static_cast<unsigned char>(peek())))
    text.push_back(advance());
  // A '.' only belongs to the number when followed by a digit; otherwise it
  // is the contraction operator (e.g. "u . [[1 6]]").
  if (peek() == '.' && std::isdigit(static_cast<unsigned char>(peek(1)))) {
    isFloat = true;
    text.push_back(advance());
    while (std::isdigit(static_cast<unsigned char>(peek())))
      text.push_back(advance());
  }
  if (peek() == 'e' || peek() == 'E') {
    const char sign = peek(1);
    const char digit = (sign == '+' || sign == '-') ? peek(2) : sign;
    if (std::isdigit(static_cast<unsigned char>(digit))) {
      isFloat = true;
      text.push_back(advance());
      if (peek() == '+' || peek() == '-')
        text.push_back(advance());
      while (std::isdigit(static_cast<unsigned char>(peek())))
        text.push_back(advance());
    }
  }
  Token token = makeToken(
      isFloat ? TokenKind::FloatLiteral : TokenKind::IntegerLiteral, text,
      start);
  if (isFloat)
    token.floatValue = std::strtod(text.c_str(), nullptr);
  else
    token.intValue = std::strtoll(text.c_str(), nullptr, 10);
  return token;
}

Token Lexer::lexIdentifier(SourceLocation start) {
  std::string text;
  while (std::isalnum(static_cast<unsigned char>(peek())) || peek() == '_')
    text.push_back(advance());
  TokenKind kind = TokenKind::Identifier;
  if (text == "var")
    kind = TokenKind::KwVar;
  else if (text == "input")
    kind = TokenKind::KwInput;
  else if (text == "output")
    kind = TokenKind::KwOutput;
  else if (text == "type")
    kind = TokenKind::KwType;
  return makeToken(kind, std::move(text), start);
}

Token Lexer::lex() {
  skipWhitespaceAndComments();
  const SourceLocation start{line_, column_};
  if (atEnd())
    return makeToken(TokenKind::EndOfFile, "", start);

  const char c = peek();
  if (std::isdigit(static_cast<unsigned char>(c)))
    return lexNumber(start);
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_')
    return lexIdentifier(start);

  advance();
  switch (c) {
  case '[':
    return makeToken(TokenKind::LBracket, "[", start);
  case ']':
    return makeToken(TokenKind::RBracket, "]", start);
  case '(':
    return makeToken(TokenKind::LParen, "(", start);
  case ')':
    return makeToken(TokenKind::RParen, ")", start);
  case ':':
    return makeToken(TokenKind::Colon, ":", start);
  case '=':
    return makeToken(TokenKind::Equal, "=", start);
  case '+':
    return makeToken(TokenKind::Plus, "+", start);
  case '-':
    return makeToken(TokenKind::Minus, "-", start);
  case '*':
    return makeToken(TokenKind::Star, "*", start);
  case '/':
    return makeToken(TokenKind::Slash, "/", start);
  case '#':
    return makeToken(TokenKind::Hash, "#", start);
  case '.':
    return makeToken(TokenKind::Dot, ".", start);
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
    return makeToken(TokenKind::Invalid, std::string(1, c), start);
  }
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> tokens;
  while (true) {
    tokens.push_back(lex());
    if (tokens.back().is(TokenKind::EndOfFile))
      return tokens;
  }
}

} // namespace cfd::dsl
