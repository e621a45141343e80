#include "dsl/Parser.h"

#include "dsl/Sema.h"
#include "support/Error.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <sstream>

namespace cfd::dsl {

const TypeDecl* Program::findType(std::string_view name) const {
  for (const auto& type : types)
    if (type.name == name)
      return &type;
  return nullptr;
}

Parser::Parser(std::string_view source, Diagnostics& diagnostics)
    : diagnostics_(diagnostics) {
  Lexer lexer(source, diagnostics);
  tokens_ = lexer.lexAll();
}

const Token& Parser::current() const { return tokens_[index_]; }

const Token& Parser::peekNext() const {
  const std::size_t next = index_ + 1;
  return next < tokens_.size() ? tokens_[next] : tokens_.back();
}

const Token& Parser::consume() {
  const Token& token = current();
  if (!token.is(TokenKind::EndOfFile))
    ++index_;
  return token;
}

bool Parser::match(TokenKind kind) {
  if (!current().is(kind))
    return false;
  consume();
  return true;
}

const Token& Parser::expect(TokenKind kind, const char* context) {
  if (current().is(kind))
    return consume();
  std::ostringstream os;
  os << "expected " << tokenKindName(kind) << " " << context << ", found "
     << current().str();
  diagnostics_.error(current().location, os.str());
  return current();
}

void Parser::outOfRange(const Token& literal) {
  diagnostics_.error(literal.location,
                     std::string(tokenKindName(literal.kind)) + " '" +
                         literal.str() + "' is out of range");
}

std::optional<std::int64_t> Parser::integerValue(const Token& literal,
                                                 std::int64_t max) {
  std::int64_t value = 0;
  const char* end = literal.text.data() + literal.text.size();
  if (std::from_chars(literal.text.data(), end, value).ec == std::errc() &&
      value <= max)
    return value;
  outOfRange(literal);
  return std::nullopt;
}

int Parser::pairIndex(const Token& token) {
  if (!token.is(TokenKind::IntegerLiteral))
    return 0;
  return static_cast<int>(
      integerValue(token, std::numeric_limits<int>::max()).value_or(0));
}

double Parser::numberValue(const Token& literal) {
  if (literal.is(TokenKind::IntegerLiteral))
    return static_cast<double>(
        integerValue(literal, std::numeric_limits<std::int64_t>::max())
            .value_or(0));
  // strtod reads a NUL-terminated copy: the view ends inside the source.
  const double value = std::strtod(literal.str().c_str(), nullptr);
  if (std::isfinite(value))
    return value;
  outOfRange(literal);
  return 0.0;
}

void Parser::synchronize() {
  // Skip to the next plausible statement start: 'var' or IDENT '='.
  while (!current().is(TokenKind::EndOfFile)) {
    if (current().is(TokenKind::KwVar))
      return;
    if (current().is(TokenKind::Identifier) &&
        peekNext().is(TokenKind::Equal))
      return;
    consume();
  }
}

Program Parser::parseProgram() {
  Program program;
  while (!current().is(TokenKind::EndOfFile)) {
    const std::size_t before = index_;
    if (current().is(TokenKind::KwType)) {
      parseTypeDecl(program);
    } else if (current().is(TokenKind::KwVar)) {
      parseVarDecl(program);
    } else if (current().is(TokenKind::Identifier)) {
      parseAssignment(program);
    } else {
      diagnostics_.error(current().location,
                         "expected declaration or assignment, found " +
                             current().str());
      synchronize();
    }
    if (index_ == before) {
      // Defensive: guarantee progress even on malformed input.
      consume();
      synchronize();
    }
  }
  return program;
}

void Parser::parseTypeDecl(Program& program) {
  TypeDecl decl;
  decl.location = current().location;
  expect(TokenKind::KwType, "to start a type declaration");
  decl.name = expect(TokenKind::Identifier, "as the type name").text;
  if (program.findType(decl.name) != nullptr)
    diagnostics_.error(decl.location,
                       "duplicate type declaration of '" + decl.name + "'");
  expect(TokenKind::Colon, "before the type shape");
  decl.shape = parseShape();
  program.types.push_back(std::move(decl));
}

void Parser::parseVarDecl(Program& program) {
  VarDecl decl;
  decl.location = current().location;
  expect(TokenKind::KwVar, "to start a declaration");
  if (match(TokenKind::KwInput))
    decl.kind = VarKind::Input;
  else if (match(TokenKind::KwOutput))
    decl.kind = VarKind::Output;
  else
    decl.kind = VarKind::Local;
  decl.name = expect(TokenKind::Identifier, "as the variable name").text;
  expect(TokenKind::Colon, "before the variable type");
  decl.shape = parseShapeOrTypeName(program);
  program.declarations.push_back(std::move(decl));
}

std::vector<std::int64_t>
Parser::parseShapeOrTypeName(const Program& program) {
  if (current().is(TokenKind::Identifier)) {
    const Token& name = consume();
    if (const TypeDecl* type = program.findType(name.text))
      return type->shape;
    diagnostics_.error(name.location, "unknown type '" + name.str() + "'");
    return {};
  }
  return parseShape();
}

std::vector<std::int64_t> Parser::parseShape() {
  std::vector<std::int64_t> shape;
  expect(TokenKind::LBracket, "to start a shape");
  while (current().is(TokenKind::IntegerLiteral)) {
    const Token& dim = consume();
    const std::optional<std::int64_t> extent =
        integerValue(dim, std::numeric_limits<std::int64_t>::max());
    if (!extent)
      continue;
    if (*extent <= 0)
      diagnostics_.error(dim.location, "tensor extents must be positive");
    shape.push_back(*extent);
  }
  expect(TokenKind::RBracket, "to close a shape");
  return shape;
}

void Parser::parseAssignment(Program& program) {
  Assignment assignment;
  assignment.location = current().location;
  assignment.target =
      expect(TokenKind::Identifier, "as the assignment target").text;
  expect(TokenKind::Equal, "in an assignment");
  try {
    assignment.value = parseExpr().expr;
  } catch (const TooDeep&) {
    nesting_ = 0;
    factors_.clear();
    synchronize();
    return;
  }
  program.assignments.push_back(std::move(assignment));
}

Parser::Parsed Parser::binary(ExprKind kind, SourceLocation location,
                              Parsed lhs, Parsed rhs) {
  auto node = std::make_unique<Expr>();
  node->kind = kind;
  node->location = location;
  node->operands.reserve(2);
  node->operands.push_back(std::move(lhs.expr));
  node->operands.push_back(std::move(rhs.expr));
  return {std::move(node),
          checkHeight(1 + std::max(lhs.height, rhs.height), location)};
}

int Parser::checkHeight(int height, SourceLocation location) {
  if (height > kMaxExprDepth)
    tooDeep(location);
  return height;
}

void Parser::tooDeep(SourceLocation location) {
  diagnostics_.error(location, "expression nested deeper than " +
                                   std::to_string(kMaxExprDepth) +
                                   " levels");
  throw TooDeep{};
}

Parser::Parsed Parser::parseExpr() {
  Parsed lhs = parseTerm();
  while (current().is(TokenKind::Plus) || current().is(TokenKind::Minus)) {
    const Token& op = consume();
    Parsed rhs = parseTerm();
    lhs = binary(op.is(TokenKind::Plus) ? ExprKind::Add : ExprKind::Sub,
                 op.location, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Parser::Parsed Parser::parseTerm() {
  Parsed lhs = parseFactor();
  while (current().is(TokenKind::Star) || current().is(TokenKind::Slash)) {
    const Token& op = consume();
    Parsed rhs = parseFactor();
    lhs = binary(op.is(TokenKind::Star) ? ExprKind::Mul : ExprKind::Div,
                 op.location, std::move(lhs), std::move(rhs));
  }
  return lhs;
}

Parser::Parsed Parser::parseFactor() {
  Parsed product = parseProduct();
  if (!current().is(TokenKind::Dot))
    return product;
  const Token& dot = consume();
  auto node = std::make_unique<Expr>();
  node->kind = ExprKind::Contraction;
  node->location = dot.location;
  node->operands.push_back(std::move(product.expr));
  node->pairs = parsePairList();
  return {std::move(node), checkHeight(product.height + 1, dot.location)};
}

Parser::Parsed Parser::parseProduct() {
  Parsed first = parsePrimary();
  if (!current().is(TokenKind::Hash))
    return first;
  auto node = std::make_unique<Expr>();
  node->kind = ExprKind::Product;
  node->location = current().location;
  int height = first.height;
  const std::size_t base = factors_.size();
  factors_.push_back(std::move(first.expr));
  while (match(TokenKind::Hash)) {
    Parsed factor = parsePrimary();
    height = std::max(height, factor.height);
    factors_.push_back(std::move(factor.expr));
  }
  node->operands.assign(
      std::make_move_iterator(factors_.begin() +
                              static_cast<std::ptrdiff_t>(base)),
      std::make_move_iterator(factors_.end()));
  factors_.resize(base);
  const SourceLocation location = node->location;
  return {std::move(node), checkHeight(height + 1, location)};
}

Parser::Parsed Parser::parsePrimary() {
  auto node = std::make_unique<Expr>();
  node->location = current().location;
  if ((current().is(TokenKind::Minus) || current().is(TokenKind::LParen)) &&
      nesting_ >= kMaxExprDepth)
    tooDeep(current().location);
  if (current().is(TokenKind::Minus)) {
    // Unary minus desugars to (0 - expr).
    consume();
    auto zero = std::make_unique<Expr>();
    zero->kind = ExprKind::Number;
    zero->value = 0.0;
    zero->location = node->location;
    node->kind = ExprKind::Sub;
    node->operands.push_back(std::move(zero));
    ++nesting_;
    Parsed operand = parsePrimary();
    --nesting_;
    node->operands.push_back(std::move(operand.expr));
    const SourceLocation location = node->location;
    return {std::move(node), checkHeight(operand.height + 1, location)};
  }
  if (current().is(TokenKind::Identifier)) {
    node->kind = ExprKind::Ident;
    node->name = consume().text;
    return {std::move(node)};
  }
  if (current().is(TokenKind::IntegerLiteral) ||
      current().is(TokenKind::FloatLiteral)) {
    node->kind = ExprKind::Number;
    node->value = numberValue(consume());
    return {std::move(node)};
  }
  if (match(TokenKind::LParen)) {
    ++nesting_;
    Parsed inner = parseExpr();
    --nesting_;
    expect(TokenKind::RParen, "to close a parenthesized expression");
    return inner;
  }
  diagnostics_.error(current().location,
                     "expected an expression, found " + current().str());
  consume();
  node->kind = ExprKind::Number;
  node->value = 0.0;
  return {std::move(node)};
}

std::vector<IndexPair> Parser::parsePairList() {
  pairs_.clear();
  expect(TokenKind::LBracket, "to start a contraction pair list");
  while (current().is(TokenKind::LBracket)) {
    consume();
    IndexPair pair;
    pair.first = pairIndex(expect(TokenKind::IntegerLiteral,
                                  "as the first contracted dimension"));
    pair.second = pairIndex(expect(TokenKind::IntegerLiteral,
                                   "as the second contracted dimension"));
    pairs_.push_back(pair);
    expect(TokenKind::RBracket, "to close a contraction pair");
  }
  expect(TokenKind::RBracket, "to close the contraction pair list");
  if (pairs_.empty())
    diagnostics_.error(current().location,
                       "contraction requires at least one index pair");
  return pairs_;
}

Program parseAndCheck(std::string_view source) {
  Diagnostics diagnostics;
  Parser parser(source, diagnostics);
  Program program = parser.parseProgram();
  diagnostics.throwIfErrors("parsing");
  analyze(program, diagnostics);
  diagnostics.throwIfErrors("semantic analysis");
  // Success: keep the warnings/notes on the artifact (errors threw).
  for (Diagnostic diagnostic : diagnostics.all()) {
    if (diagnostic.stage.empty())
      diagnostic.stage = "parse";
    program.frontendWarnings.add(std::move(diagnostic));
  }
  return program;
}

std::string printExpr(const Expr& expr) {
  std::ostringstream os;
  switch (expr.kind) {
  case ExprKind::Ident:
    os << expr.name;
    break;
  case ExprKind::Number:
    os << expr.value;
    break;
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
  case ExprKind::Div: {
    const char* op = expr.kind == ExprKind::Add   ? " + "
                     : expr.kind == ExprKind::Sub ? " - "
                     : expr.kind == ExprKind::Mul ? " * "
                                                  : " / ";
    os << "(" << printExpr(*expr.operands[0]) << op
       << printExpr(*expr.operands[1]) << ")";
    break;
  }
  case ExprKind::Product: {
    for (std::size_t i = 0; i < expr.operands.size(); ++i) {
      if (i != 0)
        os << " # ";
      os << printExpr(*expr.operands[i]);
    }
    break;
  }
  case ExprKind::Contraction: {
    os << printExpr(*expr.operands[0]) << " . [";
    for (const auto& pair : expr.pairs)
      os << "[" << pair.first << " " << pair.second << "]";
    os << "]";
    break;
  }
  }
  return os.str();
}

std::string printProgram(const Program& program) {
  std::ostringstream os;
  for (const auto& decl : program.declarations) {
    os << "var ";
    if (decl.kind == VarKind::Input)
      os << "input ";
    else if (decl.kind == VarKind::Output)
      os << "output ";
    os << decl.name << " : [";
    for (std::size_t i = 0; i < decl.shape.size(); ++i) {
      if (i != 0)
        os << " ";
      os << decl.shape[i];
    }
    os << "]\n";
  }
  for (const auto& assignment : program.assignments)
    os << assignment.target << " = " << printExpr(*assignment.value) << "\n";
  return os.str();
}

} // namespace cfd::dsl
