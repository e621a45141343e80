// Abstract syntax tree for CFDlang programs.
//
// The AST mirrors the surface syntax; shapes and name resolution are
// attached by semantic analysis (Sema.h). Lowering into the tensor IR
// happens in ir/Lowering.h.
#pragma once

#include "support/Diagnostics.h"
#include "support/SourceLocation.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace cfd::dsl {

/// Kind of a declared tensor variable.
enum class VarKind {
  Input,  // written by the host before kernel execution
  Output, // read back by the host after kernel execution
  Local,  // named temporary (e.g. t and r in the paper's Fig. 1)
};

/// `var [input|output] name : [e0 e1 ...]`
struct VarDecl {
  VarKind kind = VarKind::Local;
  std::string name;
  std::vector<std::int64_t> shape;
  SourceLocation location;
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

enum class ExprKind {
  Ident,       // tensor reference
  Number,      // scalar literal
  Add,         // entry-wise +
  Sub,         // entry-wise -
  Mul,         // entry-wise * (Hadamard)
  Div,         // entry-wise /
  Product,     // n-ary tensor (outer) product, '#'
  Contraction, // product '.' [[a b] ...]
};

/// A single reduced dimension pair of a contraction: dimensions `first`
/// and `second` of the operand product are contracted against each other.
struct IndexPair {
  int first = 0;
  int second = 0;

  friend bool operator==(const IndexPair&, const IndexPair&) = default;
};

struct Expr {
  ExprKind kind = ExprKind::Ident;
  SourceLocation location;

  // Ident
  std::string name;
  // Number
  double value = 0.0;
  // Add/Sub/Mul/Div: operands[0], operands[1]; Product: all factors;
  // Contraction: operands[0] is the contracted expression.
  std::vector<ExprPtr> operands;
  // Contraction only.
  std::vector<IndexPair> pairs;

  // Filled in by semantic analysis: the shape of this expression's value.
  std::vector<std::int64_t> shape;
};

/// The deepest node an assignment's expression may have: its root is
/// at depth 0 and each operand one level deeper. The parser refuses a
/// deeper expression, and parentheses or unary minuses nested deeper,
/// with a parse diagnostic; the artifact codec refuses a deeper one on
/// decode. Every recursive walk of an AST stays this shallow.
inline constexpr int kMaxExprDepth = 256;

/// `lhs = expr`
struct Assignment {
  std::string target;
  ExprPtr value;
  SourceLocation location;
};

/// `type name : [e0 e1 ...]` — a named shape alias (CFDlang supports
/// declaring tensor types once and reusing them across variables).
struct TypeDecl {
  std::string name;
  std::vector<std::int64_t> shape;
  SourceLocation location;
};

/// A whole CFDlang translation unit.
struct Program {
  std::vector<TypeDecl> types;
  std::vector<VarDecl> declarations;
  std::vector<Assignment> assignments;
  /// Non-error diagnostics the frontend produced while checking this
  /// program (e.g. "input X is never used"), stage-attributed to
  /// "parse". Part of the artifact, so cached compiles carry the same
  /// warnings as cold ones; Session::compile surfaces them on success.
  DiagnosticList frontendWarnings;

  const VarDecl* findDecl(const std::string& name) const;
  const TypeDecl* findType(const std::string& name) const;
};

/// Pretty-prints the AST in (round-trippable) CFDlang syntax.
std::string printProgram(const Program& program);
std::string printExpr(const Expr& expr);

} // namespace cfd::dsl
