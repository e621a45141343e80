#include "dsl/Sema.h"

#include "support/Format.h"

#include <map>
#include <set>
#include <sstream>

namespace cfd::dsl {

namespace {

class SemaVisitor {
public:
  SemaVisitor(Program& program, Diagnostics& diagnostics)
      : program_(program), diagnostics_(diagnostics) {}

  bool run() {
    checkDeclarations();
    for (auto& assignment : program_.assignments)
      checkAssignment(assignment);
    checkAllOutputsDefined();
    warnUnusedVariables();
    return !diagnostics_.hasErrors();
  }

private:
  void checkDeclarations() {
    for (const auto& type : program_.types)
      if (!isBoundedShape(type.shape))
        diagnostics_.error(type.location, "type '" + type.name + "': " +
                                              shapeBoundMessage(type.shape));
    for (const auto& decl : program_.declarations) {
      if (!declared_.emplace(decl.name, &decl).second)
        diagnostics_.error(decl.location,
                           "duplicate declaration of '" + decl.name + "'");
      if (!isBoundedShape(decl.shape))
        diagnostics_.error(decl.location, "'" + decl.name + "': " +
                                              shapeBoundMessage(decl.shape));
    }
  }

  void checkAssignment(Assignment& assignment) {
    const VarDecl* target = program_.findDecl(assignment.target);
    if (target == nullptr) {
      diagnostics_.error(assignment.location, "assignment to undeclared '" +
                                                  assignment.target + "'");
    } else if (target->kind == VarKind::Input) {
      diagnostics_.error(assignment.location,
                         "input '" + assignment.target +
                             "' must not be assigned");
    } else if (!defined_.insert(assignment.target).second) {
      diagnostics_.error(assignment.location,
                         "'" + assignment.target +
                             "' is assigned more than once; CFDlang "
                             "programs are single-assignment");
    }
    if (!inferShape(*assignment.value))
      return;
    if (target != nullptr && assignment.value->shape != target->shape) {
      std::ostringstream os;
      os << "assignment shape mismatch: '" << assignment.target << "' has "
         << formatShape(target->shape) << " but value has "
         << formatShape(assignment.value->shape);
      diagnostics_.error(assignment.location, os.str());
    }
  }

  void checkAllOutputsDefined() {
    bool hasOutput = false;
    for (const auto& decl : program_.declarations) {
      if (decl.kind != VarKind::Output)
        continue;
      hasOutput = true;
      if (!defined_.count(decl.name))
        diagnostics_.error(decl.location,
                           "output '" + decl.name + "' is never assigned");
    }
    if (!hasOutput)
      diagnostics_.error({1, 1}, "program declares no outputs; there is "
                                 "nothing for the accelerator to produce");
  }

  void warnUnusedVariables() {
    // Inputs and locals that nothing reads waste PLM space and host
    // transfer bandwidth — worth a warning, not an error.
    for (const auto& decl : program_.declarations) {
      if (decl.kind == VarKind::Output || used_.count(decl.name))
        continue;
      diagnostics_.warning(decl.location,
                           std::string(decl.kind == VarKind::Input
                                           ? "input '"
                                           : "local '") +
                               decl.name + "' is never used");
    }
  }

  /// Infers and records expr.shape. Returns false if an error makes the
  /// shape unusable. Each shape is bounded where it first appears: at
  /// its declaration, or at the product or contraction that forms it.
  /// The product under a contraction is never formed whole (lowering
  /// contracts it factor by factor), so only its factors are bounded.
  bool inferShape(Expr& expr, bool formed = true) {
    switch (expr.kind) {
    case ExprKind::Ident:
      return inferIdent(expr);
    case ExprKind::Number:
      expr.shape.clear(); // scalars are rank-0
      return true;
    case ExprKind::Add:
    case ExprKind::Sub:
    case ExprKind::Mul:
    case ExprKind::Div:
      return inferEntryWise(expr);
    case ExprKind::Product:
      return inferProduct(expr) && (!formed || checkBound(expr));
    case ExprKind::Contraction:
      return inferContraction(expr) && checkBound(expr);
    }
    return false;
  }

  bool checkBound(const Expr& expr) {
    if (isBoundedShape(expr.shape))
      return true;
    diagnostics_.error(expr.location, shapeBoundMessage(expr.shape));
    return false;
  }

  bool inferIdent(Expr& expr) {
    const auto it = declared_.find(expr.name);
    if (it == declared_.end()) {
      diagnostics_.error(expr.location,
                         "use of undeclared variable '" + expr.name + "'");
      return false;
    }
    used_.insert(expr.name);
    const VarDecl& decl = *it->second;
    if (decl.kind != VarKind::Input && !defined_.count(expr.name))
      diagnostics_.error(expr.location, "variable '" + expr.name +
                                            "' is used before it is defined");
    expr.shape = decl.shape;
    return true;
  }

  bool inferEntryWise(Expr& expr) {
    bool ok = inferShape(*expr.operands[0]);
    ok = inferShape(*expr.operands[1]) && ok;
    if (!ok)
      return false;
    const auto& lhs = expr.operands[0]->shape;
    const auto& rhs = expr.operands[1]->shape;
    // Scalars broadcast against any shape.
    if (lhs.empty()) {
      expr.shape = rhs;
      return true;
    }
    if (rhs.empty()) {
      expr.shape = lhs;
      return true;
    }
    if (lhs != rhs) {
      std::ostringstream os;
      os << "entry-wise operator requires equal shapes, got "
         << formatShape(lhs) << " and " << formatShape(rhs);
      diagnostics_.error(expr.location, os.str());
      return false;
    }
    expr.shape = lhs;
    return true;
  }

  bool inferProduct(Expr& expr) {
    expr.shape.clear();
    bool ok = true;
    for (auto& operand : expr.operands) {
      if (!inferShape(*operand)) {
        ok = false;
        continue;
      }
      expr.shape.insert(expr.shape.end(), operand->shape.begin(),
                        operand->shape.end());
    }
    return ok;
  }

  bool inferContraction(Expr& expr) {
    if (!inferShape(*expr.operands[0], /*formed=*/false))
      return false;
    const auto& operandShape = expr.operands[0]->shape;
    const int rank = static_cast<int>(operandShape.size());
    std::set<int> reduced;
    bool ok = true;
    for (const auto& pair : expr.pairs) {
      for (int dim : {pair.first, pair.second}) {
        if (dim < 0 || dim >= rank) {
          std::ostringstream os;
          os << "contracted dimension " << dim << " is out of range for a "
             << "rank-" << rank << " product";
          diagnostics_.error(expr.location, os.str());
          ok = false;
          continue;
        }
        if (!reduced.insert(dim).second) {
          diagnostics_.error(expr.location,
                             "dimension " + std::to_string(dim) +
                                 " is contracted more than once");
          ok = false;
        }
      }
      if (pair.first >= 0 && pair.first < rank && pair.second >= 0 &&
          pair.second < rank &&
          operandShape[static_cast<std::size_t>(pair.first)] !=
              operandShape[static_cast<std::size_t>(pair.second)]) {
        std::ostringstream os;
        os << "contracted dimensions " << pair.first << " and " << pair.second
           << " have different extents ("
           << operandShape[static_cast<std::size_t>(pair.first)] << " vs "
           << operandShape[static_cast<std::size_t>(pair.second)] << ")";
        diagnostics_.error(expr.location, os.str());
        ok = false;
      }
    }
    if (!ok)
      return false;
    expr.shape.clear();
    for (int dim = 0; dim < rank; ++dim)
      if (!reduced.count(dim))
        expr.shape.push_back(operandShape[static_cast<std::size_t>(dim)]);
    return true;
  }

  Program& program_;
  Diagnostics& diagnostics_;
  std::map<std::string, const VarDecl*> declared_;
  std::set<std::string> defined_;
  std::set<std::string> used_;
};

} // namespace

bool analyze(Program& program, Diagnostics& diagnostics) {
  return SemaVisitor(program, diagnostics).run();
}

} // namespace cfd::dsl
