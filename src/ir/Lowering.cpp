#include "ir/Lowering.h"

#include "support/Error.h"
#include "support/Format.h"
#include "support/Hash.h"

#include <algorithm>
#include <optional>

namespace cfd::ir {

std::uint64_t LoweringOptions::fingerprint() const {
  Fnv1aHasher h;
  h.mix(std::string_view("ir::LoweringOptions"));
  h.mix(factorization);
  return h.value();
}

namespace {

class Lowerer {
public:
  Lowerer(const dsl::Program& ast, const LoweringOptions& options)
      : ast_(ast), options_(options) {}

  Program run() {
    for (const auto& decl : ast_.declarations) {
      TensorKind kind = TensorKind::Local;
      if (decl.kind == dsl::VarKind::Input)
        kind = TensorKind::Input;
      else if (decl.kind == dsl::VarKind::Output)
        kind = TensorKind::Output;
      program_.addTensor(decl.name, kind, TensorType{decl.shape});
    }
    for (const auto& assignment : ast_.assignments) {
      const Tensor* target = program_.findTensor(assignment.target);
      CFD_ASSERT(target != nullptr, "sema must have resolved targets");
      lowerExpr(*assignment.value, target->id);
    }
    program_.verify();
    return std::move(program_);
  }

private:
  /// A product factor together with the global product dimensions it owns.
  struct Factor {
    TensorId id;
    std::vector<int> globalDims;
  };

  /// Lowers `expr`; the result is written to `dest` if provided, else to a
  /// fresh transient. Returns the tensor holding the value.
  TensorId lowerExpr(const dsl::Expr& expr, std::optional<TensorId> dest) {
    switch (expr.kind) {
    case dsl::ExprKind::Ident: {
      const Tensor* source = program_.findTensor(expr.name);
      CFD_ASSERT(source != nullptr, "sema must have resolved identifiers");
      if (!dest)
        return source->id;
      Operation copy;
      copy.kind = OpKind::Copy;
      copy.target = *dest;
      copy.lhs = source->id;
      program_.addOperation(std::move(copy));
      return *dest;
    }
    case dsl::ExprKind::Number: {
      const TensorId target =
          dest ? *dest : program_.addTransient(TensorType{expr.shape});
      Operation fill;
      fill.kind = OpKind::Fill;
      fill.target = target;
      fill.scalar = expr.value;
      program_.addOperation(std::move(fill));
      return target;
    }
    case dsl::ExprKind::Add:
    case dsl::ExprKind::Sub:
    case dsl::ExprKind::Mul:
    case dsl::ExprKind::Div: {
      const TensorId lhs = lowerExpr(*expr.operands[0], std::nullopt);
      const TensorId rhs = lowerExpr(*expr.operands[1], std::nullopt);
      const TensorId target =
          dest ? *dest : program_.addTransient(TensorType{expr.shape});
      Operation op;
      op.kind = OpKind::EntryWise;
      op.target = target;
      op.lhs = lhs;
      op.rhs = rhs;
      switch (expr.kind) {
      case dsl::ExprKind::Add:
        op.entryWise = EntryWiseKind::Add;
        break;
      case dsl::ExprKind::Sub:
        op.entryWise = EntryWiseKind::Sub;
        break;
      case dsl::ExprKind::Mul:
        op.entryWise = EntryWiseKind::Mul;
        break;
      default:
        op.entryWise = EntryWiseKind::Div;
        break;
      }
      // A rank-0 operand broadcasts; EntryWise domains are the target
      // space, so put the full-rank operand on the lhs when possible.
      if (program_.tensor(op.lhs).type.rank() == 0 &&
          program_.tensor(op.rhs).type.rank() != 0 &&
          (op.entryWise == EntryWiseKind::Add ||
           op.entryWise == EntryWiseKind::Mul))
        std::swap(op.lhs, op.rhs);
      program_.addOperation(std::move(op));
      return target;
    }
    case dsl::ExprKind::Product:
      return lowerContraction(expr, {}, dest);
    case dsl::ExprKind::Contraction: {
      const dsl::Expr& operand = *expr.operands[0];
      if (operand.kind != dsl::ExprKind::Product)
        throw FlowError("contraction of a single factor (trace) is not "
                        "supported by the hardware flow");
      return lowerContraction(operand, expr.pairs, dest);
    }
    }
    CFD_UNREACHABLE("bad expression kind");
  }

  /// Lowers `product . pairs` into a chain of binary contractions.
  TensorId lowerContraction(const dsl::Expr& product,
                            const std::vector<dsl::IndexPair>& pairs,
                            std::optional<TensorId> dest) {
    // Materialize factors and assign global dimension numbers 0..R-1 over
    // the concatenated product space.
    std::vector<Factor> factors;
    int nextDim = 0;
    for (const auto& operandExpr : product.operands) {
      Factor factor;
      factor.id = lowerExpr(*operandExpr, std::nullopt);
      const int rank = program_.tensor(factor.id).type.rank();
      for (int d = 0; d < rank; ++d)
        factor.globalDims.push_back(nextDim++);
      factors.push_back(std::move(factor));
    }

    // Reject traces: both ends of a pair inside one factor.
    for (const auto& pair : pairs)
      for (const auto& factor : factors) {
        const bool hasFirst = owns(factor, pair.first);
        const bool hasSecond = owns(factor, pair.second);
        if (hasFirst && hasSecond)
          throw FlowError("contraction pairs within a single factor "
                          "(traces) are not supported");
      }

    if (options_.factorization == FactorizationOrder::LeftToRight)
      std::reverse(factors.begin(), factors.end());

    std::vector<std::pair<int, int>> remaining;
    for (const auto& pair : pairs)
      remaining.emplace_back(pair.first, pair.second);

    Factor acc = std::move(factors.back());
    factors.pop_back();
    while (!factors.empty()) {
      Factor factor = std::move(factors.back());
      factors.pop_back();
      const bool last = factors.empty();
      acc = contractOnce(std::move(factor), std::move(acc), remaining,
                         last ? dest : std::nullopt);
    }
    CFD_ASSERT(remaining.empty(), "unresolved contraction pairs");
    if (product.operands.size() == 1) {
      // Single-factor product: nothing to fold; honor dest via a copy.
      if (dest)
        return lowerExpr(*product.operands[0], dest);
      return acc.id;
    }
    return acc.id;
  }

  static bool owns(const Factor& factor, int globalDim) {
    return std::find(factor.globalDims.begin(), factor.globalDims.end(),
                     globalDim) != factor.globalDims.end();
  }

  static int localDim(const Factor& factor, int globalDim) {
    const auto it = std::find(factor.globalDims.begin(),
                              factor.globalDims.end(), globalDim);
    CFD_ASSERT(it != factor.globalDims.end(), "global dim not in factor");
    return static_cast<int>(it - factor.globalDims.begin());
  }

  /// Contracts `lhs` with `acc` over all remaining pairs that connect
  /// them (an outer product when none do). Consumed pairs are removed
  /// from `remaining`.
  Factor contractOnce(Factor lhs, Factor acc,
                      std::vector<std::pair<int, int>>& remaining,
                      std::optional<TensorId> dest) {
    Operation op;
    op.kind = OpKind::Contract;
    op.lhs = lhs.id;
    op.rhs = acc.id;

    std::vector<int> lhsReduced, accReduced;
    for (auto it = remaining.begin(); it != remaining.end();) {
      auto [a, b] = *it;
      // Normalize so `a` belongs to lhs and `b` to acc.
      if (owns(acc, a) && owns(lhs, b))
        std::swap(a, b);
      if (owns(lhs, a) && owns(acc, b)) {
        op.pairs.emplace_back(localDim(lhs, a), localDim(acc, b));
        lhsReduced.push_back(a);
        accReduced.push_back(b);
        it = remaining.erase(it);
      } else {
        ++it;
      }
    }

    // Result global dims: free(lhs) then free(acc).
    std::vector<int> resultDims;
    for (int g : lhs.globalDims)
      if (std::find(lhsReduced.begin(), lhsReduced.end(), g) ==
          lhsReduced.end())
        resultDims.push_back(g);
    for (int g : acc.globalDims)
      if (std::find(accReduced.begin(), accReduced.end(), g) ==
          accReduced.end())
        resultDims.push_back(g);

    // Every statement's loop nest must fit kMaxDims (support/Format.h).
    // Sema bounds the ranks of the tensors, not the domain that pairing
    // two of them forms: free dims of both plus one loop per pair.
    const std::size_t loops = resultDims.size() + op.pairs.size();
    if (loops > static_cast<std::size_t>(kMaxDims))
      throw FlowError("contraction " + program_.tensor(lhs.id).name + " # " +
                      program_.tensor(acc.id).name + ": domain of " +
                      std::to_string(loops) + " loops exceeds the bound of " +
                      std::to_string(kMaxDims) + " loops per statement");

    // Shape of the result in resultDims order.
    std::vector<std::int64_t> resultShape;
    for (int g : resultDims) {
      const Factor& owner = owns(lhs, g) ? lhs : acc;
      const auto& shape = program_.tensor(owner.id).type.shape;
      resultShape.push_back(
          shape[static_cast<std::size_t>(localDim(owner, g))]);
    }

    if (dest) {
      // The final statement writes the declared target; its dimension
      // order is the ascending global free dims, so permute the write.
      std::vector<int> sorted = resultDims;
      std::sort(sorted.begin(), sorted.end());
      op.resultPerm.resize(sorted.size());
      bool identity = true;
      for (std::size_t j = 0; j < sorted.size(); ++j) {
        const auto it = std::find(resultDims.begin(), resultDims.end(),
                                  sorted[j]);
        op.resultPerm[j] = static_cast<int>(it - resultDims.begin());
        if (op.resultPerm[j] != static_cast<int>(j))
          identity = false;
      }
      if (identity)
        op.resultPerm.clear();
      op.target = *dest;
      program_.addOperation(std::move(op));
      Factor result;
      result.id = *dest;
      result.globalDims = std::move(sorted);
      return result;
    }

    // Sema bounds the factors and the contraction's result, not the
    // intermediates that this factor order forms between them.
    if (!isBoundedShape(resultShape))
      throw FlowError("contraction intermediate: " +
                      shapeBoundMessage(resultShape));
    op.target = program_.addTransient(TensorType{resultShape});
    Factor result;
    result.id = op.target;
    result.globalDims = std::move(resultDims);
    program_.addOperation(std::move(op));
    return result;
  }

  const dsl::Program& ast_;
  LoweringOptions options_;
  Program program_;
};

} // namespace

Program lower(const dsl::Program& ast, const LoweringOptions& options) {
  return Lowerer(ast, options).run();
}

} // namespace cfd::ir
