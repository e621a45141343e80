#include "ir/Transforms.h"

#include <algorithm>

namespace cfd::ir {

namespace {

void replaceUses(Program& program, TensorId from, TensorId to,
                 std::size_t fromOpIndex) {
  auto& ops = program.operations();
  for (std::size_t i = fromOpIndex; i < ops.size(); ++i) {
    Operation& op = ops[i];
    if (op.lhs == from)
      op.lhs = to;
    if ((op.kind == OpKind::Contract || op.kind == OpKind::EntryWise) &&
        op.rhs == from)
      op.rhs = to;
  }
}

} // namespace

CanonicalizeStats canonicalize(Program& program) {
  CanonicalizeStats stats;
  auto& ops = program.operations();

  // Forward copy propagation.
  for (std::size_t i = 0; i < ops.size();) {
    Operation& op = ops[i];
    const bool identityCopy = op.kind == OpKind::Copy && op.perm.empty();
    const Tensor& target = program.tensor(op.target);
    if (identityCopy && !target.isInterface() &&
        target.kind == TensorKind::Transient) {
      replaceUses(program, op.target, op.lhs, i + 1);
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      ++stats.copiesForwarded;
      continue;
    }
    ++i;
  }

  // Backward retargeting: out = copy(t) with t transient defined by the
  // directly preceding statement and not used elsewhere. "Not used
  // elsewhere" is a reference count of exactly 2 (the definition's
  // write plus this copy's read), tallied once up front instead of
  // rescanning every operation per candidate.
  std::vector<int> refs(program.tensors().size(), 0);
  for (const Operation& op : ops) {
    ++refs[op.target];
    if (op.kind != OpKind::Fill && op.lhs >= 0)
      ++refs[op.lhs];
    if ((op.kind == OpKind::Contract || op.kind == OpKind::EntryWise) &&
        op.rhs >= 0)
      ++refs[op.rhs];
  }
  for (std::size_t i = 1; i < ops.size();) {
    Operation& op = ops[i];
    if (op.kind != OpKind::Copy || !op.perm.empty()) {
      ++i;
      continue;
    }
    const Tensor& source = program.tensor(op.lhs);
    Operation& def = ops[i - 1];
    if (source.kind == TensorKind::Transient && def.target == op.lhs &&
        refs[op.lhs] == 2) {
      // The write of t moves to the copy's target; t itself ends up
      // unreferenced and the copy's target keeps one write.
      def.target = op.target;
      refs[op.lhs] = 0;
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      ++stats.copiesRetargeted;
      continue;
    }
    ++i;
  }

  program.dropUnusedTensors();
  return stats;
}

} // namespace cfd::ir
