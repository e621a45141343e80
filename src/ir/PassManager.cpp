#include "ir/PassManager.h"

#include "ir/Transforms.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Hash.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <sstream>

namespace cfd::ir {

namespace {

bool readsRhs(const Operation& op) {
  return op.kind == OpKind::Contract || op.kind == OpKind::EntryWise;
}

bool readsLhs(const Operation& op) { return op.kind != OpKind::Fill; }

Operation makeFill(TensorId target, double scalar) {
  Operation op;
  op.kind = OpKind::Fill;
  op.target = target;
  op.scalar = scalar;
  return op;
}

Operation makeCopy(TensorId target, TensorId source, std::vector<int> perm) {
  Operation op;
  op.kind = OpKind::Copy;
  op.target = target;
  op.lhs = source;
  op.perm = std::move(perm);
  return op;
}

bool isIdentityPerm(const std::vector<int>& perm) {
  for (std::size_t i = 0; i < perm.size(); ++i)
    if (perm[i] != static_cast<int>(i))
      return false;
  return true;
}

// ---- cse ----------------------------------------------------------------

/// Operand order of an entry-wise op as CSE compares it: commutative
/// operands are sorted, so x+y and y+x share a value number without
/// rewriting either op.
std::pair<TensorId, TensorId> entryWiseOperands(const Operation& op) {
  if ((op.entryWise == EntryWiseKind::Add ||
       op.entryWise == EntryWiseKind::Mul) &&
      op.lhs > op.rhs)
    return {op.rhs, op.lhs};
  return {op.lhs, op.rhs};
}

/// Hash of the fields sameValue() compares.
std::uint64_t valueHash(const Program& program, const Operation& op) {
  std::uint64_t hash = 0;
  const auto mix = [&](std::uint64_t value) {
    hash = (hash ^ value) * 0x9e3779b97f4a7c15ull;
    hash ^= hash >> 29;
  };
  mix(static_cast<std::uint64_t>(op.kind));
  switch (op.kind) {
  case OpKind::Contract:
    mix(static_cast<std::uint64_t>(op.lhs));
    mix(static_cast<std::uint64_t>(op.rhs));
    for (const auto& [a, b] : op.pairs)
      mix(static_cast<std::uint64_t>(a) << 32 | static_cast<std::uint32_t>(b));
    for (int v : op.resultPerm)
      mix(static_cast<std::uint64_t>(v));
    break;
  case OpKind::EntryWise: {
    const auto [a, b] = entryWiseOperands(op);
    mix(static_cast<std::uint64_t>(op.entryWise));
    mix(static_cast<std::uint64_t>(a));
    mix(static_cast<std::uint64_t>(b));
    break;
  }
  case OpKind::Copy:
    mix(static_cast<std::uint64_t>(op.lhs));
    for (int v : op.perm)
      mix(static_cast<std::uint64_t>(v));
    break;
  case OpKind::Fill:
    mix(std::bit_cast<std::uint64_t>(op.scalar));
    break;
  }
  for (std::int64_t extent : program.tensor(op.target).type.shape)
    mix(static_cast<std::uint64_t>(extent));
  return hash;
}

/// Structural equivalence of two operations: equal fields imply equal
/// values (and, because the target shape is compared, interchangeable
/// storage). Operand ids are compared after value-numbering rewrites,
/// so structurally equal chains collapse front to back in one walk. A
/// fill compares its scalar's bits, so 0.0 and -0.0 stay apart.
bool sameValue(const Program& program, const Operation& a,
               const Operation& b) {
  if (a.kind != b.kind)
    return false;
  switch (a.kind) {
  case OpKind::Contract:
    if (a.lhs != b.lhs || a.rhs != b.rhs || a.pairs != b.pairs ||
        a.resultPerm != b.resultPerm)
      return false;
    break;
  case OpKind::EntryWise:
    if (a.entryWise != b.entryWise ||
        entryWiseOperands(a) != entryWiseOperands(b))
      return false;
    break;
  case OpKind::Copy:
    if (a.lhs != b.lhs || a.perm != b.perm)
      return false;
    break;
  case OpKind::Fill:
    if (std::bit_cast<std::uint64_t>(a.scalar) !=
        std::bit_cast<std::uint64_t>(b.scalar))
      return false;
    break;
  }
  return program.tensor(a.target).type.shape ==
         program.tensor(b.target).type.shape;
}

int runCse(Program& program) {
  auto& ops = program.operations();
  // Value table: open-addressed slots of op indices (at most half
  // full). Every indexed op precedes the cursor, and erasing the
  // cursor's op moves only later ones, so the indices stay valid.
  std::vector<int> slots(std::bit_ceil(2 * ops.size() + 1), -1);
  const std::size_t mask = slots.size() - 1;
  std::vector<TensorId> replaceWith(program.tensors().size(), -1);
  int rewrites = 0;
  for (std::size_t i = 0; i < ops.size();) {
    Operation& op = ops[i];
    if (readsLhs(op) && op.lhs >= 0 && replaceWith[op.lhs] != -1)
      op.lhs = replaceWith[op.lhs];
    if (readsRhs(op) && op.rhs >= 0 && replaceWith[op.rhs] != -1)
      op.rhs = replaceWith[op.rhs];
    std::size_t slot = valueHash(program, op) & mask;
    while (slots[slot] != -1 &&
           !sameValue(program, ops[static_cast<std::size_t>(slots[slot])], op))
      slot = (slot + 1) & mask;
    if (slots[slot] == -1) {
      slots[slot] = static_cast<int>(i);
      ++i;
      continue;
    }
    const TensorId representative =
        ops[static_cast<std::size_t>(slots[slot])].target;
    if (program.tensor(op.target).kind == TensorKind::Transient) {
      // A duplicate transient needs no storage of its own: later reads
      // go to the representative and the definition disappears.
      replaceWith[op.target] = representative;
      ops.erase(ops.begin() + static_cast<std::ptrdiff_t>(i));
      ++rewrites;
      continue;
    }
    // Interface and user-named targets keep their definition but take
    // the value through a plain copy of the representative.
    if (!(op.kind == OpKind::Copy && op.perm.empty() &&
          op.lhs == representative)) {
      op = makeCopy(op.target, representative, {});
      ++rewrites;
    }
    ++i;
  }
  return rewrites;
}

// ---- fold ---------------------------------------------------------------

/// target[j..] = source[perm[j]..]; empty perm = identity.
struct CopyDef {
  TensorId source = -1;
  std::vector<int> perm;
};

std::vector<int> composePerms(const std::vector<int>& inner,
                              const std::vector<int>& outer, int rank) {
  // outer target dim j reads inner dim outer[j]; inner dim i reads the
  // original source dim inner[i].
  std::vector<int> composed(static_cast<std::size_t>(rank));
  for (int j = 0; j < rank; ++j) {
    const int innerDim = outer.empty() ? j : outer[static_cast<std::size_t>(j)];
    composed[static_cast<std::size_t>(j)] =
        inner.empty() ? innerDim : inner[static_cast<std::size_t>(innerDim)];
  }
  if (isIdentityPerm(composed))
    composed.clear();
  return composed;
}

double foldEntryWise(EntryWiseKind kind, double lhs, double rhs) {
  switch (kind) {
  case EntryWiseKind::Add:
    return lhs + rhs;
  case EntryWiseKind::Sub:
    return lhs - rhs;
  case EntryWiseKind::Mul:
    return lhs * rhs;
  case EntryWiseKind::Div:
    return lhs / rhs;
  }
  CFD_UNREACHABLE("entry-wise kind");
}

int runFold(Program& program) {
  auto& ops = program.operations();
  std::vector<std::optional<double>> fillOf(program.tensors().size());
  std::vector<std::optional<CopyDef>> copyOf(program.tensors().size());
  int rewrites = 0;
  const auto sameType = [&](TensorId a, TensorId b) {
    return program.tensor(a).type == program.tensor(b).type;
  };
  for (Operation& op : ops) {
    switch (op.kind) {
    case OpKind::Fill:
      fillOf[op.target] = op.scalar;
      break;
    case OpKind::Copy: {
      if (fillOf[op.lhs]) {
        // A (possibly permuted) copy of a constant is that constant.
        op = makeFill(op.target, *fillOf[op.lhs]);
        fillOf[op.target] = op.scalar;
        break;
      }
      if (copyOf[op.lhs]) {
        // Double-copy collapse: copy(copy(x, p1), p2) = copy(x, p1.p2).
        op.perm = composePerms(copyOf[op.lhs]->perm, op.perm,
                               program.tensor(op.target).type.rank());
        op.lhs = copyOf[op.lhs]->source;
        ++rewrites;
      }
      copyOf[op.target] = CopyDef{op.lhs, op.perm};
      break;
    }
    case OpKind::EntryWise: {
      const std::optional<double> lhsFill = fillOf[op.lhs];
      const std::optional<double> rhsFill = fillOf[op.rhs];
      if (lhsFill && rhsFill) {
        // Only a finite result folds: C99 has no literal for Inf or
        // NaN, so the emitted kernel computes those at run time.
        const double folded =
            foldEntryWise(op.entryWise, *lhsFill, *rhsFill);
        if (std::isfinite(folded)) {
          op = makeFill(op.target, folded);
          fillOf[op.target] = op.scalar;
          ++rewrites;
        }
        break;
      }
      const auto rewriteToCopy = [&](TensorId source) {
        op = makeCopy(op.target, source, {});
        copyOf[op.target] = CopyDef{source, {}};
        ++rewrites;
      };
      const auto rewriteToZero = [&] {
        op = makeFill(op.target, 0.0);
        fillOf[op.target] = 0.0;
        ++rewrites;
      };
      if (rhsFill) {
        const double c = *rhsFill;
        const bool shapesMatch = sameType(op.lhs, op.target);
        if (c == 0.0 && shapesMatch &&
            (op.entryWise == EntryWiseKind::Add ||
             op.entryWise == EntryWiseKind::Sub))
          rewriteToCopy(op.lhs); // x + 0, x - 0
        else if (c == 1.0 && shapesMatch &&
                 (op.entryWise == EntryWiseKind::Mul ||
                  op.entryWise == EntryWiseKind::Div))
          rewriteToCopy(op.lhs); // x * 1, x / 1
        else if (c == 0.0 && op.entryWise == EntryWiseKind::Mul)
          rewriteToZero(); // x * 0
      } else if (lhsFill) {
        const double c = *lhsFill;
        const bool shapesMatch = sameType(op.rhs, op.target);
        if (c == 0.0 && shapesMatch && op.entryWise == EntryWiseKind::Add)
          rewriteToCopy(op.rhs); // 0 + x
        else if (c == 1.0 && shapesMatch &&
                 op.entryWise == EntryWiseKind::Mul)
          rewriteToCopy(op.rhs); // 1 * x
        else if (c == 0.0 && op.entryWise == EntryWiseKind::Mul)
          rewriteToZero(); // 0 * x
      }
      break;
    }
    case OpKind::Contract:
      break;
    }
  }
  return rewrites;
}

// ---- fuse ---------------------------------------------------------------

/// Replaces one contraction operand `t` (a permuted copy of `source`)
/// by `source` itself, remapping the contracted pairs and the result
/// permutation so the op computes the same value.
void fuseCopyIntoContract(const Program& program, Operation& op, bool lhsSide,
                          const CopyDef& def) {
  const TensorId operand = lhsSide ? op.lhs : op.rhs;
  const int rank = program.tensor(operand).type.rank();
  std::vector<int> perm = def.perm;
  if (perm.empty()) {
    perm.resize(static_cast<std::size_t>(rank));
    std::iota(perm.begin(), perm.end(), 0);
  }

  // Free (uncontracted) dims of the operand, in the ascending order the
  // contraction enumerates them.
  std::vector<bool> contracted(static_cast<std::size_t>(rank), false);
  for (const auto& [l, r] : op.pairs)
    contracted[static_cast<std::size_t>(lhsSide ? l : r)] = true;
  std::vector<int> freeDims;
  for (int d = 0; d < rank; ++d)
    if (!contracted[static_cast<std::size_t>(d)])
      freeDims.push_back(d);

  const int lhsRank = program.tensor(op.lhs).type.rank();
  const int lhsFree = lhsRank - static_cast<int>(op.pairs.size());
  const int rhsRank = program.tensor(op.rhs).type.rank();
  const int rhsFree = rhsRank - static_cast<int>(op.pairs.size());
  const int totalFree = lhsFree + rhsFree;

  // Operand dim d becomes source dim perm[d].
  for (auto& [l, r] : op.pairs) {
    int& dim = lhsSide ? l : r;
    dim = perm[static_cast<std::size_t>(dim)];
  }

  // Free position q of the operand lands at the rank of perm[freeDims[q]]
  // among the source's free dims (the contraction re-sorts them).
  std::vector<int> mapped;
  for (int d : freeDims)
    mapped.push_back(perm[static_cast<std::size_t>(d)]);
  std::vector<int> order(mapped.size());
  for (std::size_t q = 0; q < mapped.size(); ++q)
    order[q] = static_cast<int>(
        std::count_if(mapped.begin(), mapped.end(),
                      [&](int dim) { return dim < mapped[q]; }));

  std::vector<int> effective = op.resultPerm;
  if (effective.empty()) {
    effective.resize(static_cast<std::size_t>(totalFree));
    std::iota(effective.begin(), effective.end(), 0);
  }
  for (int& position : effective) {
    if (lhsSide && position < lhsFree)
      position = order[static_cast<std::size_t>(position)];
    else if (!lhsSide && position >= lhsFree)
      position = lhsFree + order[static_cast<std::size_t>(position - lhsFree)];
  }
  if (isIdentityPerm(effective))
    effective.clear();
  op.resultPerm = std::move(effective);

  (lhsSide ? op.lhs : op.rhs) = def.source;
}

int runFuse(Program& program) {
  auto& ops = program.operations();
  const auto sameType = [&](TensorId a, TensorId b) {
    return program.tensor(a).type == program.tensor(b).type;
  };
  std::vector<std::optional<CopyDef>> copyOf(program.tensors().size());
  const auto identityCopyOf = [&](TensorId id) -> std::optional<TensorId> {
    if (copyOf[id] && isIdentityPerm(copyOf[id]->perm) &&
        sameType(copyOf[id]->source, id))
      return copyOf[id]->source;
    return std::nullopt;
  };
  int rewrites = 0;

  // Forward: consumers read through copies directly. Entry-wise ops
  // (identity access maps) can only absorb identity copies; a
  // contraction absorbs any permutation by remapping its pairs and
  // result permutation. The bypassed copy dies in dce once unread.
  for (Operation& op : ops) {
    switch (op.kind) {
    case OpKind::Copy:
      copyOf[op.target] = CopyDef{op.lhs, op.perm};
      break;
    case OpKind::EntryWise:
      if (const auto source = identityCopyOf(op.lhs)) {
        op.lhs = *source;
        ++rewrites;
      }
      if (const auto source = identityCopyOf(op.rhs)) {
        op.rhs = *source;
        ++rewrites;
      }
      break;
    case OpKind::Contract:
      if (copyOf[op.lhs]) {
        fuseCopyIntoContract(program, op, /*lhsSide=*/true, *copyOf[op.lhs]);
        ++rewrites;
      }
      if (copyOf[op.rhs]) {
        fuseCopyIntoContract(program, op, /*lhsSide=*/false, *copyOf[op.rhs]);
        ++rewrites;
      }
      break;
    case OpKind::Fill:
      break;
    }
  }

  // Backward: `out = copy(t)` (identity) of a single-use transient
  // retargets t's definition to write `out` directly — the generalized,
  // non-adjacent form of canonicalize's retargeting. Reads of `out`
  // before the copy would have been reads before its definition, so
  // moving the write up to t's definition point is always legal.
  std::vector<int> refs(program.tensors().size(), 0);
  std::vector<int> defIndex(program.tensors().size(), -1);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Operation& op = ops[i];
    ++refs[op.target];
    defIndex[op.target] = static_cast<int>(i);
    if (readsLhs(op) && op.lhs >= 0)
      ++refs[op.lhs];
    if (readsRhs(op) && op.rhs >= 0)
      ++refs[op.rhs];
  }
  std::vector<bool> dead(ops.size(), false);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    Operation& op = ops[i];
    if (op.kind != OpKind::Copy || !isIdentityPerm(op.perm) ||
        !sameType(op.lhs, op.target))
      continue;
    const TensorId t = op.lhs;
    if (program.tensor(t).kind != TensorKind::Transient || refs[t] != 2 ||
        defIndex[t] < 0 || dead[static_cast<std::size_t>(defIndex[t])])
      continue;
    Operation& def = ops[static_cast<std::size_t>(defIndex[t])];
    def.target = op.target;
    defIndex[op.target] = defIndex[t];
    refs[t] = 0;
    dead[i] = true;
    ++rewrites;
  }
  if (std::find(dead.begin(), dead.end(), true) != dead.end()) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (dead[i])
        continue;
      if (keep != i)
        ops[keep] = std::move(ops[i]);
      ++keep;
    }
    ops.resize(keep);
  }
  if (rewrites > 0)
    program.dropUnusedTensors();
  return rewrites;
}

// ---- dce ----------------------------------------------------------------

int runDce(Program& program) {
  auto& ops = program.operations();
  std::vector<bool> needed(program.tensors().size(), false);
  std::vector<bool> live(ops.size(), false);
  for (std::size_t i = ops.size(); i-- > 0;) {
    const Operation& op = ops[i];
    const bool isLive =
        program.tensor(op.target).kind == TensorKind::Output ||
        needed[op.target];
    live[i] = isLive;
    if (!isLive)
      continue;
    if (readsLhs(op) && op.lhs >= 0)
      needed[op.lhs] = true;
    if (readsRhs(op) && op.rhs >= 0)
      needed[op.rhs] = true;
  }
  int removed = 0;
  std::size_t keep = 0;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (!live[i]) {
      ++removed;
      continue;
    }
    if (keep != i)
      ops[keep] = std::move(ops[i]);
    ++keep;
  }
  ops.resize(keep);
  if (removed > 0)
    program.dropUnusedTensors();
  return removed;
}

int runCanonicalize(Program& program) {
  const CanonicalizeStats stats = canonicalize(program);
  return stats.copiesForwarded + stats.copiesRetargeted;
}

} // namespace

std::uint64_t OptimizeOptions::fingerprint() const {
  Fnv1aHasher h;
  h.mix(std::string_view("ir::OptimizeOptions"));
  h.mix(level);
  h.mix(cse);
  h.mix(fold);
  h.mix(dce);
  h.mix(fuse);
  h.mix(maxIterations);
  return h.value();
}

void normalizeOptimizeOptions(OptimizeOptions& options) {
  options.level = std::clamp(options.level, 0, 2);
  options.maxIterations = std::clamp(options.maxIterations, 1, 16);
  if (options.level < 1) {
    options.cse = false;
    options.fold = false;
    options.dce = false;
  }
  if (options.level < 2)
    options.fuse = false;
}

std::vector<PassResult> OptimizeReport::aggregated() const {
  std::vector<PassResult> totals;
  for (const PassResult& run : passes) {
    const auto it =
        std::find_if(totals.begin(), totals.end(),
                     [&](const PassResult& t) { return t.name == run.name; });
    if (it == totals.end()) {
      totals.push_back(run);
      continue;
    }
    it->opsAfter = run.opsAfter;
    it->rewrites += run.rewrites;
    it->millis += run.millis;
  }
  return totals;
}

std::string OptimizeReport::str() const {
  std::ostringstream os;
  os << "optimize: " << opsBefore << " -> " << opsAfter << " ops in "
     << iterations << " round" << (iterations == 1 ? "" : "s") << "\n";
  for (const PassResult& pass : aggregated())
    os << "  " << padRight(pass.name, 14) << pass.rewrites << " rewrites  "
       << pass.opsBefore << " -> " << pass.opsAfter << " ops  "
       << formatFixed(pass.millis, 3) << " ms\n";
  return os.str();
}

int runPass(Program& program, std::string_view name) {
  if (name == "canonicalize")
    return runCanonicalize(program);
  if (name == "cse")
    return runCse(program);
  if (name == "fold")
    return runFold(program);
  if (name == "fuse")
    return runFuse(program);
  if (name == "dce")
    return runDce(program);
  CFD_UNREACHABLE("unknown optimizer pass '" + std::string(name) + "'");
}

std::vector<std::string> enabledPasses(OptimizeOptions options) {
  normalizeOptimizeOptions(options);
  std::vector<std::string> names;
  names.emplace_back("canonicalize");
  if (options.cse)
    names.emplace_back("cse");
  if (options.fold)
    names.emplace_back("fold");
  if (options.fuse)
    names.emplace_back("fuse");
  if (options.dce)
    names.emplace_back("dce");
  return names;
}

OptimizeReport optimize(Program& program, const OptimizeOptions& options) {
  OptimizeOptions effective = options;
  normalizeOptimizeOptions(effective);
  const std::vector<std::string> names = enabledPasses(effective);

  OptimizeReport report;
  report.opsBefore = static_cast<int>(program.operations().size());
  bool changed = true;
  while (changed && report.iterations < effective.maxIterations) {
    changed = false;
    ++report.iterations;
    for (const std::string& name : names) {
      PassResult run;
      run.name = name;
      run.opsBefore = static_cast<int>(program.operations().size());
      const auto start = std::chrono::steady_clock::now();
      run.rewrites = runPass(program, name);
      run.millis = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
      program.verify();
      run.opsAfter = static_cast<int>(program.operations().size());
      changed = changed || run.rewrites > 0;
      report.passes.push_back(std::move(run));
    }
  }
  program.dropUnusedTensors();
  report.opsAfter = static_cast<int>(program.operations().size());
  return report;
}

} // namespace cfd::ir
