#include "sched/Reschedule.h"

#include "support/Error.h"
#include "support/Hash.h"

#include <algorithm>
#include <array>
#include <span>

namespace cfd::sched {

std::uint64_t RescheduleOptions::fingerprint() const {
  Fnv1aHasher h;
  h.mix(std::string_view("sched::RescheduleOptions"));
  h.mix(objective);
  h.mix(permuteLoops);
  h.mix(reorderStatements);
  return h.value();
}

namespace {

/// Per-domain-dimension costs of one statement (kMaxDims bounds every
/// loop nest).
using DimCosts = std::array<std::int64_t, kMaxDims>;

/// Sum of |stride| of every access along each dimension of the
/// statement's inner domain. Permuting the loops only permutes the
/// loop-to-domain map that refreshAccesses composes into each access, so
/// under any loop order the stride cost at loop position p is entry
/// `loops[p].domainDim` of this array.
DimCosts domainStrideCosts(const Schedule& schedule,
                           const ScheduledStatement& stmt) {
  CFD_ASSERT(stmt.loops.size() <= static_cast<std::size_t>(kMaxDims),
             "loop nest deeper than kMaxDims");
  DimCosts costs{};
  const auto addCosts = [&](const ir::Access& access) {
    const poly::AffineExpr flat = schedule.layouts.flatOffset(access);
    for (std::size_t pos = 0; pos < stmt.loops.size(); ++pos) {
      const std::int64_t stride = flat.coefficient(static_cast<int>(pos));
      costs[static_cast<std::size_t>(stmt.loops[pos].domainDim)] +=
          stride < 0 ? -stride : stride;
    }
  };
  addCosts(stmt.write);
  for (const auto& read : stmt.reads)
    addCosts(read);
  return costs;
}

/// Cost of a candidate loop order under the given objective, from the
/// statement's per-domain-dimension stride costs. Lower is better.
std::int64_t permutationCost(const DimCosts& strideCosts,
                             std::span<const LoopDim> order,
                             ScheduleObjective objective) {
  const auto strideCostAt = [&](int pos) {
    return strideCosts[static_cast<std::size_t>(
        order[static_cast<std::size_t>(pos)].domainDim)];
  };
  const int innermost = static_cast<int>(order.size()) - 1;
  if (innermost < 0)
    return 0;
  std::int64_t cost = 0;
  if (objective == ScheduleObjective::Hardware) {
    // Dominant term: a reduction innermost serializes the accumulator.
    if (order.back().isReduction)
      cost += 1'000'000'000;
    // Secondary: prefer small innermost strides for burst-friendly
    // address sequences.
    cost += strideCostAt(innermost);
  } else {
    // Software: weight the innermost stride highest, then outer loops
    // progressively less (classic locality cost).
    std::int64_t weight = 1'000'000;
    for (int pos = innermost; pos >= 0; --pos) {
      cost += weight * strideCostAt(pos) /
              std::max<std::int64_t>(1, innermost - pos + 1);
      weight /= 64;
      if (weight == 0)
        break;
    }
  }
  return cost;
}

bool byDomainDim(const LoopDim& a, const LoopDim& b) {
  return a.domainDim < b.domainDim;
}

} // namespace

std::int64_t innermostStrideCost(const Schedule& schedule,
                                 const ScheduledStatement& stmt) {
  if (stmt.loops.empty())
    return 0;
  return domainStrideCosts(schedule, stmt)[static_cast<std::size_t>(
      stmt.loops.back().domainDim)];
}

RescheduleStats reschedule(Schedule& schedule,
                           const RescheduleOptions& options) {
  CFD_ASSERT(schedule.program != nullptr, "schedule without program");
  const ir::Program& program = *schedule.program;
  RescheduleStats stats;

  if (options.reorderStatements && schedule.statements.size() > 1) {
    // List scheduling under RAW constraints. Priority: pick the ready
    // statement that closes the most live intervals (its reads are last
    // uses) relative to the storage it newly makes live.
    const std::size_t n = schedule.statements.size();
    const std::size_t numTensors = program.tensors().size();
    // writer[t]: the statement writing tensor t, or -1 (the last one if
    // several do). pendingReads[i]: reads of statement i whose writer is
    // another statement not yet scheduled; i is ready at zero.
    std::vector<int> writer(numTensors, -1);
    for (std::size_t i = 0; i < n; ++i)
      writer[static_cast<std::size_t>(schedule.statements[i].write.tensor)] =
          static_cast<int>(i);
    const auto writerOf = [&](const ir::Access& read) {
      return writer[static_cast<std::size_t>(read.tensor)];
    };
    std::vector<int> pendingReads(n, 0);
    std::vector<int> remainingUses(numTensors, 0); // per tensor id
    for (std::size_t i = 0; i < n; ++i)
      for (const auto& read : schedule.statements[i].reads) {
        const int w = writerOf(read);
        if (w >= 0 && w != static_cast<int>(i))
          ++pendingReads[i];
        ++remainingUses[static_cast<std::size_t>(read.tensor)];
      }

    std::vector<bool> done(n, false);
    std::vector<ScheduledStatement> newOrder;
    newOrder.reserve(n);
    for (std::size_t step = 0; step < n; ++step) {
      int best = -1;
      std::int64_t bestScore = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (done[i] || pendingReads[i] != 0)
          continue;
        // Bytes freed by last uses minus bytes newly made live.
        std::int64_t score = 0;
        for (const auto& read : schedule.statements[i].reads) {
          const auto& tensor = program.tensor(read.tensor);
          if (!tensor.isInterface() &&
              remainingUses[static_cast<std::size_t>(read.tensor)] == 1)
            score += tensor.type.numElements();
        }
        const auto& target =
            program.tensor(schedule.statements[i].write.tensor);
        if (!target.isInterface())
          score -= target.type.numElements();
        if (best < 0 || score > bestScore) {
          best = static_cast<int>(i);
          bestScore = score;
        }
      }
      CFD_ASSERT(best >= 0, "list scheduling found no ready statement");
      done[static_cast<std::size_t>(best)] = true;
      for (const auto& read :
           schedule.statements[static_cast<std::size_t>(best)].reads)
        --remainingUses[static_cast<std::size_t>(read.tensor)];
      for (std::size_t i = 0; i < n; ++i)
        if (!done[i])
          for (const auto& read : schedule.statements[i].reads)
            if (writerOf(read) == best)
              --pendingReads[i];
      if (best != static_cast<int>(step))
        ++stats.statementsMoved;
      newOrder.push_back(
          std::move(schedule.statements[static_cast<std::size_t>(best)]));
    }
    schedule.statements = std::move(newOrder);
  }

  if (options.permuteLoops) {
    for (auto& stmt : schedule.statements) {
      if (stmt.loops.size() < 2)
        continue;
      const DimCosts strideCosts = domainStrideCosts(schedule, stmt);
      const std::size_t depth = stmt.loops.size();
      std::array<LoopDim, kMaxDims> best;
      std::array<LoopDim, kMaxDims> candidate;
      std::copy(stmt.loops.begin(), stmt.loops.end(), best.begin());
      std::copy(stmt.loops.begin(), stmt.loops.end(), candidate.begin());
      const std::span<LoopDim> bestOrder(best.data(), depth);
      const std::span<LoopDim> candidateOrder(candidate.data(), depth);
      std::int64_t bestCost =
          permutationCost(strideCosts, stmt.loops, options.objective);
      std::sort(candidateOrder.begin(), candidateOrder.end(), byDomainDim);
      do {
        const std::int64_t cost =
            permutationCost(strideCosts, candidateOrder, options.objective);
        if (cost < bestCost) {
          bestCost = cost;
          std::copy(candidateOrder.begin(), candidateOrder.end(),
                    bestOrder.begin());
        }
      } while (std::next_permutation(candidateOrder.begin(),
                                     candidateOrder.end(), byDomainDim));
      const bool changed = !std::equal(
          bestOrder.begin(), bestOrder.end(), stmt.loops.begin(),
          [](const LoopDim& a, const LoopDim& b) {
            return a.domainDim == b.domainDim;
          });
      if (changed) {
        stmt.loops.assign(bestOrder.begin(), bestOrder.end());
        refreshAccesses(program, stmt);
        ++stats.loopNestsPermuted;
      }
    }
  }
  return stats;
}

} // namespace cfd::sched
