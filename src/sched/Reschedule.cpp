#include "sched/Reschedule.h"

#include "support/Error.h"
#include "support/Hash.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

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

/// Sum of |stride| of every access along each dimension of the
/// statement's inner domain. Permuting the loops only permutes the
/// loop-to-domain map that refreshAccesses composes into each access, so
/// under any loop order the stride cost at loop position p is entry
/// `loops[p].domainDim` of this vector.
std::vector<std::int64_t> domainStrideCosts(const Schedule& schedule,
                                            const ScheduledStatement& stmt) {
  std::vector<std::int64_t> costs(stmt.loops.size(), 0);
  const auto addCosts = [&](const ir::Access& access) {
    const poly::AffineMap flat =
        schedule.layouts.layoutOf(access.tensor).map.compose(access.map);
    for (std::size_t pos = 0; pos < stmt.loops.size(); ++pos) {
      const std::int64_t stride =
          flat.result(0).coefficient(static_cast<int>(pos));
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
std::int64_t permutationCost(const std::vector<std::int64_t>& strideCosts,
                             const std::vector<LoopDim>& order,
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
    std::vector<std::set<int>> rawPreds(n);
    std::map<ir::TensorId, int> writer;
    for (std::size_t i = 0; i < n; ++i)
      writer[schedule.statements[i].write.tensor] = static_cast<int>(i);
    for (std::size_t i = 0; i < n; ++i)
      for (const auto& read : schedule.statements[i].reads)
        if (const auto it = writer.find(read.tensor); it != writer.end())
          if (it->second != static_cast<int>(i))
            rawPreds[i].insert(it->second);

    std::vector<int> remainingUses; // per tensor id
    remainingUses.assign(program.tensors().size(), 0);
    for (const auto& stmt : schedule.statements)
      for (const auto& read : stmt.reads)
        ++remainingUses[static_cast<std::size_t>(read.tensor)];

    std::vector<bool> done(n, false);
    std::vector<ScheduledStatement> newOrder;
    newOrder.reserve(n);
    for (std::size_t step = 0; step < n; ++step) {
      int best = -1;
      std::int64_t bestScore = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (done[i])
          continue;
        bool ready = true;
        for (int pred : rawPreds[i])
          if (!done[static_cast<std::size_t>(pred)])
            ready = false;
        if (!ready)
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
      const std::vector<std::int64_t> strideCosts =
          domainStrideCosts(schedule, stmt);
      std::vector<LoopDim> best = stmt.loops;
      std::int64_t bestCost =
          permutationCost(strideCosts, stmt.loops, options.objective);
      std::vector<LoopDim> candidate = stmt.loops;
      std::sort(candidate.begin(), candidate.end(),
                [](const LoopDim& a, const LoopDim& b) {
                  return a.domainDim < b.domainDim;
                });
      do {
        const std::int64_t cost =
            permutationCost(strideCosts, candidate, options.objective);
        if (cost < bestCost) {
          bestCost = cost;
          best = candidate;
        }
      } while (std::next_permutation(
          candidate.begin(), candidate.end(),
          [](const LoopDim& a, const LoopDim& b) {
            return a.domainDim < b.domainDim;
          }));
      const bool changed = !std::equal(
          best.begin(), best.end(), stmt.loops.begin(),
          [](const LoopDim& a, const LoopDim& b) {
            return a.domainDim == b.domainDim;
          });
      if (changed) {
        stmt.loops = std::move(best);
        refreshAccesses(program, stmt);
        ++stats.loopNestsPermuted;
      }
    }
  }
  return stats;
}

} // namespace cfd::sched
