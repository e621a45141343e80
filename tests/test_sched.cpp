#include "dsl/Parser.h"
#include "ir/Lowering.h"
#include "sched/Reschedule.h"
#include "sched/Schedule.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace cfd::sched {
namespace {

// The Schedule keeps a pointer to its Program, so both live behind one
// stable heap allocation.
struct Compiled {
  std::unique_ptr<ir::Program> program;
  Schedule schedule;
};

Compiled compile(const char* source, LayoutOptions layoutOptions = {}) {
  Compiled result;
  result.program =
      std::make_unique<ir::Program>(ir::lower(dsl::parseAndCheck(source)));
  result.schedule = buildReferenceSchedule(*result.program, layoutOptions);
  return result;
}

TEST(ReferenceScheduleTest, StatementPerOperation) {
  const Compiled c = compile(test::kInverseHelmholtz);
  EXPECT_EQ(c.schedule.statements.size(), c.program->operations().size());
  // Reference order: reductions innermost.
  for (const auto& stmt : c.schedule.statements) {
    for (std::size_t p = 1; p < stmt.loops.size(); ++p)
      if (stmt.loops[p - 1].isReduction)
        EXPECT_TRUE(stmt.loops[p].isReduction)
            << "reduction loop before an output loop in " << stmt.name;
    if (stmt.kind == ir::OpKind::Contract && stmt.needsInit)
      EXPECT_TRUE(stmt.innermostIsReduction());
  }
}

TEST(ReferenceScheduleTest, TripCounts) {
  const Compiled c = compile(test::kInverseHelmholtz);
  std::int64_t macTrips = 0;
  for (const auto& stmt : c.schedule.statements)
    if (stmt.kind == ir::OpKind::Contract)
      macTrips += stmt.tripCount();
  EXPECT_EQ(macTrips, 6LL * 11 * 11 * 11 * 11);
}

TEST(LayoutTest, DefaultRowMajorStrides) {
  const Compiled c = compile(test::kInverseHelmholtz);
  // The Hadamard statement reads D and t at identity maps; its innermost
  // loop has stride 1 under row-major layouts.
  for (const auto& stmt : c.schedule.statements) {
    if (stmt.kind != ir::OpKind::EntryWise)
      continue;
    const int innermost = static_cast<int>(stmt.loops.size()) - 1;
    for (const auto& read : stmt.reads)
      EXPECT_EQ(c.schedule.layouts.strideOf(read, innermost), 1);
  }
}

TEST(LayoutTest, ColumnMajorChangesStrides) {
  LayoutOptions options;
  options.perTensor["D"] = LayoutKind::ColumnMajor;
  const Compiled c = compile(test::kInverseHelmholtz, options);
  for (const auto& stmt : c.schedule.statements) {
    if (stmt.kind != ir::OpKind::EntryWise)
      continue;
    const int innermost = static_cast<int>(stmt.loops.size()) - 1;
    bool sawColumnMajor = false;
    for (const auto& read : stmt.reads)
      if (c.program->tensor(read.tensor).name == "D") {
        EXPECT_EQ(c.schedule.layouts.strideOf(read, innermost), 121);
        sawColumnMajor = true;
      }
    EXPECT_TRUE(sawColumnMajor);
  }
}

TEST(RescheduleTest, HardwareObjectiveRemovesInnermostReductions) {
  Compiled c = compile(test::kInverseHelmholtz);
  RescheduleOptions options;
  options.objective = ScheduleObjective::Hardware;
  const RescheduleStats stats = reschedule(c.schedule, options);
  EXPECT_GT(stats.loopNestsPermuted, 0);
  for (const auto& stmt : c.schedule.statements)
    if (stmt.kind == ir::OpKind::Contract && stmt.needsInit)
      EXPECT_FALSE(stmt.innermostIsReduction()) << stmt.name;
}

TEST(RescheduleTest, SoftwareObjectiveKeepsUnitStrides) {
  Compiled c = compile(test::kInverseHelmholtz);
  RescheduleOptions options;
  options.objective = ScheduleObjective::Software;
  reschedule(c.schedule, options);
  // The forward contractions and the Hadamard product reach unit strides
  // (cost <= 3); the transposed-S contractions of Eq. 1c cannot do better
  // than 12 under row-major layouts (S stride 11 + r stride 1), which is
  // still the minimum over all loop permutations.
  for (const auto& stmt : c.schedule.statements) {
    const std::int64_t cost = innermostStrideCost(c.schedule, stmt);
    EXPECT_LE(cost, 12) << stmt.name << " innermost stride cost " << cost;
  }
}

TEST(RescheduleTest, ReorderingRespectsDependences) {
  Compiled c = compile(test::kInverseHelmholtz);
  reschedule(c.schedule, {});
  // Producer statements must still precede consumers.
  std::map<ir::TensorId, int> position;
  for (std::size_t i = 0; i < c.schedule.statements.size(); ++i)
    position[c.schedule.statements[i].write.tensor] = static_cast<int>(i);
  for (std::size_t i = 0; i < c.schedule.statements.size(); ++i)
    for (const auto& read : c.schedule.statements[i].reads)
      if (const auto it = position.find(read.tensor); it != position.end())
        EXPECT_LT(it->second, static_cast<int>(i));
}

TEST(RescheduleTest, AccessesStayConsistentAfterPermutation) {
  Compiled c = compile(test::kMatMul2D);
  reschedule(c.schedule, {});
  const auto& stmt = c.schedule.statements[0];
  // Whatever the loop order, the composed write/read ranks must match.
  EXPECT_EQ(stmt.write.map.numResults(), 2);
  ASSERT_EQ(stmt.reads.size(), 2u);
  EXPECT_EQ(stmt.reads[0].map.numResults(), 2);
  EXPECT_EQ(stmt.reads[1].map.numResults(), 2);
  EXPECT_EQ(stmt.loops.size(), 3u);
}

// ---- Loop-order choice vs a composed-map brute force ----

/// Cost of running `stmt` under `order`, scored the direct way: re-derive
/// the loop-space accesses of a copy (refreshAccesses composes the
/// loop-to-domain map into every access), then read the stride at each
/// loop position with LayoutAssignment::strideOf.
std::int64_t composedOrderCost(const Schedule& schedule,
                               ScheduledStatement stmt,
                               const std::vector<LoopDim>& order,
                               ScheduleObjective objective) {
  stmt.loops = order;
  refreshAccesses(*schedule.program, stmt);
  const auto strideCostAt = [&](int pos) {
    std::int64_t cost = 0;
    const auto add = [&](const ir::Access& access) {
      const std::int64_t stride = schedule.layouts.strideOf(access, pos);
      cost += stride < 0 ? -stride : stride;
    };
    add(stmt.write);
    for (const auto& read : stmt.reads)
      add(read);
    return cost;
  };
  const int innermost = static_cast<int>(order.size()) - 1;
  if (objective == ScheduleObjective::Hardware)
    return (order.back().isReduction ? 1'000'000'000 : 0) +
           strideCostAt(innermost);
  std::int64_t cost = 0;
  std::int64_t weight = 1'000'000;
  for (int pos = innermost; pos >= 0 && weight != 0; --pos, weight /= 64)
    cost += weight * strideCostAt(pos) /
            std::max<std::int64_t>(1, innermost - pos + 1);
  return cost;
}

std::vector<int> domainDims(const std::vector<LoopDim>& loops) {
  std::vector<int> dims;
  for (const LoopDim& loop : loops)
    dims.push_back(loop.domainDim);
  return dims;
}

/// The loop order a brute-force search picks: every permutation in
/// std::next_permutation order from ascending domain dims, where only a
/// strictly lower cost than the best so far (starting from the current
/// order) wins.
std::vector<int> bruteForceOrder(const Schedule& schedule,
                                 const ScheduledStatement& stmt,
                                 ScheduleObjective objective) {
  const auto byDim = [](const LoopDim& a, const LoopDim& b) {
    return a.domainDim < b.domainDim;
  };
  std::vector<LoopDim> best = stmt.loops;
  std::int64_t bestCost =
      composedOrderCost(schedule, stmt, stmt.loops, objective);
  std::vector<LoopDim> candidate = stmt.loops;
  std::sort(candidate.begin(), candidate.end(), byDim);
  do {
    const std::int64_t cost =
        composedOrderCost(schedule, stmt, candidate, objective);
    if (cost < bestCost) {
      bestCost = cost;
      best = candidate;
    }
  } while (std::next_permutation(candidate.begin(), candidate.end(), byDim));
  return domainDims(best);
}

enum class LayoutMix { RowMajor, ColumnMajor, Alternating };

/// Lowers `source` and builds its reference schedule under `mix`
/// (Alternating makes every other tensor column-major). With
/// `startFrom`, the loops are first permuted for that objective, so the
/// rescheduler under test starts from non-identity loop orders.
Compiled compileForReschedule(const std::string& source, LayoutMix mix,
                              std::optional<ScheduleObjective> startFrom) {
  Compiled result;
  result.program =
      std::make_unique<ir::Program>(ir::lower(dsl::parseAndCheck(source)));
  LayoutOptions layouts;
  if (mix == LayoutMix::ColumnMajor)
    layouts.defaultLayout = LayoutKind::ColumnMajor;
  if (mix == LayoutMix::Alternating)
    for (const auto& tensor : result.program->tensors())
      if (tensor.id % 2 == 1)
        layouts.perTensor[tensor.name] = LayoutKind::ColumnMajor;
  result.schedule = buildReferenceSchedule(*result.program, layouts);
  if (startFrom) {
    RescheduleOptions permuteOnly;
    permuteOnly.objective = *startFrom;
    permuteOnly.reorderStatements = false;
    reschedule(result.schedule, permuteOnly);
  }
  return result;
}

TEST(RescheduleTest, LoopOrderMatchesComposedMapBruteForce) {
  const std::vector<std::pair<std::string, std::string>> kernels = {
      {"helmholtz", test::kInverseHelmholtz},
      {"interpolation", test::kInterpolation},
      {"redundant_sem", test::kRedundantSem},
      {"chain6", test::contractionChainSource(6)}};
  const auto other = [](ScheduleObjective objective) {
    return objective == ScheduleObjective::Hardware
               ? ScheduleObjective::Software
               : ScheduleObjective::Hardware;
  };
  int nonIdentityStarts = 0;
  for (const auto& [name, source] : kernels)
    for (const ScheduleObjective objective :
         {ScheduleObjective::Hardware, ScheduleObjective::Software})
      for (const LayoutMix mix : {LayoutMix::RowMajor,
                                  LayoutMix::ColumnMajor,
                                  LayoutMix::Alternating})
        for (const bool prePermuted : {false, true}) {
          const std::string label =
              name + " objective " +
              std::to_string(static_cast<int>(objective)) + " layout " +
              std::to_string(static_cast<int>(mix)) +
              (prePermuted ? " pre-permuted" : "");
          const std::optional<ScheduleObjective> startFrom =
              prePermuted ? std::optional(other(objective)) : std::nullopt;
          RescheduleOptions options;
          options.objective = objective;

          // Expected: the statement order alone, then the brute-force
          // loop order of every statement in it.
          Compiled reference = compileForReschedule(source, mix, startFrom);
          RescheduleOptions reorderOnly = options;
          reorderOnly.permuteLoops = false;
          RescheduleStats expectedStats =
              reschedule(reference.schedule, reorderOnly);
          std::vector<std::vector<int>> expectedOrders;
          for (const auto& stmt : reference.schedule.statements) {
            std::vector<int> start = domainDims(stmt.loops);
            if (!std::is_sorted(start.begin(), start.end()))
              ++nonIdentityStarts;
            if (stmt.loops.size() < 2) {
              expectedOrders.push_back(start);
              continue;
            }
            expectedOrders.push_back(
                bruteForceOrder(reference.schedule, stmt, objective));
            if (expectedOrders.back() != start)
              ++expectedStats.loopNestsPermuted;
          }

          Compiled actual = compileForReschedule(source, mix, startFrom);
          const RescheduleStats stats = reschedule(actual.schedule, options);
          EXPECT_EQ(stats.statementsMoved, expectedStats.statementsMoved)
              << label;
          EXPECT_EQ(stats.loopNestsPermuted,
                    expectedStats.loopNestsPermuted)
              << label;
          ASSERT_EQ(actual.schedule.statements.size(), expectedOrders.size())
              << label;
          for (std::size_t i = 0; i < expectedOrders.size(); ++i) {
            const ScheduledStatement& stmt = actual.schedule.statements[i];
            EXPECT_EQ(domainDims(stmt.loops), expectedOrders[i])
                << label << " " << stmt.name;
          }
        }
  // The identity the per-dimension cost relies on only shows when
  // statements start from permuted loops.
  EXPECT_GT(nonIdentityStarts, 0);
}

TEST(ScheduleTest, PrintingContainsStatements) {
  const Compiled c = compile(test::kInverseHelmholtz);
  const std::string printed = c.schedule.str();
  EXPECT_NE(printed.find("S0"), std::string::npos);
  EXPECT_NE(printed.find("S6"), std::string::npos);
}

} // namespace
} // namespace cfd::sched
