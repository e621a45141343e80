// Tests for the search layer's edges (DESIGN.md §7): the structural
// pre-filter's m/k contract, strategy and objective name parsing, an
// exhaustive sweep of the 288-point Fig. 1 space, and the pruned-point
// report serialization.
#include "core/Session.h"
#include "core/Tuner.h"
#include "support/Error.h"
#include "support/Json.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

namespace cfd {
namespace {

// ---- Structural pre-filter edge cases ----

TEST(SearchFeasibilityTest, EdgeCasesOfTheMkContract) {
  FlowOptions options;
  // k > m: each accelerator needs its own memory.
  applyTuneParam(options, "m", "2");
  applyTuneParam(options, "k", "4");
  EXPECT_NE(checkStructuralFeasibility(options), "");
  // m == k boundary: batch 1 is a power of two — feasible.
  applyTuneParam(options, "m", "4");
  applyTuneParam(options, "k", "4");
  EXPECT_EQ(checkStructuralFeasibility(options), "");
  applyTuneParam(options, "m", "1");
  applyTuneParam(options, "k", "1");
  EXPECT_EQ(checkStructuralFeasibility(options), "");
  // m a multiple of k but not a power-of-two multiple.
  applyTuneParam(options, "m", "12");
  applyTuneParam(options, "k", "4");
  EXPECT_NE(checkStructuralFeasibility(options), "");
  // ... and the matching power-of-two multiple is feasible.
  applyTuneParam(options, "m", "16");
  EXPECT_EQ(checkStructuralFeasibility(options), "");
}

// ---- Strategy parsing ----

TEST(SearchStrategyTest, ModelIsRejectedAndTheErrorListsThreeNames) {
  for (const SearchStrategy strategy :
       {SearchStrategy::Exhaustive, SearchStrategy::Random,
        SearchStrategy::HillClimb})
    EXPECT_EQ(searchStrategyByName(searchStrategyName(strategy)), strategy);
  try {
    searchStrategyByName("model");
    FAIL() << "expected FlowError";
  } catch (const FlowError& e) {
    EXPECT_STREQ(e.what(), "unknown search strategy 'model' (valid: "
                           "exhaustive, random, hillclimb)");
  }
}

TEST(SearchObjectiveTest, BuiltinNamesBackTheLookupErrorMessage) {
  const std::vector<std::string>& names = builtinObjectiveNames();
  ASSERT_FALSE(names.empty());
  for (const std::string& name : names)
    EXPECT_NO_THROW(objectiveByName(name)) << name;
  try {
    objectiveByName("throughput");
    FAIL() << "expected FlowError";
  } catch (const FlowError& e) {
    for (const std::string& name : names)
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << name;
  }
}

// ---- Exhaustive search of the Fig. 1 space ----

/// 4 x 3 x 3 x 2 x 2 x 2 = 288 points over the Fig. 1 kernel. Every
/// m/k pair passes the structural pre-filter.
TuneSpace fig1Space() {
  TuneSpace space;
  space.axes.push_back(TuneAxis{"unroll", {"1", "2", "4", "8"}});
  space.axes.push_back(TuneAxis{"m", {"4", "8", "16"}});
  space.axes.push_back(TuneAxis{"k", {"1", "2", "4"}});
  space.axes.push_back(TuneAxis{"sharing", {"0", "1"}});
  space.axes.push_back(TuneAxis{"decoupled", {"0", "1"}});
  space.axes.push_back(TuneAxis{"layout", {"rowmajor", "colmajor"}});
  return space;
}

TEST(ExhaustiveSearchTest, CompilesEveryPointOfTheFig1Space) {
  // The latency objective is the analytic HLS model, so every count
  // below is exact.
  TunerOptions options;
  options.objectives = {latencyObjective()};
  Session session;
  const TuningReport report =
      tune(session, test::kInverseHelmholtz, fig1Space(), options);
  EXPECT_EQ(report.spaceSize, 288u);
  EXPECT_EQ(report.points.size(), 288u);
  EXPECT_EQ(report.prunedCount, 0u);
  EXPECT_EQ(session.flowCache().stats().misses, 288);
  EXPECT_EQ(report.feasibleCount, 190u);
  double best = std::numeric_limits<double>::infinity();
  for (const TunedPoint& point : report.points)
    if (point.row.ok())
      best = std::min(best, point.scores.front());
  EXPECT_EQ(best, 15.35125);
}

// ---- Pruned points in the JSON report ----

TEST(PrunedReportTest, InfeasiblePointsKeepTheirReasonInTheJson) {
  TuneSpace space;
  space.axes.push_back(TuneAxis{"m", {"4", "6"}});
  space.axes.push_back(TuneAxis{"k", {"4", "5"}});

  Session session;
  const TuningReport report = tune(session, test::kMatMul2D, space, {});
  // Feasible: only (m=4, k=4). Pruned: (4,5), (6,4), (6,5).
  EXPECT_EQ(report.points.size(), 1u);
  ASSERT_EQ(report.prunedPoints.size(), 3u);
  EXPECT_EQ(report.prunedCount, report.prunedPoints.size());
  for (const TuningReport::PrunedPoint& pruned : report.prunedPoints)
    EXPECT_FALSE(pruned.reason.empty());

  const json::Value doc = json::Value::parse(report.jsonText());
  // Evaluated points first (frontier indices stay valid), pruned after.
  ASSERT_EQ(doc.at("points").size(),
            report.points.size() + report.prunedPoints.size());
  for (std::size_t i = 0; i < report.prunedPoints.size(); ++i) {
    const json::Value& entry =
        doc.at("points").at(report.points.size() + i);
    EXPECT_FALSE(entry.at("feasible").asBool());
    EXPECT_TRUE(entry.at("pruned").asBool());
    EXPECT_EQ(entry.at("error").asString(),
              report.prunedPoints[i].reason);
    EXPECT_FALSE(entry.contains("scores"));
  }
  // The evaluated entries carry no "pruned" marker.
  EXPECT_FALSE(doc.at("points").at(0u).contains("pruned"));
  EXPECT_EQ(doc.at("stats").at("pruned").asInt(), 3);
}

} // namespace
} // namespace cfd
