// Tests for the model-guided search layer (DESIGN.md §14): surrogate
// fitting and determinism, feature clustering, the cheap stage-prefix
// proxy, warm-start round-trips, the Model tuning strategy's
// determinism contract, and the pruned-point report serialization.
#include "core/Session.h"
#include "core/Tuner.h"
#include "search/FeatureCluster.h"
#include "search/Halving.h"
#include "search/Surrogate.h"
#include "search/WarmStart.h"
#include "support/Error.h"
#include "support/Json.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace cfd {
namespace {

// ---- Surrogate regression ----

search::FeatureVector fv(std::vector<double> values) {
  search::FeatureVector features;
  features.values = std::move(values);
  return features;
}

TEST(SurrogateTest, RecoversALinearCostModel) {
  // y = 3*x0 - 2*x1 + 1, observed on a small grid: the ridge solve
  // must recover it closely enough to rank any pair correctly.
  search::Surrogate surrogate(2);
  for (double x0 : {0.0, 1.0, 2.0, 3.0})
    for (double x1 : {0.0, 1.0, 2.0})
      surrogate.observe(fv({x0, x1}), 3.0 * x0 - 2.0 * x1 + 1.0);
  EXPECT_EQ(surrogate.observationCount(), 12u);
  EXPECT_NEAR(surrogate.predict(fv({1.5, 0.5})), 4.5, 0.05);
  EXPECT_NEAR(surrogate.predict(fv({0.0, 2.0})), -3.0, 0.05);
  // Ranking: the model must order unseen points by the true cost.
  EXPECT_LT(surrogate.predict(fv({0.5, 2.0})),
            surrogate.predict(fv({2.5, 0.0})));
}

TEST(SurrogateTest, PredictionsAreDeterministicAndFiniteWhenStarved) {
  search::Surrogate a(3), b(3);
  EXPECT_EQ(a.predict(fv({1, 2, 3})), 0.0); // no observations at all
  // One observation cannot determine 4 coefficients; the ridge term
  // still yields a finite prediction, and two identically-fed models
  // agree bit for bit.
  for (search::Surrogate* s : {&a, &b}) {
    s->observe(fv({1.0, 0.5, 2.0}), 7.0);
    s->observe(fv({2.0, 0.25, 1.0}), 9.0);
  }
  const double pa = a.predict(fv({1.5, 0.4, 1.5}));
  EXPECT_TRUE(std::isfinite(pa));
  EXPECT_EQ(pa, b.predict(fv({1.5, 0.4, 1.5})));
}

TEST(SurrogateTest, IgnoresNonFiniteScores) {
  search::Surrogate surrogate(1);
  surrogate.observe(fv({1.0}), std::numeric_limits<double>::infinity());
  EXPECT_EQ(surrogate.observationCount(), 0u);
  surrogate.observe(fv({1.0}), 5.0);
  EXPECT_EQ(surrogate.observationCount(), 1u);
  EXPECT_TRUE(std::isfinite(surrogate.predict(fv({2.0}))));
}

TEST(SurrogateTest, EncodePointDimensionMatchesTheSpace) {
  TuneSpace space;
  space.axes.push_back(TuneAxis{"unroll", {"1", "2", "4"}});
  space.axes.push_back(TuneAxis{"layout", {"rowmajor", "colmajor"}});
  ASSERT_EQ(search::featureCountFor(space), 2 * 2 + 3);

  FlowOptions options;
  applyTuneParam(options, "unroll", "4");
  const search::FeatureVector features =
      search::encodePoint(space, {2, 1}, options);
  EXPECT_EQ(features.values.size(), search::featureCountFor(space));
  // Axis 0 ("4", last of three): position 1.0, numeric log2(1+4).
  EXPECT_DOUBLE_EQ(features.values[0], 1.0);
  EXPECT_DOUBLE_EQ(features.values[1], std::log2(5.0));
  // Axis 1 ("colmajor"): categorical, numeric slot is 0.
  EXPECT_DOUBLE_EQ(features.values[2], 1.0);
  EXPECT_DOUBLE_EQ(features.values[3], 0.0);
}

// ---- Farthest-point clustering ----

TEST(FeatureClusterTest, SpreadsRepresentativesDeterministically) {
  // Three tight groups on a line; three clusters must pick one
  // representative in each, identically on every call.
  std::vector<search::FeatureVector> points;
  for (double base : {0.0, 10.0, 20.0})
    for (double offset : {0.0, 0.1, 0.2})
      points.push_back(fv({base + offset}));

  const search::Clustering a = search::clusterByFeatures(points, 3, 42);
  const search::Clustering b = search::clusterByFeatures(points, 3, 42);
  EXPECT_EQ(a.representatives, b.representatives);
  EXPECT_EQ(a.assignment, b.assignment);
  ASSERT_EQ(a.representatives.size(), 3u);
  // One representative per group of three.
  std::vector<int> perGroup(3, 0);
  for (std::size_t rep : a.representatives)
    ++perGroup[rep / 3];
  EXPECT_EQ(perGroup, (std::vector<int>{1, 1, 1}));
  // Every point is assigned to the cluster of its own group's center.
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(a.representatives[a.assignment[i]] / 3, i / 3) << i;
}

TEST(FeatureClusterTest, DuplicatePointsCollapseAndSeedPicksTheStart) {
  const std::vector<search::FeatureVector> points = {
      fv({1.0}), fv({1.0}), fv({1.0})};
  const search::Clustering clustering =
      search::clusterByFeatures(points, 3, 0);
  // All duplicates: one cluster no matter how many were requested.
  EXPECT_EQ(clustering.representatives.size(), 1u);

  const std::vector<search::FeatureVector> spread = {
      fv({0.0}), fv({5.0}), fv({9.0})};
  EXPECT_EQ(search::clusterByFeatures(spread, 1, 1).representatives,
            (std::vector<std::size_t>{1}));
  EXPECT_EQ(search::clusterByFeatures(spread, 1, 2).representatives,
            (std::vector<std::size_t>{2}));
}

// ---- Halving: proxy score and survivor selection ----

TEST(HalvingTest, SelectSmallestKeepsLowIndicesOnTies) {
  const std::vector<double> scores = {5.0, 1.0, 5.0, 1.0, 0.5};
  EXPECT_EQ(search::selectSmallest(scores, 3),
            (std::vector<std::size_t>{1, 3, 4}));
  // Tie at the cut (the two 5.0s): the lower index survives.
  EXPECT_EQ(search::selectSmallest(scores, 4),
            (std::vector<std::size_t>{0, 1, 3, 4}));
  EXPECT_EQ(search::selectSmallest(scores, 99).size(), scores.size());
  EXPECT_TRUE(search::selectSmallest({}, 3).empty());
}

TEST(HalvingTest, ProxyScoreTracksTheUnrollKnobWithoutExpensiveStages) {
  Session session;
  FlowOptions slow, fast;
  applyTuneParam(slow, "unroll", "1");
  applyTuneParam(fast, "unroll", "4");
  const search::ProxyResult a =
      search::cheapProxyScore(session, test::kMatMul2D, slow, {});
  const search::ProxyResult b =
      search::cheapProxyScore(session, test::kMatMul2D, fast, {});
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a.score, 0.0);
  // More unroll lanes amortize the datapath work: a strictly better
  // proxy score, computed from op counts alone.
  EXPECT_LT(b.score, a.score);
  // Deterministic arithmetic: same inputs, same score.
  EXPECT_EQ(search::cheapProxyScore(session, test::kMatMul2D, slow, {}).score,
            a.score);
}

TEST(HalvingTest, DemotedPrefixStaysAdoptableInTheStageCache) {
  Session session;
  const FlowOptions base;
  ASSERT_TRUE(
      search::cheapProxyScore(session, test::kMatMul2D, base, {}).ok());
  // The proxy ran parse..optimize only, publishing that prefix. A full
  // compile of the same point must adopt it rather than re-running.
  const ExplorationResult batch =
      explore(session, test::kMatMul2D, {base}, {});
  ASSERT_TRUE(batch.rows[0].ok()) << batch.rows[0].error;
  EXPECT_GE(batch.rows[0].stagesAdopted, 3);
}

TEST(HalvingTest, ProxyReportsPrefixFailuresAsInfiniteScore) {
  Session session;
  const search::ProxyResult result =
      search::cheapProxyScore(session, "var input x : [", {}, {});
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(std::isinf(result.score));
  EXPECT_FALSE(result.error.empty());
}

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

TEST(SearchStrategyTest, ModelParsesAndTheErrorEnumeratesEveryName) {
  EXPECT_EQ(searchStrategyByName("model"), SearchStrategy::Model);
  EXPECT_STREQ(searchStrategyName(SearchStrategy::Model), "model");
  try {
    searchStrategyByName("annealing");
    FAIL() << "expected FlowError";
  } catch (const FlowError& e) {
    const std::string message = e.what();
    for (const char* name : {"exhaustive", "random", "hillclimb", "model"})
      EXPECT_NE(message.find(name), std::string::npos) << name;
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

// ---- The Model tuning strategy ----

TuneSpace modelSpace() {
  TuneSpace space;
  space.axes.push_back(TuneAxis{"unroll", {"1", "2", "4"}});
  space.axes.push_back(TuneAxis{"m", {"4", "8"}});
  space.axes.push_back(TuneAxis{"k", {"1", "2"}});
  space.axes.push_back(TuneAxis{"sharing", {"0", "1"}});
  return space;
}

std::vector<std::string> labels(const TuningReport& report) {
  std::vector<std::string> out;
  for (const TunedPoint& point : report.points)
    out.push_back(point.label());
  return out;
}

TEST(ModelStrategyTest, CompilesFewerPointsThanExhaustive) {
  Session exhaustiveSession, modelSession;
  const TuningReport full =
      tune(exhaustiveSession, test::kMatMul2D, modelSpace(), {});

  TunerOptions options;
  options.strategy = SearchStrategy::Model;
  options.seed = 3;
  const TuningReport model =
      tune(modelSession, test::kMatMul2D, modelSpace(), options);

  EXPECT_LT(model.points.size(), full.points.size());
  EXPECT_FALSE(model.modelRounds.empty());
  EXPECT_EQ(model.modelRounds.front().round, 0u); // seeded from clusters
  std::size_t compiled = 0;
  for (const auto& round : model.modelRounds) {
    compiled += round.compiled;
    if (round.round > 0) {
      EXPECT_GT(round.predictions, 0u);
      EXPECT_GT(round.proxyEvaluations, 0u);
    }
  }
  EXPECT_EQ(compiled, model.points.size());
  EXPECT_FALSE(model.frontier.empty());
}

/// 4 x 3 x 3 x 2 x 2 x 2 = 288 points over the Fig. 1 kernel. Every
/// m/k pair passes the structural pre-filter, so the model has to rank
/// and demote.
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

TEST(ModelStrategyTest, IsSeedDeterministicAcrossWorkerCounts) {
  // The small matmul space, and the 288-point Fig. 1 space under the
  // latency objective.
  TunerOptions matmul;
  matmul.strategy = SearchStrategy::Model;
  matmul.seed = 99;
  TunerOptions fig1 = matmul;
  fig1.seed = 17;
  fig1.objectives = {latencyObjective()};
  const struct {
    const char* source;
    TuneSpace space;
    TunerOptions options;
  } cases[] = {
      {test::kMatMul2D, modelSpace(), matmul},
      {test::kInverseHelmholtz, fig1Space(), fig1},
  };

  for (const auto& c : cases) {
    Session sessionA, sessionB(SessionOptions{.workers = 4});
    TunerOptions a = c.options;
    a.workers = 1;
    TunerOptions b = c.options;
    b.workers = 4;

    const TuningReport first = tune(sessionA, c.source, c.space, a);
    const TuningReport second = tune(sessionB, c.source, c.space, b);

    EXPECT_EQ(labels(first), labels(second));
    EXPECT_EQ(first.frontier, second.frontier);
    ASSERT_EQ(first.points.size(), second.points.size());
    for (std::size_t i = 0; i < first.points.size(); ++i)
      EXPECT_EQ(first.points[i].scores, second.points[i].scores);
    ASSERT_EQ(first.modelRounds.size(), second.modelRounds.size());
    for (std::size_t i = 0; i < first.modelRounds.size(); ++i) {
      EXPECT_EQ(first.modelRounds[i].compiled,
                second.modelRounds[i].compiled);
      EXPECT_EQ(first.modelRounds[i].proxyDemoted,
                second.modelRounds[i].proxyDemoted);
    }
  }
}

double bestLatency(const TuningReport& report) {
  double best = std::numeric_limits<double>::infinity();
  for (const TunedPoint& point : report.points)
    if (point.row.ok())
      best = std::min(best, point.scores.front());
  return best;
}

TEST(ModelStrategyTest, FindsTheExhaustiveBestOnThePaperKernel) {
  // The latency objective is the analytic HLS model, so every count
  // below is exact.
  const TuneSpace space = fig1Space();
  TunerOptions exhaustiveOptions;
  exhaustiveOptions.objectives = {latencyObjective()};
  exhaustiveOptions.seed = 17;

  Session exhaustiveSession;
  const TuningReport exhaustive = tune(exhaustiveSession,
                                       test::kInverseHelmholtz, space,
                                       exhaustiveOptions);
  EXPECT_EQ(exhaustive.spaceSize, 288u);
  EXPECT_EQ(exhaustive.points.size(), 288u);
  EXPECT_EQ(exhaustive.feasibleCount, 190u);
  EXPECT_EQ(bestLatency(exhaustive), 15.35125);

  TunerOptions modelOptions = exhaustiveOptions;
  modelOptions.strategy = SearchStrategy::Model;
  modelOptions.workers = 1;
  Session modelSession;
  const TuningReport model =
      tune(modelSession, test::kInverseHelmholtz, space, modelOptions);
  std::size_t proxyEvaluations = 0;
  for (const auto& round : model.modelRounds)
    proxyEvaluations += round.proxyEvaluations;
  EXPECT_EQ(model.points.size(), 75u);
  EXPECT_EQ(proxyEvaluations, 171u);
  EXPECT_EQ(bestLatency(model), bestLatency(exhaustive));

  // Re-tuned from its own report, the model skips the seeding round.
  TunerOptions warmOptions = modelOptions;
  warmOptions.warmStartJson = model.jsonText();
  Session warmSession;
  const TuningReport warm =
      tune(warmSession, test::kInverseHelmholtz, space, warmOptions);
  EXPECT_EQ(warm.warmStartPoints, 34u);
  EXPECT_EQ(warm.points.size(), 61u);
}

TEST(ModelStrategyTest, RejectsAnOutOfRangeKeepFraction) {
  TunerOptions options;
  options.strategy = SearchStrategy::Model;
  options.keepFraction = 0.0;
  Session session;
  EXPECT_THROW(tune(session, test::kMatMul2D, modelSpace(), options),
               FlowError);
  options.keepFraction = 1.5;
  EXPECT_THROW(tune(session, test::kMatMul2D, modelSpace(), options),
               FlowError);
}

// ---- Warm start ----

TEST(WarmStartTest, RoundTripsAReportWithZeroJsonLoss) {
  Session session;
  TunerOptions options;
  options.strategy = SearchStrategy::Model;
  options.seed = 5;
  const TuningReport first =
      tune(session, test::kMatMul2D, modelSpace(), options);
  ASSERT_GT(first.feasibleCount, 0u);

  // Every feasible point survives the JSON round-trip with its exact
  // primary score (shortest-round-trip doubles, support/Json.h).
  const std::vector<search::WarmStartPoint> loaded =
      search::loadWarmStart(first.jsonText(), first.objectives.front());
  ASSERT_EQ(loaded.size(), first.feasibleCount);
  std::size_t cursor = 0;
  for (const TunedPoint& point : first.points) {
    if (!point.row.ok())
      continue;
    EXPECT_EQ(loaded[cursor].params, point.params);
    EXPECT_EQ(loaded[cursor].score, point.scores.front()); // bit-exact
    ++cursor;
  }
}

TEST(WarmStartTest, PreFitsTheSecondRunAndSkipsSeeding) {
  Session firstSession;
  TunerOptions options;
  options.strategy = SearchStrategy::Model;
  options.seed = 5;
  const TuningReport first =
      tune(firstSession, test::kMatMul2D, modelSpace(), options);
  ASSERT_GE(first.feasibleCount, 4u);

  Session secondSession;
  TunerOptions warm = options;
  warm.warmStartJson = first.jsonText();
  const TuningReport second =
      tune(secondSession, test::kMatMul2D, modelSpace(), warm);

  EXPECT_EQ(second.warmStartPoints, first.feasibleCount);
  // Enough prior observations: no round-0 cluster seeding, straight to
  // the halving rounds — the repeat tune skips the exploration phase.
  ASSERT_FALSE(second.modelRounds.empty());
  EXPECT_GT(second.modelRounds.front().round, 0u);
  EXPECT_LT(second.points.size(), first.points.size());
}

TEST(WarmStartTest, RejectsMalformedDocuments) {
  EXPECT_THROW(search::loadWarmStart("not json", "latency"), FlowError);
  EXPECT_THROW(search::loadWarmStart("{\"schema\": \"x\"}", "latency"),
               FlowError);
  EXPECT_THROW(
      search::readWarmStartFile("/nonexistent/warm.json", "latency"),
      FlowError);
  // A report scored under different objectives is valid but empty.
  EXPECT_TRUE(
      search::loadWarmStart("{\"points\": []}", "latency").empty());
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
