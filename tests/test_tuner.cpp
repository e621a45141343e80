// Tests for the auto-tuning layer (DESIGN.md §7-§8): Pareto dominance,
// TuneSpace point order and bounds, strategy determinism, hill-climb
// convergence, the structural pre-filter, and the JSON report bytes.
#include "core/Pareto.h"
#include "core/Session.h"
#include "core/Tuner.h"
#include "support/Error.h"
#include "support/Json.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace cfd {
namespace {

// ---- Pareto dominance on hand-built rows ----

TEST(ParetoTest, DominanceRequiresNoWorseAndStrictlyBetter) {
  EXPECT_TRUE(dominates({1, 2}, {2, 2}));
  EXPECT_TRUE(dominates({1, 1}, {2, 2}));
  EXPECT_FALSE(dominates({2, 2}, {1, 2}));
  EXPECT_FALSE(dominates({1, 2}, {1, 2})); // equal: neither dominates
  EXPECT_FALSE(dominates({1, 3}, {2, 2})); // trade-off: incomparable
  EXPECT_FALSE(dominates({2, 2}, {1, 3}));
}

TEST(ParetoTest, FrontierKeepsNonDominatedInInputOrder) {
  const std::vector<std::vector<double>> points = {
      {1.0, 10.0}, // frontier (cheapest latency)
      {2.0, 9.0},  // frontier (trade-off)
      {3.0, 9.0},  // dominated by {2,9}
      {2.0, 12.0}, // dominated by {2,9} and {1,10}
      {5.0, 1.0},  // frontier (cheapest second objective)
  };
  EXPECT_EQ(paretoFrontier(points),
            (std::vector<std::size_t>{0, 1, 4}));
}

TEST(ParetoTest, DuplicatePointsAllStayOnTheFrontier) {
  const std::vector<std::vector<double>> points = {
      {1.0, 2.0}, {1.0, 2.0}, {0.5, 3.0}};
  EXPECT_EQ(paretoFrontier(points),
            (std::vector<std::size_t>{0, 1, 2}));
}

TEST(ParetoTest, EmptyAndSingleton) {
  EXPECT_TRUE(paretoFrontier({}).empty());
  EXPECT_EQ(paretoFrontier({{3.0}}), (std::vector<std::size_t>{0}));
}

TEST(ParetoTest, SingleObjectiveFrontierIsTheMinimum) {
  const std::vector<std::vector<double>> points = {{3}, {1}, {2}, {1}};
  EXPECT_EQ(paretoFrontier(points), (std::vector<std::size_t>{1, 3}));
}

// ---- JSON writer/parser ----

TEST(JsonTest, EscapesControlCharactersAndQuotes) {
  EXPECT_EQ(json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(json::escape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonTest, DumpIsDeterministicAndParsesBack) {
  json::Value doc = json::Value::object();
  doc.set("name", "tuner \"report\"");
  doc.set("count", std::int64_t{42});
  doc.set("ratio", 0.5);
  doc.set("ok", true);
  doc.set("none", json::Value());
  json::Value list = json::Value::array();
  list.push(std::int64_t{1});
  list.push("two");
  doc.set("list", std::move(list));

  const std::string text = doc.dump(2);
  const json::Value parsed = json::Value::parse(text);
  EXPECT_EQ(parsed.at("name").asString(), "tuner \"report\"");
  EXPECT_EQ(parsed.at("count").asInt(), 42);
  EXPECT_DOUBLE_EQ(parsed.at("ratio").asDouble(), 0.5);
  EXPECT_TRUE(parsed.at("ok").asBool());
  EXPECT_TRUE(parsed.at("none").isNull());
  EXPECT_EQ(parsed.at("list").size(), 2u);
  // Round-trip is lossless: dumping the parsed document reproduces the
  // exact original text (member order is preserved).
  EXPECT_EQ(parsed.dump(2), text);
  // Compact form parses to the same document too.
  EXPECT_EQ(json::Value::parse(doc.dump(-1)).dump(2), text);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_THROW(json::Value::parse("{"), FlowError);
  EXPECT_THROW(json::Value::parse("[1,]2"), FlowError);
  EXPECT_THROW(json::Value::parse("{} extra"), FlowError);
  EXPECT_THROW(json::Value::parse("nul"), FlowError);
  // Malformed numbers must throw, not silently truncate.
  EXPECT_THROW(json::Value::parse("[1-2]"), FlowError);
  EXPECT_THROW(json::Value::parse("[3ee5]"), FlowError);
  EXPECT_THROW(json::Value::parse("[1.2.3]"), FlowError);
  // Nesting is bounded at 128 levels, before it can exhaust the
  // parser's stack.
  const std::string deepest = std::string(128, '[') + std::string(128, ']');
  EXPECT_EQ(json::Value::parse(deepest).dump(-1), deepest);
  EXPECT_THROW(json::Value::parse("[" + deepest + "]"), FlowError);
  EXPECT_THROW(json::Value::parse(std::string(100000, '[')), FlowError);
}

TEST(JsonTest, ReadsOfTheWrongShapeAreFlowErrors) {
  // A parsed document is outside input: a wrong kind, a missing member,
  // an index past the end or a number outside int64 is bad input.
  const json::Value doc =
      json::Value::parse(R"({"s":"x","n":1e300,"a":[1]})");
  EXPECT_THROW(doc.at("s").asInt(), FlowError);
  EXPECT_THROW(doc.at("a").asString(), FlowError);
  EXPECT_THROW(doc.at("missing"), FlowError);
  EXPECT_THROW(doc.at("a").at(1), FlowError);
  EXPECT_THROW(doc.at("s").members(), FlowError);
  EXPECT_THROW(doc.at("n").asInt(), FlowError);
}

TEST(JsonTest, RepeatedKeysKeepTheLastValueAtTheFirstPlace) {
  // Value::set's rule holds for parsed objects of any size: past 16
  // members the parser appends and resolves repeats in one sort.
  for (int extra : {0, 40}) {
    std::string text = R"({"a":1,"b":2)";
    std::string expected = R"({"a":3,"b":5)";
    for (int i = 0; i < extra; ++i) {
      text += ",\"k" + std::to_string(i) + "\":" + std::to_string(i);
      expected += ",\"k" + std::to_string(i) + "\":" + std::to_string(i);
    }
    text += R"(,"a":3,"c":4,"b":5})";
    expected += R"(,"c":4})";
    EXPECT_EQ(json::Value::parse(text).dump(-1), expected) << extra;
  }
}

TEST(JsonTest, Int64RoundTripsAbove2To53) {
  // 2^53 + 1 is not representable as a double; the exact integer value
  // must survive dump/parse (64-bit tuner seeds rely on this).
  const std::int64_t big = (std::int64_t{1} << 53) + 1;
  json::Value doc = json::Value::object();
  doc.set("seed", big);
  const json::Value parsed = json::Value::parse(doc.dump(-1));
  EXPECT_EQ(parsed.at("seed").asInt(), big);
  EXPECT_EQ(parsed.dump(-1), doc.dump(-1));
}

// ---- Parameter application and the structural pre-filter ----

TEST(TunerTest, ApplyTuneParamCoversEveryAxisAndRejectsJunk) {
  FlowOptions options;
  applyTuneParam(options, "unroll", "4");
  EXPECT_EQ(options.hls.unrollFactor, 4);
  applyTuneParam(options, "m", "8");
  applyTuneParam(options, "k", "2");
  EXPECT_EQ(options.system.memories, 8);
  EXPECT_EQ(options.system.kernels, 2);
  applyTuneParam(options, "sharing", "no");
  EXPECT_FALSE(options.memory.enableSharing);
  applyTuneParam(options, "decoupled", "0");
  EXPECT_FALSE(options.memory.decoupled);
  applyTuneParam(options, "objective", "sw");
  EXPECT_EQ(options.reschedule.objective, sched::ScheduleObjective::Software);
  applyTuneParam(options, "layout", "colmajor");
  EXPECT_EQ(options.layouts.defaultLayout, sched::LayoutKind::ColumnMajor);

  EXPECT_THROW(applyTuneParam(options, "nope", "1"), FlowError);
  EXPECT_THROW(applyTuneParam(options, "unroll", "two"), FlowError);
  EXPECT_THROW(applyTuneParam(options, "unroll", "3"), FlowError);
  EXPECT_THROW(applyTuneParam(options, "unroll", "0"), FlowError);
  EXPECT_THROW(applyTuneParam(options, "sharing", "maybe"), FlowError);
  EXPECT_THROW(applyTuneParam(options, "objective", "fast"), FlowError);
}

TEST(TunerTest, StructuralPrefilterMatchesSysgenRules) {
  FlowOptions options;
  EXPECT_EQ(checkStructuralFeasibility(options), ""); // auto m/k

  options.system.memories = 8;
  options.system.kernels = 2;
  EXPECT_EQ(checkStructuralFeasibility(options), ""); // batch 4 = pow2

  options.system.kernels = 3; // 8 % 3 != 0
  EXPECT_NE(checkStructuralFeasibility(options), "");
  options.system.memories = 12;
  options.system.kernels = 4; // batch 3: not a power of two
  EXPECT_NE(checkStructuralFeasibility(options), "");
  options.system.memories = 2;
  options.system.kernels = 4; // k > m
  EXPECT_NE(checkStructuralFeasibility(options), "");
  options.system.memories = 0;
  options.system.kernels = 4; // m auto: cannot decide without compiling
  EXPECT_EQ(checkStructuralFeasibility(options), "");
}

TEST(TunerTest, PrunesInfeasibleMkPairsBeforeCompiling) {
  TuneSpace space;
  space.axes.push_back(TuneAxis{"m", {"4", "6", "8"}});
  space.axes.push_back(TuneAxis{"k", {"4", "5"}});

  Session session;
  const TuningReport report = tune(session, test::kMatMul2D, space, {});

  // Feasible m/k pairs: (4,4) batch 1, (8,4) batch 2. Everything else
  // fails the structural check and must never reach the compiler.
  EXPECT_EQ(report.spaceSize, 6u);
  EXPECT_EQ(report.points.size(), 2u);
  EXPECT_EQ(report.prunedCount, 4u);
  EXPECT_EQ(session.flowCache().stats().misses, 2);
  for (const TunedPoint& point : report.points)
    EXPECT_TRUE(point.row.ok()) << point.row.error;
}

// ---- TuneSpace: the one point expander ----

TEST(TuneSpaceTest, EmptySpaceIsTheBasePoint) {
  const TuneSpace space;
  EXPECT_EQ(space.size(), 1u);
  const std::vector<SweepPoint> points = space.points();
  ASSERT_EQ(points.size(), 1u);
  EXPECT_EQ(points[0].label, "base");
  EXPECT_TRUE(points[0].params.empty());
  EXPECT_TRUE(space.neighbors(0).empty());
}

TEST(TuneSpaceTest, PointsEnumerateTheCrossProductInRankOrder) {
  TuneSpace space;
  space.axes.push_back(TuneAxis{"sharing", {"0", "1"}});
  space.axes.push_back(TuneAxis{"unroll", {"1", "2", "4"}});
  space.axes.push_back(TuneAxis{"layout", {"rowmajor", "colmajor"}});
  ASSERT_EQ(space.size(), 12u);
  EXPECT_EQ(space.stride(0), 6u);
  EXPECT_EQ(space.stride(1), 2u);
  EXPECT_EQ(space.stride(2), 1u);

  const std::vector<std::string> expected = {
      "sharing=0 unroll=1 layout=rowmajor",
      "sharing=0 unroll=1 layout=colmajor",
      "sharing=0 unroll=2 layout=rowmajor",
      "sharing=0 unroll=2 layout=colmajor",
      "sharing=0 unroll=4 layout=rowmajor",
      "sharing=0 unroll=4 layout=colmajor",
      "sharing=1 unroll=1 layout=rowmajor",
      "sharing=1 unroll=1 layout=colmajor",
      "sharing=1 unroll=2 layout=rowmajor",
      "sharing=1 unroll=2 layout=colmajor",
      "sharing=1 unroll=4 layout=rowmajor",
      "sharing=1 unroll=4 layout=colmajor",
  };
  const std::vector<SweepPoint> points = space.points();
  ASSERT_EQ(points.size(), expected.size());
  for (std::size_t rank = 0; rank < points.size(); ++rank) {
    EXPECT_EQ(points[rank].label, expected[rank]) << rank;
    // The params spell the label: one (key, value) per axis, in order.
    std::vector<std::pair<std::string, std::string>> params;
    std::istringstream words(expected[rank]);
    for (std::string word; words >> word;)
      params.emplace_back(word.substr(0, word.find('=')),
                          word.substr(word.find('=') + 1));
    EXPECT_EQ(points[rank].params, params) << rank;
    const SweepPoint single = space.point(rank);
    EXPECT_EQ(single.label, points[rank].label) << rank;
    EXPECT_EQ(single.params, points[rank].params) << rank;
  }
}

TEST(TuneSpaceTest, NeighborsAreOneValueStepAlongEachAxis) {
  TuneSpace space;
  space.axes.push_back(TuneAxis{"sharing", {"0", "1"}});
  space.axes.push_back(TuneAxis{"unroll", {"1", "2", "4"}});
  space.axes.push_back(TuneAxis{"layout", {"rowmajor", "colmajor"}});
  // Rank 0 (0, 1, rowmajor): only upper neighbors.
  EXPECT_EQ(space.neighbors(0), (std::vector<std::size_t>{6, 2, 1}));
  // Rank 9 (1, 2, colmajor): sharing down, unroll down/up, layout down.
  EXPECT_EQ(space.neighbors(9), (std::vector<std::size_t>{3, 7, 11, 8}));
  // Rank 11 (1, 4, colmajor): the last point.
  EXPECT_EQ(space.neighbors(11), (std::vector<std::size_t>{5, 9, 10}));
}

TEST(TuneSpaceTest, SizeSaturatesInsteadOfWrapping) {
  // 8 axes of 256 values: 2^64 points, which wrapped to 0 in a plain
  // size_t product.
  std::vector<std::string> values;
  for (int i = 0; i < 256; ++i)
    values.push_back(std::to_string(i + 1));
  TuneSpace space;
  for (const char* key : {"unroll", "opt", "m", "k", "sharing", "decoupled",
                          "objective", "layout"})
    space.axes.push_back(TuneAxis{key, values});
  EXPECT_EQ(space.size(), std::numeric_limits<std::size_t>::max());

  DiagnosticList diagnostics;
  EXPECT_FALSE(validateTuneAxes(space.axes, diagnostics));
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_EQ(diagnostics[0].stage, "options");
  EXPECT_NE(diagnostics[0].message.find("65536"), std::string::npos)
      << diagnostics[0].message;
}

TEST(TuneSpaceTest, ValidatorRejectsRepeatedKeysAndEmptyAxes) {
  DiagnosticList diagnostics;
  EXPECT_FALSE(validateTuneAxes(
      {{"unroll", {"1", "2"}}, {"sharing", {}}, {"unroll", {"4"}}},
      diagnostics));
  ASSERT_EQ(diagnostics.size(), 2u);
  EXPECT_EQ(diagnostics[0].message, "axis 'sharing' has no values");
  EXPECT_EQ(diagnostics[1].message, "axis 'unroll' is declared twice");
  DiagnosticList clean;
  EXPECT_TRUE(validateTuneAxes(
      {{"unroll", {"1", "2"}}, {"sharing", {"0", "1"}}}, clean));
  EXPECT_TRUE(clean.empty());
}

TEST(TuneSpaceTest, TuneOverTheBoundIsOneDiagnosticAndNoCompile) {
  // 257 x 255 = 65,535 points is within the bound; 257 x 256 = 65,792
  // and 65,537 points on one axis are not.
  auto values = [](int count) {
    std::vector<std::string> out;
    for (int i = 0; i < count; ++i)
      out.push_back(std::to_string(i + 1));
    return out;
  };
  // m and k take any integer (an unroll factor must be a power of two).
  DiagnosticList within;
  EXPECT_TRUE(validateTuneAxes({{"m", values(257)}, {"k", values(255)}},
                               within));

  Session session;
  const Expected<TuningReport> tuned = session.tune(
      TuneRequest(test::kMatMul2D).axis("unroll", values(65537)));
  ASSERT_FALSE(tuned.ok());
  ASSERT_EQ(tuned.diagnostics().size(), 1u);
  EXPECT_EQ(tuned.diagnostics()[0].stage, "options");
  EXPECT_EQ(tuned.diagnostics()[0].message,
            "design space of 65537 points exceeds the bound of 65536 "
            "(kMaxSpacePoints)");
  EXPECT_EQ(session.flowCache().stats().misses, 0);
}

// ---- Strategies ----

std::vector<std::string> labels(const TuningReport& report) {
  std::vector<std::string> out;
  for (const TunedPoint& point : report.points)
    out.push_back(point.label());
  return out;
}

TuneSpace smallSpace() {
  TuneSpace space;
  space.axes.push_back(TuneAxis{"unroll", {"1", "2"}});
  space.axes.push_back(TuneAxis{"sharing", {"0", "1"}});
  space.axes.push_back(TuneAxis{"decoupled", {"0", "1"}});
  return space;
}

TEST(TunerTest, ExhaustiveCoversTheWholeSpace) {
  Session session;
  const TuningReport report =
      tune(session, test::kMatMul2D, smallSpace(), {});
  EXPECT_EQ(report.points.size(), 8u);
  EXPECT_EQ(report.spaceSize, 8u);
  EXPECT_EQ(report.prunedCount, 0u);
  EXPECT_FALSE(report.frontier.empty());
  for (std::size_t index : report.frontier)
    EXPECT_TRUE(report.points[index].onFrontier);
}

TEST(TunerTest, RandomIsSeedDeterministicAcrossWorkerCounts) {
  TunerOptions base;
  base.strategy = SearchStrategy::Random;
  base.seed = 1234;
  base.sampleCount = 5;

  Session sessionA, sessionB(SessionOptions{.workers = 4});
  TunerOptions a = base;
  a.workers = 1;
  TunerOptions b = base;
  b.workers = 4;

  const TuningReport first = tune(sessionA, test::kMatMul2D, smallSpace(), a);
  const TuningReport second =
      tune(sessionB, test::kMatMul2D, smallSpace(), b);

  EXPECT_EQ(first.points.size(), 5u);
  EXPECT_EQ(labels(first), labels(second));
  EXPECT_EQ(first.frontier, second.frontier);
  for (std::size_t i = 0; i < first.points.size(); ++i)
    EXPECT_EQ(first.points[i].scores, second.points[i].scores);

  // And it evaluates strictly fewer points than exhaustive.
  Session sessionC;
  const TuningReport full =
      tune(sessionC, test::kMatMul2D, smallSpace(), {});
  EXPECT_LT(first.points.size(), full.points.size());
}

TEST(TunerTest, HillClimbConvergesOnAConvexToyObjective) {
  // Convex in the axis index: (log2(m) - 2)^2 is minimized at m = 4.
  Objective toy{"toy", [](const ExplorationRow& row) {
                  const double x =
                      std::log2(double(row.options.system.memories));
                  return (x - 2.0) * (x - 2.0);
                }};

  TuneSpace space;
  space.axes.push_back(TuneAxis{"m", {"1", "2", "4", "8", "16"}});

  Session session;
  TunerOptions options;
  options.strategy = SearchStrategy::HillClimb;
  options.objectives = {toy};
  const TuningReport report = tune(session, test::kMatMul2D, space, options);

  // Walk: m=1 -> m=2 -> m=4, then the m=8 neighbor scores worse and the
  // climb stops. m=16 is never compiled.
  ASSERT_FALSE(report.points.empty());
  EXPECT_LT(report.points.size(), report.spaceSize);
  ASSERT_EQ(report.frontier.size(), 1u);
  EXPECT_EQ(report.points[report.frontier[0]].label(), "m=4");
  EXPECT_DOUBLE_EQ(report.points[report.frontier[0]].scores[0], 0.0);

  // Determinism: the same climb revisits the same points.
  Session session2;
  TunerOptions again = options;
  again.workers = 3;
  const TuningReport repeat = tune(session2, test::kMatMul2D, space, again);
  EXPECT_EQ(labels(report), labels(repeat));
}

TEST(TunerTest, EmptySpaceEvaluatesTheBasePoint) {
  Session session;
  const TuningReport report =
      tune(session, test::kMatMul2D, TuneSpace{}, {});
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_EQ(report.points[0].label(), "base");
  EXPECT_EQ(report.frontier, (std::vector<std::size_t>{0}));
}

TEST(TunerTest, RejectsUnknownAxesBeforeEvaluating) {
  Session session;
  TuneSpace space;
  space.axes.push_back(TuneAxis{"warp", {"1"}});
  EXPECT_THROW(tune(session, test::kMatMul2D, space, {}), FlowError);
  TuneSpace empty;
  empty.axes.push_back(TuneAxis{"unroll", {}});
  EXPECT_THROW(tune(session, test::kMatMul2D, empty, {}), FlowError);
  EXPECT_EQ(session.flowCache().stats().misses, 0);
}

// ---- Cache accounting (ExplorationRow::cacheHit satellite) ----

TEST(TunerTest, SecondRunIsServedFromTheCache) {
  Session session;
  const TuningReport cold =
      tune(session, test::kMatMul2D, smallSpace(), {});
  EXPECT_EQ(cold.cacheHitCount, 0u);
  const TuningReport warm =
      tune(session, test::kMatMul2D, smallSpace(), {});
  EXPECT_EQ(warm.cacheHitCount, warm.points.size());
  for (const TunedPoint& point : warm.points)
    EXPECT_TRUE(point.row.cacheHit);
  // Scores are identical either way.
  for (std::size_t i = 0; i < cold.points.size(); ++i)
    EXPECT_EQ(cold.points[i].scores, warm.points[i].scores);
}

TEST(ExplorerTest, RowsReportCacheHits) {
  Session session;
  const std::vector<FlowOptions> variants(2);
  const ExplorationResult cold =
      explore(session, test::kMatMul2D, variants, {});
  // Two identical variants: one compile, one hit (dedup inside the
  // cache, regardless of which worker wins the race).
  EXPECT_EQ(cold.cacheHitCount(), 1u);
  const ExplorationResult warm =
      explore(session, test::kMatMul2D, variants, {});
  EXPECT_EQ(warm.cacheHitCount(), 2u);
  for (const ExplorationRow& row : warm.rows)
    EXPECT_TRUE(row.cacheHit);
}

// ---- JSON report shape and round-trip ----

TEST(TunerTest, JsonReportRoundTripsWithTheExpectedShape) {
  Session session;
  const TuningReport report =
      tune(session, test::kMatMul2D, smallSpace(), {});

  const std::string text = report.jsonText();
  const json::Value doc = json::Value::parse(text);

  EXPECT_EQ(doc.at("schema").asString(), "cfd-tune-report-v1");
  EXPECT_EQ(doc.at("strategy").asString(), "exhaustive");
  EXPECT_EQ(doc.at("space").at("size").asInt(), 8);
  EXPECT_EQ(doc.at("space").at("axes").size(), 3u);
  EXPECT_EQ(doc.at("objectives").size(), 2u);
  EXPECT_EQ(doc.at("objectives").at(0u).asString(), "latency");
  EXPECT_EQ(doc.at("stats").at("evaluated").asInt(),
            static_cast<std::int64_t>(report.points.size()));
  ASSERT_EQ(doc.at("points").size(), report.points.size());
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const json::Value& point = doc.at("points").at(i);
    EXPECT_TRUE(point.at("feasible").asBool());
    EXPECT_TRUE(point.contains("scores"));
    EXPECT_TRUE(point.at("system").contains("bram36"));
    EXPECT_EQ(point.at("pareto").asBool(), report.points[i].onFrontier);
  }
  ASSERT_EQ(doc.at("frontier").size(), report.frontier.size());
  for (std::size_t i = 0; i < report.frontier.size(); ++i)
    EXPECT_EQ(doc.at("frontier").at(i).asInt(),
              static_cast<std::int64_t>(report.frontier[i]));
  EXPECT_TRUE(doc.contains("timing"));

  // Lossless round-trip: parse(dump) == dump.
  EXPECT_EQ(doc.dump(2) + "\n", text);
}

TEST(TunerTest, JsonReportIsDeterministicModuloTiming) {
  // Two cold runs on separate caches must agree on everything except
  // the "timing" object and per-point compile_ms/cache_hit fields.
  Session sessionA, sessionB;
  TunerOptions a, b;
  b.workers = 2;
  const json::Value first =
      tune(sessionA, test::kMatMul2D, smallSpace(), a).toJson();
  const json::Value second =
      tune(sessionB, test::kMatMul2D, smallSpace(), b).toJson();

  for (const char* key : {"schema", "strategy", "seed", "space",
                          "objectives", "points", "frontier"}) {
    if (std::string(key) == "points") {
      ASSERT_EQ(first.at("points").size(), second.at("points").size());
      for (std::size_t i = 0; i < first.at("points").size(); ++i) {
        const json::Value& p1 = first.at("points").at(i);
        const json::Value& p2 = second.at("points").at(i);
        for (const char* field : {"params", "feasible", "scores",
                                  "system", "pareto"})
          EXPECT_EQ(p1.at(field).dump(-1), p2.at(field).dump(-1))
              << "point " << i << " field " << field;
      }
      continue;
    }
    EXPECT_EQ(first.at(key).dump(-1), second.at(key).dump(-1)) << key;
  }
}

// ---- Report bytes, pinned per strategy ----

/// Byte count and FNV-1a of a report text without its run-dependent
/// lines ("compile_ms", "cache_hit", "wall_ms", DESIGN.md §8).
std::pair<std::size_t, std::uint64_t> reportPin(const std::string& text) {
  std::string kept;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.find("\"compile_ms\"") != std::string::npos ||
        line.find("\"cache_hit\"") != std::string::npos ||
        line.find("\"wall_ms\"") != std::string::npos)
      continue;
    kept += line;
    kept += '\n';
  }
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const unsigned char c : kept) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return {kept.size(), hash};
}

TEST(TunerTest, ReportBytesArePinnedForEveryStrategy) {
  // 3 x 2 x 3 = 18 points: k = 3 with m = 4 or 8 is pruned, k = 0
  // leaves m/k to system generation. A change to any strategy's point
  // order, labels, params, pruning or scores moves these bytes.
  TuneSpace space;
  space.axes.push_back(TuneAxis{"unroll", {"1", "2", "4"}});
  space.axes.push_back(TuneAxis{"m", {"4", "8"}});
  space.axes.push_back(TuneAxis{"k", {"0", "2", "3"}});

  TunerOptions exhaustive;
  exhaustive.workers = 1;
  TunerOptions random = exhaustive;
  random.strategy = SearchStrategy::Random;
  random.seed = 7;
  random.sampleCount = 4;
  TunerOptions climb = exhaustive;
  climb.strategy = SearchStrategy::HillClimb;

  const struct {
    const char* name;
    TunerOptions options;
    std::size_t size;
    std::uint64_t fnv;
  } cases[] = {
      {"exhaustive", exhaustive, 6397, 2320888018917523347ull},
      {"random", random, 2152, 13370289483958612589ull},
      {"hillclimb", climb, 4357, 1469012835673328932ull},
  };
  for (const auto& c : cases) {
    Session session(SessionOptions{.workers = 1});
    const auto [size, fnv] = reportPin(
        tune(session, test::kMatMul2D, space, c.options).jsonText());
    EXPECT_EQ(size, c.size) << c.name;
    EXPECT_EQ(fnv, c.fnv) << c.name;
  }
}

} // namespace
} // namespace cfd
