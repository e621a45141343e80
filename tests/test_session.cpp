// Tests for the cfd::Session service API (DESIGN.md §10): shared
// caches under concurrent compiles, exception-free error paths with
// structured diagnostics, session-default option round-trips, and the
// request/result surface (sweep, tune, artifact materialization).
#include "core/Session.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace cfd {
namespace {

TEST(SessionTest, ConcurrentCompilesShareTheStageCache) {
  Session session;
  // Warm the parse..memory-plan prefix once, so every concurrent
  // HLS-only variant below can adopt it (the acceptance hammer for the
  // TSan CI job: ≥8 threads against one session). Each thread drives
  // its compile through the async job queue — both the submission path
  // and the synchronous wait run concurrently against shared state.
  ASSERT_TRUE(session.compile(CompileRequest(test::kInverseHelmholtz)).ok());

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&session, &failures, t] {
      CompileRequest request(test::kInverseHelmholtz);
      FlowOptions options;
      options.hls.clockMHz = 120.0 + 10.0 * t; // distinct per thread
      request.options(options);
      const Job<CompileResult> job =
          session.submitCompile(std::move(request));
      const Expected<CompileResult>& result = job.wait();
      if (!result.ok() || result->flow().systemDesign().m <= 0 ||
          job.state() != JobState::Done)
        ++failures;
    });
  for (std::thread& thread : threads)
    thread.join();
  EXPECT_EQ(failures.load(), 0);

  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.compileRequests, kThreads + 1);
  // Job accounting must be consistent, not just the hit rates: nothing
  // was cancelled, so completed = submitted - cancelled = all of them,
  // and nothing may linger in the queue after every handle resolved.
  EXPECT_EQ(stats.jobsSubmitted, kThreads);
  EXPECT_EQ(stats.jobsCancelled, 0);
  EXPECT_EQ(stats.jobsCompleted, stats.jobsSubmitted - stats.jobsCancelled);
  EXPECT_EQ(stats.jobQueueDepth, 0);
  EXPECT_EQ(stats.jobsRunning, 0);
  // Every thread compiled a distinct configuration, so the whole-flow
  // cache cannot have served them — the stage cache must have: each
  // variant adopts the warmed parse..memory-plan prefix.
  EXPECT_GT(stats.stageCache.hits, 0);
  const double hitRate =
      static_cast<double>(stats.stageCache.hits) /
      static_cast<double>(stats.stageCache.hits + stats.stageCache.misses);
  EXPECT_GT(hitRate, 0.0);
}

TEST(SessionTest, ConcurrentIdenticalCompilesDeduplicate) {
  Session session;
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&session, &failures] {
      if (!session.compile(CompileRequest(test::kMatMul2D)).ok())
        ++failures;
    });
  for (std::thread& thread : threads)
    thread.join();
  EXPECT_EQ(failures.load(), 0);
  const Session::Stats stats = session.stats();
  // One thread compiled; everyone else hit the entry or joined the
  // in-flight compile.
  EXPECT_EQ(stats.flowCache.misses, 1);
  EXPECT_EQ(stats.flowCache.hits, kThreads - 1);
  // Each stage was computed once, by whichever thread claimed it, and
  // every thread that compiled (the miss and each in-flight join)
  // looked up all nine stages.
  EXPECT_EQ(stats.stageCache.misses, kStageCount);
  EXPECT_EQ(stats.stageCache.hits + stats.stageCache.misses,
            kStageCount *
                (stats.flowCache.misses + stats.flowCache.inFlightJoins));
}

TEST(SessionTest, MalformedSourceReturnsParseDiagnosticsWithoutThrowing) {
  Session session;
  Expected<CompileResult> result =
      session.compile(CompileRequest("not a program"));
  ASSERT_FALSE(result.ok());
  ASSERT_GE(result.diagnostics().size(), 1u);
  bool sawLocatedParseError = false;
  for (const Diagnostic& diagnostic : result.diagnostics())
    if (diagnostic.severity == Severity::Error &&
        diagnostic.stage == "parse" && diagnostic.location.isValid())
      sawLocatedParseError = true;
  EXPECT_TRUE(sawLocatedParseError) << result.errorText();
  EXPECT_EQ(session.stats().failedRequests, 1);
}

TEST(SessionTest, SemanticErrorsCarryStageAndLocation) {
  Session session;
  const Expected<CompileResult> result =
      session.compile(CompileRequest("var output v : [3]\nv = missing"));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.diagnostics().hasErrors());
  for (const Diagnostic& diagnostic : result.diagnostics()) {
    EXPECT_EQ(diagnostic.stage, "parse"); // frontend = the parse stage
    EXPECT_TRUE(diagnostic.location.isValid());
  }
}

TEST(SessionTest, InfeasibleConstraintsAreStageAttributedDiagnostics) {
  // m = 3, k = 2 violates the §V-B structural constraint inside system
  // generation — a post-frontend error with no source location, but a
  // stage of origin.
  Session session;
  CompileRequest request(test::kMatMul2D);
  FlowOptions options;
  options.system.memories = 3;
  options.system.kernels = 2;
  request.options(options);
  const Expected<CompileResult> result = session.compile(request);
  ASSERT_FALSE(result.ok());
  ASSERT_GE(result.diagnostics().size(), 1u);
  EXPECT_EQ(result.diagnostics()[0].stage, "sysgen");
  EXPECT_FALSE(result.diagnostics()[0].location.isValid());
}

TEST(SessionTest, DefaultOptionOverrideRoundTripsIntoTheResult) {
  SessionOptions sessionOptions;
  sessionOptions.defaults.hls.unrollFactor = 2;
  Session session(sessionOptions);

  // Session default applies...
  const Expected<CompileResult> withDefault =
      session.compile(CompileRequest(test::kInverseHelmholtz));
  ASSERT_TRUE(withDefault.ok()) << withDefault.errorText();
  EXPECT_EQ(withDefault->options().hls.unrollFactor, 2);

  // ...a named per-request override wins over the default...
  const Expected<CompileResult> withOverride = session.compile(
      CompileRequest(test::kInverseHelmholtz).set("unroll", "4"));
  ASSERT_TRUE(withOverride.ok()) << withOverride.errorText();
  EXPECT_EQ(withOverride->options().hls.unrollFactor, 4);

  // ...and setDefaultOptions changes the base for later requests.
  FlowOptions defaults = session.defaultOptions();
  defaults.hls.unrollFactor = 1;
  session.setDefaultOptions(defaults);
  const Expected<CompileResult> afterChange =
      session.compile(CompileRequest(test::kInverseHelmholtz));
  ASSERT_TRUE(afterChange.ok());
  EXPECT_EQ(afterChange->options().hls.unrollFactor, 1);
}

TEST(SessionTest, SuccessCarriesFrontendWarnings) {
  Session session;
  const Expected<CompileResult> result = session.compile(CompileRequest(
      "var input  A : [4 5]\n"
      "var input  B : [5 6]\n"
      "var input  X : [3 3]\n" // never used -> sema warning
      "var output C : [4 6]\n"
      "C = A # B . [[1 2]]\n"));
  ASSERT_TRUE(result.ok()) << result.errorText();
  ASSERT_GE(result.diagnostics().size(), 1u);
  EXPECT_FALSE(result.diagnostics().hasErrors());
  EXPECT_EQ(result.diagnostics()[0].severity, Severity::Warning);
  EXPECT_EQ(result.diagnostics()[0].stage, "parse");
  EXPECT_NE(result.diagnostics()[0].message.find("'X' is never used"),
            std::string::npos);
  // Warm repeat: the warnings live on the cached artifact.
  const Expected<CompileResult> warm = session.compile(CompileRequest(
      "var input  A : [4 5]\n"
      "var input  B : [5 6]\n"
      "var input  X : [3 3]\n"
      "var output C : [4 6]\n"
      "C = A # B . [[1 2]]\n"));
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm->cacheHit());
  EXPECT_EQ(warm.diagnostics().size(), result.diagnostics().size());
}

TEST(SessionTest, UnknownOverrideKeyIsAnOptionsDiagnostic) {
  Session session;
  const Expected<CompileResult> result = session.compile(
      CompileRequest(test::kMatMul2D).set("warp", "1"));
  ASSERT_FALSE(result.ok());
  ASSERT_GE(result.diagnostics().size(), 1u);
  EXPECT_EQ(result.diagnostics()[0].stage, "options");
}

TEST(SessionTest, MaterializedArtifactsMatchTheFlow) {
  Session session;
  const Expected<CompileResult> result = session.compile(
      CompileRequest(test::kInverseHelmholtz)
          .materialize(Artifacts::CCode | Artifacts::HostCode));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->cCode().empty());
  EXPECT_FALSE(result->hostCode().empty());
  EXPECT_TRUE(result->mnemosyneConfig().empty()); // not requested
  EXPECT_EQ(result->cCode(), result->flow().cCode());
}

TEST(SessionTest, RepeatedCompilesHitTheSessionCache) {
  Session session;
  const Expected<CompileResult> first =
      session.compile(CompileRequest(test::kMatMul2D));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cacheHit());
  const Expected<CompileResult> second =
      session.compile(CompileRequest(test::kMatMul2D));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cacheHit());
  // Same immutable flow underneath.
  EXPECT_EQ(first->sharedFlow().get(), second->sharedFlow().get());
}

TEST(SessionTest, SweepExpandsAxesOverTheSessionDefaults) {
  Session session;
  const Expected<SweepResult> swept = session.sweep(
      SweepRequest(test::kInverseHelmholtz)
          .axis("unroll", {"1", "2"})
          .axis("sharing", {"0", "1"}));
  ASSERT_TRUE(swept.ok()) << swept.errorText();
  ASSERT_EQ(swept->rows().size(), 4u);
  ASSERT_EQ(swept->labels.size(), 4u);
  EXPECT_EQ(swept->labels[0], "unroll=1 sharing=0");
  EXPECT_EQ(swept->labels[3], "unroll=2 sharing=1");
  for (const ExplorationRow& row : swept->rows())
    EXPECT_TRUE(row.ok()) << row.error;
  // The sweep compiled through the session cache: a repeat is all hits.
  const Expected<SweepResult> again = session.sweep(
      SweepRequest(test::kInverseHelmholtz)
          .axis("unroll", {"1", "2"})
          .axis("sharing", {"0", "1"}));
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->exploration.cacheHitCount(), 4u);
}

TEST(SessionTest, OneSessionServesAMixedRequestStreamFromItsCaches) {
  // 24 requests: every 6th a 2-point unroll sweep, the rest compiles
  // cycling through 4 HLS clocks, so one long-lived session sees
  // repeats (flow-cache hits) and variants of one prefix (stage hits).
  Session session;
  for (int i = 0; i < 24; ++i) {
    if (i % 6 == 5) {
      const Expected<SweepResult> swept =
          session.sweep(SweepRequest(test::kInverseHelmholtz)
                            .axis("unroll", {"1", "2"})
                            .workers(1));
      ASSERT_TRUE(swept.ok()) << swept.errorText();
      EXPECT_EQ(swept->exploration.feasibleCount(), 2u);
      continue;
    }
    FlowOptions options;
    options.hls.clockMHz = 100.0 + 25.0 * (i % 4);
    ASSERT_TRUE(session
                    .compile(CompileRequest(test::kInverseHelmholtz)
                                 .options(options))
                    .ok());
  }
  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.flowCache.hits, 22);
  EXPECT_EQ(stats.flowCache.misses, 6);
  EXPECT_EQ(stats.stageCache.hits, 34);
  EXPECT_EQ(stats.stageCache.misses, 20);
  EXPECT_EQ(stats.stageCache.evictions, 0);
  EXPECT_EQ(stats.compileRequests, 20);
  EXPECT_EQ(stats.sweepRequests, 4);
  EXPECT_EQ(stats.failedRequests, 0);
}

TEST(SessionTest, SweepRejectsMixedAxesAndVariants) {
  Session session;
  const Expected<SweepResult> swept = session.sweep(
      SweepRequest(test::kMatMul2D)
          .axis("unroll", {"1"})
          .variants({FlowOptions{}}));
  ASSERT_FALSE(swept.ok());
  EXPECT_EQ(swept.diagnostics()[0].stage, "options");
}

/// "1", "2", ..., `count` as axis values.
std::vector<std::string> numbered(int count) {
  std::vector<std::string> values;
  for (int i = 1; i <= count; ++i)
    values.push_back(std::to_string(i));
  return values;
}

TEST(SessionTest, SweepOverTheBoundIsOneDiagnosticBeforeExpanding) {
  Session session;
  // 65,537 points as one axis, and as explicit points.
  const Expected<SweepResult> axis =
      session.sweep(SweepRequest(test::kMatMul2D).axis("unroll",
                                                       numbered(65537)));
  const Expected<SweepResult> points = session.sweep(
      SweepRequest(test::kMatMul2D)
          .points(std::vector<SweepPoint>(65537, SweepPoint{"p", {}})));
  for (const Expected<SweepResult>* swept : {&axis, &points}) {
    ASSERT_FALSE(swept->ok());
    ASSERT_EQ(swept->diagnostics().size(), 1u);
    EXPECT_EQ(swept->diagnostics()[0].stage, "options");
    EXPECT_EQ(swept->diagnostics()[0].message,
              "design space of 65537 points exceeds the bound of 65536 "
              "(kMaxSpacePoints)");
  }
  EXPECT_EQ(session.flowCache().stats().misses, 0);
  EXPECT_EQ(session.stats().failedRequests, 2);
}

TEST(SessionTest, TuneRunsThroughTheSessionPool) {
  Session session;
  const Expected<TuningReport> report = session.tune(
      TuneRequest(test::kMatMul2D)
          .axis("unroll", {"1", "2"})
          .objectives({"latency", "bram"}));
  ASSERT_TRUE(report.ok()) << report.errorText();
  EXPECT_EQ(report->points.size(), 2u);
  EXPECT_FALSE(report->frontier.empty());
  // Bad objective names are diagnostics, not exceptions.
  const Expected<TuningReport> bad = session.tune(
      TuneRequest(test::kMatMul2D).objectives({"carbon"}));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.diagnostics()[0].stage, "options");
}

TEST(SessionTest, StatsCountRequestsAndPoolState) {
  Session session(SessionOptions{.workers = 2});
  EXPECT_EQ(session.workerPool().threadCount(), 2);
  EXPECT_FALSE(session.workerPool().started());
  ASSERT_TRUE(session.compile(CompileRequest(test::kMatMul2D)).ok());
  // A single compile never starts the pool; a sweep with >1 job does.
  EXPECT_FALSE(session.workerPool().started());
  ASSERT_TRUE(session
                  .sweep(SweepRequest(test::kMatMul2D)
                             .axis("unroll", {"1", "2"}))
                  .ok());
  EXPECT_TRUE(session.workerPool().started());
  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.compileRequests, 1);
  EXPECT_EQ(stats.sweepRequests, 1);
  EXPECT_EQ(stats.workerThreads, 2);
  EXPECT_TRUE(stats.workersStarted);
  EXPECT_FALSE(session.statsReport().empty());
}

} // namespace
} // namespace cfd
