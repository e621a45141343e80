// Incremental stage-graph compilation (DESIGN.md §9): per-stage
// fingerprints, artifact adoption, invalidation, and byte-identity of
// incremental vs cold compiles.
#include "core/Explorer.h"
#include "core/FlowCache.h"
#include "core/Pipeline.h"
#include "core/Session.h"
#include "core/StageCache.h"
#include "support/Error.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <thread>
#include <vector>

namespace cfd {
namespace {

// ---- Fingerprints: order- and padding-stability, sensitivity ----

TEST(FingerprintTest, SeparatelyConstructedEqualOptionsHashEqual) {
  // Fingerprints mix fields explicitly (support/Hash.h), so two
  // instances built independently — with whatever garbage their padding
  // bytes hold — must agree.
  EXPECT_EQ(ir::LoweringOptions{}.fingerprint(),
            ir::LoweringOptions{}.fingerprint());
  EXPECT_EQ(ir::OptimizeOptions{}.fingerprint(),
            ir::OptimizeOptions{}.fingerprint());
  EXPECT_EQ(sched::LayoutOptions{}.fingerprint(),
            sched::LayoutOptions{}.fingerprint());
  EXPECT_EQ(sched::RescheduleOptions{}.fingerprint(),
            sched::RescheduleOptions{}.fingerprint());
  EXPECT_EQ(mem::MemoryPlanOptions{}.fingerprint(),
            mem::MemoryPlanOptions{}.fingerprint());
  EXPECT_EQ(hls::HlsOptions{}.fingerprint(), hls::HlsOptions{}.fingerprint());
  EXPECT_EQ(sysgen::SystemOptions{}.fingerprint(),
            sysgen::SystemOptions{}.fingerprint());
  EXPECT_EQ(codegen::CEmitterOptions{}.fingerprint(),
            codegen::CEmitterOptions{}.fingerprint());
}

TEST(FingerprintTest, MapInsertionOrderDoesNotLeakIntoTheValue) {
  sched::LayoutOptions forward;
  forward.perTensor["a"] = sched::LayoutKind::ColumnMajor;
  forward.perTensor["b"] = sched::LayoutKind::RowMajor;
  forward.partitions["u"] = {sched::PartitionSpec::Kind::Cyclic, 2, 4};
  forward.partitions["v"] = {sched::PartitionSpec::Kind::Block, 0, 2};

  sched::LayoutOptions backward;
  backward.partitions["v"] = {sched::PartitionSpec::Kind::Block, 0, 2};
  backward.partitions["u"] = {sched::PartitionSpec::Kind::Cyclic, 2, 4};
  backward.perTensor["b"] = sched::LayoutKind::RowMajor;
  backward.perTensor["a"] = sched::LayoutKind::ColumnMajor;

  EXPECT_EQ(forward, backward);
  EXPECT_EQ(forward.fingerprint(), backward.fingerprint());
}

TEST(FingerprintTest, EveryFieldChangesTheValue) {
  // One mutation per struct: different value => different fingerprint
  // (64-bit collisions are possible in principle, never for these).
  ir::LoweringOptions lowering;
  lowering.factorization = ir::FactorizationOrder::LeftToRight;
  EXPECT_NE(lowering.fingerprint(), ir::LoweringOptions{}.fingerprint());

  ir::OptimizeOptions optimize;
  optimize.level = 2;
  EXPECT_NE(optimize.fingerprint(), ir::OptimizeOptions{}.fingerprint());

  sched::RescheduleOptions reschedule;
  reschedule.permuteLoops = false;
  EXPECT_NE(reschedule.fingerprint(),
            sched::RescheduleOptions{}.fingerprint());

  mem::MemoryPlanOptions memory;
  memory.banks = 2;
  EXPECT_NE(memory.fingerprint(), mem::MemoryPlanOptions{}.fingerprint());

  hls::HlsOptions hls;
  hls.clockMHz += 1.0;
  EXPECT_NE(hls.fingerprint(), hls::HlsOptions{}.fingerprint());

  sysgen::SystemOptions system;
  system.reservedBram36 += 1;
  EXPECT_NE(system.fingerprint(), sysgen::SystemOptions{}.fingerprint());

  codegen::CEmitterOptions emitter;
  emitter.functionName = "other";
  EXPECT_NE(emitter.fingerprint(), codegen::CEmitterOptions{}.fingerprint());
}

TEST(FingerprintTest, DistinctStructsWithEqualFieldsHashDifferently) {
  // Each fingerprint is salted with its struct name, so the all-default
  // option structs never collide with each other.
  std::set<std::uint64_t> values{
      ir::LoweringOptions{}.fingerprint(),
      ir::OptimizeOptions{}.fingerprint(),
      sched::LayoutOptions{}.fingerprint(),
      sched::RescheduleOptions{}.fingerprint(),
      mem::MemoryPlanOptions{}.fingerprint(),
      hls::HlsOptions{}.fingerprint(),
      sysgen::SystemOptions{}.fingerprint(),
      codegen::CEmitterOptions{}.fingerprint(),
  };
  EXPECT_EQ(values.size(), 8u);
}

// ---- Stage keys: the DESIGN.md §9 derivation table ----

TEST(StageKeyTest, HlsOptionsOnlyPerturbHlsAndSysgenKeys) {
  FlowOptions base;
  FlowOptions hlsOnly;
  hlsOnly.hls.clockMHz = 150.0;
  normalizeOptions(base);
  normalizeOptions(hlsOnly);
  const auto a = computeStageKeys(test::kInverseHelmholtz, base);
  const auto b = computeStageKeys(test::kInverseHelmholtz, hlsOnly);
  for (int i = 0; i < static_cast<int>(Stage::Hls); ++i)
    EXPECT_EQ(a[i], b[i]) << "stage " << stageName(static_cast<Stage>(i));
  EXPECT_NE(a[static_cast<int>(Stage::Hls)], b[static_cast<int>(Stage::Hls)]);
  EXPECT_NE(a[static_cast<int>(Stage::SysGen)],
            b[static_cast<int>(Stage::SysGen)]);
}

TEST(StageKeyTest, LoweringOptionsInvalidateEverythingPastParse) {
  FlowOptions base;
  FlowOptions lowering;
  lowering.lowering.factorization = ir::FactorizationOrder::LeftToRight;
  const auto a = computeStageKeys(test::kInverseHelmholtz, base);
  const auto b = computeStageKeys(test::kInverseHelmholtz, lowering);
  EXPECT_EQ(a[static_cast<int>(Stage::Parse)],
            b[static_cast<int>(Stage::Parse)]);
  for (int i = static_cast<int>(Stage::Lower); i < kStageCount; ++i)
    EXPECT_NE(a[i], b[i]) << "stage " << stageName(static_cast<Stage>(i));
}

TEST(StageKeyTest, SourceChangesEveryKey) {
  FlowOptions options;
  const auto a = computeStageKeys(test::kInverseHelmholtz, options);
  const auto b = computeStageKeys(test::inverseHelmholtzSource(5), options);
  for (int i = 0; i < kStageCount; ++i)
    EXPECT_NE(a[i], b[i]);
}

// ---- Artifact adoption and invalidation through FlowCache ----

TEST(IncrementalTest, HlsOnlyChangeReusesThePrefixArtifactPointers) {
  FlowCache cache;
  const auto base = cache.compile(test::kInverseHelmholtz);
  FlowOptions hlsOnly;
  hlsOnly.hls.clockMHz = 150.0;
  const auto variant = cache.compile(test::kInverseHelmholtz, hlsOnly);

  // Same immutable artifacts, not equal copies: the schedule (and its
  // whole prefix) is adopted by pointer.
  EXPECT_EQ(&base->ast(), &variant->ast());
  EXPECT_EQ(&base->program(), &variant->program());
  EXPECT_EQ(&base->schedule(), &variant->schedule());
  EXPECT_EQ(&base->liveness(), &variant->liveness());
  EXPECT_EQ(&base->memoryPlan(), &variant->memoryPlan());
  // The changed stage and its dependents were recompiled.
  EXPECT_NE(&base->kernelReport(), &variant->kernelReport());
  EXPECT_NE(&base->systemDesign(), &variant->systemDesign());

  const Pipeline& pipeline = variant->pipeline();
  EXPECT_EQ(pipeline.provenance(Stage::Parse), StageProvenance::Cached);
  EXPECT_EQ(pipeline.provenance(Stage::MemoryPlan), StageProvenance::Cached);
  EXPECT_EQ(pipeline.provenance(Stage::Hls), StageProvenance::Ran);
  EXPECT_EQ(pipeline.provenance(Stage::SysGen), StageProvenance::Ran);
  EXPECT_EQ(pipeline.adoptedStageCount(), 7);
}

TEST(IncrementalTest, LoweringChangeInvalidatesEverythingDownstream) {
  // Degree-5 kernel: LeftToRight factorization stays device-feasible
  // there (at p = 11 it violates Eq. 3 and would abort the compile).
  const std::string source = test::inverseHelmholtzSource(5);
  FlowCache cache;
  const auto base = cache.compile(source);
  FlowOptions lowering;
  lowering.lowering.factorization = ir::FactorizationOrder::LeftToRight;
  const auto variant = cache.compile(source, lowering);

  // Parsing never reads options: the AST is still shared.
  EXPECT_EQ(&base->ast(), &variant->ast());
  // Everything from lowering on was recompiled.
  EXPECT_NE(&base->program(), &variant->program());
  EXPECT_NE(&base->schedule(), &variant->schedule());
  EXPECT_NE(&base->liveness(), &variant->liveness());
  EXPECT_NE(&base->memoryPlan(), &variant->memoryPlan());
  EXPECT_NE(&base->kernelReport(), &variant->kernelReport());
  EXPECT_NE(&base->systemDesign(), &variant->systemDesign());
  EXPECT_EQ(variant->pipeline().adoptedStageCount(), 1);
}

TEST(IncrementalTest, UnrollChangeInvalidatesFromTheMemoryPlanOn) {
  // unroll couples into MemoryPlanOptions.banks (normalizeOptions), so
  // the reusable prefix ends at liveness — invalidation follows the
  // *normalized* options, never the spelling.
  FlowCache cache;
  const auto base = cache.compile(test::kInverseHelmholtz);
  FlowOptions unroll;
  unroll.hls.unrollFactor = 2;
  const auto variant = cache.compile(test::kInverseHelmholtz, unroll);
  EXPECT_EQ(&base->schedule(), &variant->schedule());
  EXPECT_EQ(&base->liveness(), &variant->liveness());
  EXPECT_NE(&base->memoryPlan(), &variant->memoryPlan());
  EXPECT_EQ(variant->pipeline().adoptedStageCount(), 6);
}

TEST(IncrementalTest, OptimizeOnlyChangeAdoptsParseAndLowerOnly) {
  // Changing nothing but OptimizeOptions must resume from the optimize
  // stage: the parse..lower prefix is adopted by pointer, everything
  // from optimize on recomputes.
  FlowCache cache;
  const auto base = cache.compile(test::kInverseHelmholtz);
  FlowOptions options;
  options.optimize.level = 0;
  const auto variant = cache.compile(test::kInverseHelmholtz, options);

  EXPECT_EQ(&base->ast(), &variant->ast());
  EXPECT_EQ(&base->loweredProgram(), &variant->loweredProgram());
  EXPECT_NE(&base->program(), &variant->program());
  EXPECT_NE(&base->schedule(), &variant->schedule());

  const Pipeline& pipeline = variant->pipeline();
  EXPECT_EQ(pipeline.provenance(Stage::Parse), StageProvenance::Cached);
  EXPECT_EQ(pipeline.provenance(Stage::Lower), StageProvenance::Cached);
  EXPECT_EQ(pipeline.provenance(Stage::Optimize), StageProvenance::Ran);
  EXPECT_EQ(pipeline.provenance(Stage::Schedule), StageProvenance::Ran);
  EXPECT_EQ(pipeline.adoptedStageCount(), 2);
}

TEST(StageKeyTest, OptimizeOptionsInvalidateEverythingPastLower) {
  FlowOptions base;
  FlowOptions optimize;
  optimize.optimize.level = 2;
  normalizeOptions(base);
  normalizeOptions(optimize);
  const auto a = computeStageKeys(test::kInverseHelmholtz, base);
  const auto b = computeStageKeys(test::kInverseHelmholtz, optimize);
  EXPECT_EQ(a[static_cast<int>(Stage::Parse)],
            b[static_cast<int>(Stage::Parse)]);
  EXPECT_EQ(a[static_cast<int>(Stage::Lower)],
            b[static_cast<int>(Stage::Lower)]);
  for (int i = static_cast<int>(Stage::Optimize); i < kStageCount; ++i)
    EXPECT_NE(a[i], b[i]) << "stage " << stageName(static_cast<Stage>(i));
}

TEST(StageKeyTest, LevelDisabledToggleSpellingsShareOneKey) {
  // normalizeOptions masks toggles of passes the level disables, so
  // e.g. {level=0, cse=true} and {level=0, cse=false} are one cache
  // entry, not two.
  FlowOptions a;
  a.optimize.level = 0;
  a.optimize.cse = true;
  FlowOptions b;
  b.optimize.level = 0;
  b.optimize.cse = false;
  normalizeOptions(a);
  normalizeOptions(b);
  EXPECT_EQ(a.optimize, b.optimize);
  EXPECT_EQ(computeStageKeys(test::kInverseHelmholtz, a),
            computeStageKeys(test::kInverseHelmholtz, b));
}

TEST(IncrementalTest, ArtifactsAreByteIdenticalToColdCompilesAcrossStages) {
  // Compile a base point, then an HLS-variant *incrementally* through
  // the same cache, and compare every stage artifact (and every
  // generated text) against a cold compile of the same configuration.
  FlowCache cache;
  cache.compile(test::kInverseHelmholtz); // warms the prefix
  FlowOptions options;
  options.hls.clockMHz = 250.0;
  options.hls.requestedII = 2;
  const auto incremental = cache.compile(test::kInverseHelmholtz, options);
  ASSERT_GT(incremental->pipeline().adoptedStageCount(), 0);

  const Flow cold = Flow::compile(test::kInverseHelmholtz, options);
  EXPECT_EQ(cold.pipeline().adoptedStageCount(), 0);

  // All 9 stages: parse (AST print), lower/optimize, schedule/reschedule,
  // liveness, memory-plan (plan + graph), hls, sysgen.
  EXPECT_EQ(dsl::printProgram(cold.ast()),
            dsl::printProgram(incremental->ast()));
  EXPECT_EQ(cold.program().str(), incremental->program().str());
  EXPECT_EQ(cold.schedule().str(), incremental->schedule().str());
  EXPECT_EQ(cold.schedule().islStr(), incremental->schedule().islStr());
  EXPECT_EQ(cold.liveness().str(cold.program()),
            incremental->liveness().str(incremental->program()));
  EXPECT_EQ(cold.compatibilityDot(), incremental->compatibilityDot());
  EXPECT_EQ(cold.memoryPlan().str(cold.program()),
            incremental->memoryPlan().str(incremental->program()));
  EXPECT_EQ(cold.kernelReport().str(), incremental->kernelReport().str());
  EXPECT_EQ(cold.systemDesign().str(), incremental->systemDesign().str());
  // Generated artifacts (emitters consume the shared schedule).
  EXPECT_EQ(cold.cCode(), incremental->cCode());
  EXPECT_EQ(cold.mnemosyneConfig(), incremental->mnemosyneConfig());
  EXPECT_EQ(cold.hostCode(), incremental->hostCode());
}

TEST(IncrementalTest, DisabledStageCacheCompilesCold) {
  FlowCache cache;
  cache.setStageCache(nullptr);
  cache.compile(test::kInverseHelmholtz);
  FlowOptions options;
  options.hls.clockMHz = 150.0;
  const auto variant = cache.compile(test::kInverseHelmholtz, options);
  EXPECT_EQ(variant->pipeline().adoptedStageCount(), 0);
}

// ---- Pipeline provenance and timing report ----

TEST(IncrementalTest, TimingReportShowsProvenanceAndSkipsNeverRunStages) {
  StageCache stageCache;
  Pipeline cold(test::kInverseHelmholtz, {}, &stageCache);
  cold.require(Stage::Reschedule);
  const std::string coldReport = cold.timingReport();
  EXPECT_NE(coldReport.find("parse"), std::string::npos);
  EXPECT_NE(coldReport.find("ran"), std::string::npos);
  // Never-run stages are omitted, not shown at 0 ms.
  EXPECT_EQ(coldReport.find("sysgen"), std::string::npos);
  EXPECT_EQ(coldReport.find("cached"), std::string::npos);

  Pipeline warm(test::kInverseHelmholtz, {}, &stageCache);
  warm.runAll();
  const std::string warmReport = warm.timingReport();
  EXPECT_NE(warmReport.find("cached"), std::string::npos);
  EXPECT_NE(warmReport.find("sysgen"), std::string::npos);
  EXPECT_EQ(warm.provenance(Stage::Reschedule), StageProvenance::Cached);
  EXPECT_EQ(warm.provenance(Stage::SysGen), StageProvenance::Ran);
}

// ---- StageCache behavior ----

TEST(StageCacheTest, StatsCountStageLevelHitsAndMisses) {
  FlowCache cache;
  cache.compile(test::kInverseHelmholtz);
  const auto cold = cache.stageCache()->stats();
  EXPECT_EQ(cold.hits, 0);
  EXPECT_EQ(cold.misses, kStageCount);
  EXPECT_EQ(cold.entries, kStageCount);
  EXPECT_GT(cold.approxBytes, 0);

  FlowOptions options;
  options.hls.clockMHz = 150.0;
  cache.compile(test::kInverseHelmholtz, options);
  const auto warm = cache.stageCache()->stats();
  EXPECT_EQ(warm.hits, 7);                   // parse..memory-plan adopted
  EXPECT_EQ(warm.misses, kStageCount + 2);   // hls + sysgen recompiled
}

TEST(StageCacheTest, ByteBoundEvictsLeastRecentlyUsedEntries) {
  FlowCache cache;
  cache.stageCache()->setCapacityBytes(1); // absurdly small: evict always
  cache.compile(test::kInverseHelmholtz);
  const auto stats = cache.stageCache()->stats();
  EXPECT_GT(stats.evictions, 0);
  // Evicted artifacts survive through the Flow's own shared_ptrs; a
  // recompile of a different configuration simply runs cold.
  FlowOptions options;
  options.hls.clockMHz = 150.0;
  const auto variant = cache.compile(test::kInverseHelmholtz, options);
  EXPECT_EQ(variant->pipeline().adoptedStageCount(), 0);
  EXPECT_EQ(variant->systemDesign().str(),
            Flow::compile(test::kInverseHelmholtz, options)
                .systemDesign()
                .str());
}

TEST(StageCacheTest, SharedAcrossExplorerWorkersWithoutDivergence) {
  // Explorer workers adopt artifacts published by other threads; rows
  // must agree byte for byte with a serial sweep and with a sweep that
  // has no stage cache at all (this is the configuration the CI
  // sanitizer job hammers).
  const std::vector<FlowOptions> variants = test::hlsOnlySweep(64);
  Session serialSession, parallelSession(SessionOptions{.workers = 4}),
      coldSession;
  coldSession.flowCache().setStageCache(nullptr);
  ExplorerOptions serial;
  serial.workers = 1;
  ExplorerOptions parallel;
  parallel.workers = 4;
  const ExplorationResult a =
      explore(serialSession, test::kInverseHelmholtz, variants, serial);
  const ExplorationResult b =
      explore(parallelSession, test::kInverseHelmholtz, variants, parallel);
  const ExplorationResult cold =
      explore(coldSession, test::kInverseHelmholtz, variants, serial);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  ASSERT_EQ(a.rows.size(), cold.rows.size());
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    ASSERT_TRUE(a.rows[i].ok());
    ASSERT_TRUE(b.rows[i].ok());
    ASSERT_TRUE(cold.rows[i].ok());
    EXPECT_EQ(a.rows[i].flow->systemDesign().str(),
              b.rows[i].flow->systemDesign().str());
    EXPECT_EQ(a.rows[i].flow->systemDesign().str(),
              cold.rows[i].flow->systemDesign().str());
    EXPECT_EQ(a.rows[i].flow->cCode(), b.rows[i].flow->cCode());
  }
  // The serial sweep's provenance is deterministic: first row cold,
  // every later row resumes from hls.
  EXPECT_EQ(a.rows[0].resumedFrom, "parse");
  for (std::size_t i = 1; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].resumedFrom, "hls");
    EXPECT_EQ(a.rows[i].stagesAdopted, 7);
  }
  // 63 rows adopt parse..memory-plan; the first row's 9 stages and
  // every other row's hls and sysgen miss. The 4-worker sweep does the
  // same stage work: its workers claim the cold prefix once between
  // them instead of racing through it.
  for (const ExplorationResult* sweep : {&a, &b}) {
    EXPECT_EQ(sweep->stageStats.hits, 441);
    EXPECT_EQ(sweep->stageStats.misses, 135);
    EXPECT_EQ(sweep->stagesAdoptedTotal(), 441);
  }
}

// ---- Stage claims: concurrent requesters compute each key once ----

/// Runs `body(t)` on `threads` threads released together.
template <typename Body> void runTogether(int threads, const Body& body) {
  std::atomic<int> ready{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      ++ready;
      while (ready.load() < threads)
        std::this_thread::yield();
      body(t);
    });
  for (std::thread& thread : pool)
    thread.join();
}

constexpr int kRequesters = 8;

TEST(StageClaimTest, ConcurrentRequirersComputeEachStageOnce) {
  StageCache cache;
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  for (int t = 0; t < kRequesters; ++t)
    pipelines.push_back(
        std::make_unique<Pipeline>(test::kInverseHelmholtz, FlowOptions{},
                                   &cache));
  runTogether(kRequesters,
              [&](int t) { pipelines[t]->require(Stage::SysGen); });

  const StageCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, kStageCount);
  EXPECT_EQ(stats.hits, kStageCount * (kRequesters - 1));
  // One artifact per stage, shared by every requester.
  const StageArtifacts& first = pipelines[0]->artifacts();
  int ran = 0;
  for (const auto& pipeline : pipelines) {
    const StageArtifacts& mine = pipeline->artifacts();
    EXPECT_EQ(mine.ast, first.ast);
    EXPECT_EQ(mine.program, first.program);
    EXPECT_EQ(mine.optimized, first.optimized);
    EXPECT_EQ(mine.referenceSchedule, first.referenceSchedule);
    EXPECT_EQ(mine.schedule, first.schedule);
    EXPECT_EQ(mine.liveness, first.liveness);
    EXPECT_EQ(mine.memory, first.memory);
    EXPECT_EQ(mine.kernel, first.kernel);
    EXPECT_EQ(mine.system, first.system);
    ran += kStageCount - pipeline->adoptedStageCount();
  }
  EXPECT_EQ(ran, kStageCount);
}

TEST(StageClaimTest, InfeasibleConfigGivesEveryRequesterTheSysgenDiagnostic) {
  // m = 3, k = 2 fails system generation (§V-B). Parse..hls are claimed
  // and computed once; every requester then fails sysgen with its own
  // stage-attributed error, and no failure is cached.
  StageCache cache;
  FlowOptions options;
  options.system.memories = 3;
  options.system.kernels = 2;
  std::vector<std::string> stages(kRequesters), messages(kRequesters);
  runTogether(kRequesters, [&](int t) {
    Pipeline pipeline(test::kMatMul2D, options, &cache);
    try {
      pipeline.require(Stage::SysGen);
    } catch (const DiagnosedError& e) {
      ASSERT_GE(e.diagnostics().size(), 1u);
      stages[t] = e.diagnostics()[0].stage;
      messages[t] = e.what();
    }
  });
  for (int t = 0; t < kRequesters; ++t) {
    EXPECT_EQ(stages[t], "sysgen") << "requester " << t;
    EXPECT_EQ(messages[t], messages[0]);
  }
  EXPECT_FALSE(messages[0].empty());
  const StageCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, kStageCount - 1);
  EXPECT_EQ(stats.hits, (kStageCount - 1) * (kRequesters - 1));
  EXPECT_EQ(stats.entries, kStageCount - 1);
}

TEST(StageClaimTest, CancelledWaiterStopsBeforeItsNextStage) {
  // The test owns the parse claim; the waiter blocks on it, its token
  // is cancelled meanwhile, and the publish wakes it: it adopts parse
  // and stops at the next checkpoint instead of running lower.
  StageCache cache;
  const FlowOptions options;
  Pipeline cold(test::kInverseHelmholtz, options);
  cold.require(Stage::Parse);
  const std::uint64_t parseKey = cold.stageKey(Stage::Parse);
  ASSERT_TRUE(cache.claim(parseKey, Stage::Parse, test::kInverseHelmholtz,
                          cold.options())
                  .owned);

  CancelSource cancel;
  Pipeline waiter(test::kInverseHelmholtz, options, &cache);
  waiter.setCancelToken(cancel.token());
  std::string error;
  std::thread thread([&] {
    try {
      waiter.require(Stage::SysGen);
    } catch (const CancelledError& e) {
      error = e.what();
    }
  });
  const auto giveUp =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (cache.stats().waits == 0 &&
         std::chrono::steady_clock::now() < giveUp)
    std::this_thread::yield();
  cancel.cancel();
  cache.insert(parseKey, Stage::Parse, cold.artifacts(),
               test::kInverseHelmholtz, cold.options());
  thread.join();

  EXPECT_NE(error.find("before stage 'lower'"), std::string::npos) << error;
  EXPECT_EQ(waiter.provenance(Stage::Parse), StageProvenance::Cached);
  EXPECT_FALSE(waiter.hasRun(Stage::Lower));
  const StageCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.waits, 1);
}

TEST(StageClaimTest, ByteBoundThatEvictsOnPublishKeepsLookupsExact) {
  // Every publish is evicted at once, so a requester either adopts a
  // stage through the claim it waited on or computes it again; each
  // stage is still one lookup, a hit or a miss.
  StageCache cache;
  cache.setCapacityBytes(1);
  std::vector<std::string> systems(kRequesters);
  runTogether(kRequesters, [&](int t) {
    Pipeline pipeline(test::kInverseHelmholtz, FlowOptions{}, &cache);
    systems[t] = pipeline.systemDesign().str();
  });
  const std::string expected =
      Flow::compile(test::kInverseHelmholtz).systemDesign().str();
  for (const std::string& system : systems)
    EXPECT_EQ(system, expected);
  const StageCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kStageCount * kRequesters);
  EXPECT_GE(stats.misses, kStageCount);
  EXPECT_EQ(stats.evictions, stats.misses);
  EXPECT_EQ(stats.entries, 0);
}

} // namespace
} // namespace cfd
