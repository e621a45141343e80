// cfd::Session — the library's long-lived service entry point
// (DESIGN.md §10).
//
// The paper's §III-B vision is a compiler that applications embed and
// call through predefined handles. Session is the object an embedding
// application (or a server) keeps alive for that: it owns the shared
// state every request benefits from —
//
//   Session
//    ├── FlowCache            (memoized whole compiles, DESIGN.md §3)
//    │    └── StageCache      (incremental stage artifacts, DESIGN.md §9)
//    ├── WorkerPool           (lazily started sweep/tune workers)
//    └── default FlowOptions  (session-wide base configuration)
//
// — and exposes a thread-safe, request/result shaped API that returns
// Expected<T> (support/Expected.h) carrying structured diagnostics
// instead of throwing:
//
//   Session session;
//   auto result = session.compile(
//       CompileRequest(source).set("unroll", "2").materialize(
//           Artifacts::CCode));
//   if (!result)
//     report(result.diagnostics());   // severity + stage + location
//   else
//     use(result->cCode());
//
// Layering (DESIGN.md §10): the legacy surfaces are thin shims over the
// implicit default session. Flow::compile routes through
// Session::global().compileFlow (a hermetic, uncached, still-throwing
// compile — behavior-compatible with the pre-Session API), and
// KernelHandle::create through Session::global().compileShared (the
// cached path handles always used). Explorer and Tuner accept a
// Session& and borrow its cache and worker pool instead of owning
// their own.
#pragma once

#include "core/Explorer.h"
#include "core/Job.h"
#include "core/Tuner.h"
#include "core/WorkerPool.h"
#include "store/ArtifactStore.h"
#include "support/Expected.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cfd {

/// Which generated artifact texts a CompileRequest materializes eagerly
/// (the Flow object can always produce them later; materializing at
/// request time keeps the emission inside the session's timing and lets
/// callers treat CompileResult as plain data).
enum class Artifacts : unsigned {
  None = 0,
  CCode = 1u << 0,            ///< HLS input C99 (Flow::cCode)
  KernelPrototype = 1u << 1,  ///< Flow::kernelPrototype
  Mnemosyne = 1u << 2,        ///< memory metadata (Flow::mnemosyneConfig)
  HostCode = 1u << 3,         ///< host control code (Flow::hostCode)
  CompatibilityDot = 1u << 4, ///< Flow::compatibilityDot
  All = (1u << 5) - 1,
};

inline Artifacts operator|(Artifacts a, Artifacts b) {
  return static_cast<Artifacts>(static_cast<unsigned>(a) |
                                static_cast<unsigned>(b));
}
inline bool contains(Artifacts set, Artifacts flag) {
  return (static_cast<unsigned>(set) & static_cast<unsigned>(flag)) != 0;
}

/// One compilation request, builder-style. Options resolve as: the
/// session defaults (or the explicit options() override), then every
/// set(key, value) applied in call order.
class CompileRequest {
public:
  explicit CompileRequest(std::string source) : source_(std::move(source)) {}

  /// Replaces the session-default base options for this request.
  CompileRequest& options(FlowOptions options) {
    options_ = std::move(options);
    return *this;
  }
  /// Applies one named override (the cfdc sweep keys: unroll|m|k|
  /// sharing|decoupled|objective|layout). Unknown keys/values surface
  /// as diagnostics, not exceptions.
  CompileRequest& set(std::string key, std::string value) {
    params_.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  /// Adds artifacts to materialize into the CompileResult.
  CompileRequest& materialize(Artifacts artifacts) {
    artifacts_ = artifacts_ | artifacts;
    return *this;
  }

  const std::string& source() const { return source_; }

private:
  friend class Session;

  std::string source_;
  std::optional<FlowOptions> options_;
  std::vector<std::pair<std::string, std::string>> params_;
  Artifacts artifacts_ = Artifacts::None;
};

/// The outcome of a successful CompileRequest.
class CompileResult {
public:
  /// The compiled, immutable flow (shared with the session cache).
  const Flow& flow() const { return *flow_; }
  std::shared_ptr<const Flow> sharedFlow() const { return flow_; }
  /// The normalized options the request resolved to.
  const FlowOptions& options() const { return flow_->options(); }
  /// True when the flow was served from the session's FlowCache (or an
  /// in-flight compile) instead of being compiled by this request.
  bool cacheHit() const { return cacheHit_; }
  double compileMillis() const { return compileMillis_; }

  // Materialized artifact texts; empty unless requested via
  // CompileRequest::materialize.
  const std::string& cCode() const { return cCode_; }
  const std::string& kernelPrototype() const { return kernelPrototype_; }
  const std::string& mnemosyneConfig() const { return mnemosyneConfig_; }
  const std::string& hostCode() const { return hostCode_; }
  const std::string& compatibilityDot() const { return compatibilityDot_; }

private:
  friend class Session;

  std::shared_ptr<const Flow> flow_;
  bool cacheHit_ = false;
  double compileMillis_ = 0;
  std::string cCode_;
  std::string kernelPrototype_;
  std::string mnemosyneConfig_;
  std::string hostCode_;
  std::string compatibilityDot_;
};

/// One artifact a compile returns by name: cfdc's --emit and the serve
/// protocol's "artifacts" member name the same five (DESIGN.md §15).
struct ArtifactKind {
  const char* name;
  /// What CompileRequest::materialize needs: Artifacts::None for
  /// "report", the multi-section summary assembled from the flow.
  Artifacts flag;
};

/// The kind called `name` (c|mnemosyne|host|dot|report); throws
/// FlowError naming the valid ones otherwise.
const ArtifactKind& artifactKindByName(std::string_view name);

/// The text of `kind` for a result whose request materialized it.
std::string artifactText(const CompileResult& result,
                         const ArtifactKind& kind);

/// A design-space sweep request over base options: declared axes (a
/// cross product expanded by TuneSpace, cfdc --sweep style), explicit
/// labelled points, or explicit option variants — one of the three.
/// Every form is bounded by kMaxSpacePoints (core/Tuner.h).
class SweepRequest {
public:
  explicit SweepRequest(std::string source) : source_(std::move(source)) {}

  /// Replaces the session-default base options every variant starts from.
  SweepRequest& options(FlowOptions options) {
    options_ = std::move(options);
    return *this;
  }
  /// Declares one axis; axes combine as a cross product over the base.
  SweepRequest& axis(std::string key, std::vector<std::string> values) {
    axes_.push_back(TuneAxis{std::move(key), std::move(values)});
    return *this;
  }
  /// Explicit variants (used as-is; mutually exclusive with axis()).
  SweepRequest& variants(std::vector<FlowOptions> variants) {
    variants_ = std::move(variants);
    return *this;
  }
  /// Explicit labelled points (TuneSpace::point shape): each point's
  /// params apply over the base options in order, exactly as an axis
  /// sweep applies its own points, so a sweep over points shipped by
  /// the distributed coordinator compiles the same FlowOptions as the
  /// local cross product. Mutually exclusive with axis() and
  /// variants().
  SweepRequest& points(std::vector<SweepPoint> points) {
    points_ = std::move(points);
    return *this;
  }
  /// Thread-safe per-row completion callback, (done, total); forwarded
  /// to ExplorerOptions::onProgress.
  SweepRequest& onProgress(std::function<void(std::size_t, std::size_t)> cb) {
    onProgress_ = std::move(cb);
    return *this;
  }
  /// Simulate this many elements per feasible variant (0 = off).
  SweepRequest& simulateElements(std::int64_t elements) {
    simulateElements_ = elements;
    return *this;
  }
  SweepRequest& transferStrategy(sim::TransferStrategy strategy) {
    transferStrategy_ = strategy;
    return *this;
  }
  /// Caps this request's parallelism (0 = the session's pool size).
  SweepRequest& workers(int workers) {
    workers_ = workers;
    return *this;
  }

  const std::string& source() const { return source_; }

private:
  friend class Session;

  std::string source_;
  std::optional<FlowOptions> options_;
  std::vector<TuneAxis> axes_;
  std::vector<FlowOptions> variants_;
  std::vector<SweepPoint> points_;
  std::function<void(std::size_t, std::size_t)> onProgress_;
  std::int64_t simulateElements_ = 0;
  sim::TransferStrategy transferStrategy_ = sim::TransferStrategy::Blocking;
  int workers_ = 0;
};

/// A sweep outcome: the exploration rows plus the human-readable label
/// of every variant ("unroll=2 m=8" in axis order; "base" for the
/// empty cross product; "variant 0", "variant 1", ... for explicit
/// variants()).
struct SweepResult {
  ExplorationResult exploration;
  std::vector<std::string> labels;

  const std::vector<ExplorationRow>& rows() const {
    return exploration.rows;
  }
};

/// An auto-tuning request (core/Tuner.h searches, the session provides
/// cache + workers).
class TuneRequest {
public:
  explicit TuneRequest(std::string source) : source_(std::move(source)) {}

  TuneRequest& options(FlowOptions options) {
    options_ = std::move(options);
    return *this;
  }
  /// Declares one search axis; no axes = defaultTuneSpace().
  TuneRequest& axis(std::string key, std::vector<std::string> values) {
    space_.axes.push_back(TuneAxis{std::move(key), std::move(values)});
    return *this;
  }
  TuneRequest& strategy(SearchStrategy strategy) {
    strategy_ = strategy;
    return *this;
  }
  TuneRequest& seed(std::uint64_t seed) {
    seed_ = seed;
    return *this;
  }
  TuneRequest& samples(std::size_t samples) {
    samples_ = samples;
    return *this;
  }
  TuneRequest& maxSteps(std::size_t maxSteps) {
    maxSteps_ = maxSteps;
    return *this;
  }
  /// Scoring objectives by name (latency|bram|dsp|lut|compile_ms);
  /// empty = defaultObjectives(). Unknown names surface as diagnostics.
  TuneRequest& objectives(std::vector<std::string> names) {
    objectiveNames_ = std::move(names);
    return *this;
  }
  TuneRequest& simulateElements(std::int64_t elements) {
    simulateElements_ = elements;
    return *this;
  }
  TuneRequest& transferStrategy(sim::TransferStrategy strategy) {
    transferStrategy_ = strategy;
    return *this;
  }
  TuneRequest& workers(int workers) {
    workers_ = workers;
    return *this;
  }

  const std::string& source() const { return source_; }

private:
  friend class Session;

  std::string source_;
  std::optional<FlowOptions> options_;
  TuneSpace space_;
  SearchStrategy strategy_ = SearchStrategy::Exhaustive;
  std::uint64_t seed_ = 1;
  std::size_t samples_ = 16;
  std::size_t maxSteps_ = 32;
  std::vector<std::string> objectiveNames_;
  std::int64_t simulateElements_ = 0;
  sim::TransferStrategy transferStrategy_ = sim::TransferStrategy::Blocking;
  int workers_ = 0;
};

struct SessionOptions {
  /// Base options every request starts from (overridable per request).
  FlowOptions defaults;
  /// Worker-pool parallelism including the calling thread
  /// (0 = hardware concurrency). The pool starts lazily on the first
  /// sweep/tune that can use it.
  int workers = 0;
  /// Whole-flow cache capacity (entries; 0 = unbounded).
  std::size_t flowCacheCapacity = FlowCache::kDefaultCapacity;
  /// Stage-artifact cache bound in approximate bytes (0 = unbounded).
  std::size_t stageCacheBytes = StageCache::kDefaultCapacityBytes;
  /// Root of the persistent artifact store (DESIGN.md §13). Resolution:
  /// this field when non-empty, else the CFD_CACHE_DIR environment
  /// variable, else disabled — an in-memory-only session.
  std::string cacheDir;
  /// On-disk byte bound the store's GC enforces (0 = unbounded).
  std::size_t artifactStoreBytes =
      store::ArtifactStoreOptions::kDefaultCapacityBytes;
};

/// A thread-safe, long-lived compilation service. Construction is cheap
/// (no threads until the first parallel request); destruction joins the
/// pool. All request methods are safe to call concurrently from many
/// threads and never throw on invalid input — FlowError-class failures
/// come back as Expected diagnostics, only InternalError (a bug in the
/// flow itself) still propagates.
class Session {
public:
  explicit Session(SessionOptions options = {});
  /// Cancels every job still queued, interrupts running ones at their
  /// next stage checkpoint, waits for all of them to resolve, then
  /// joins the worker pool. Outstanding Job handles stay valid.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  // ---- Request/result API (exception-free on invalid input) ----
  Expected<CompileResult> compile(const CompileRequest& request);
  Expected<SweepResult> sweep(const SweepRequest& request);
  Expected<TuningReport> tune(const TuneRequest& request);

  // ---- Asynchronous job API (DESIGN.md §11) ----
  // Each submit* enqueues the request on the session's priority job
  // queue and returns immediately; the Job resolves to exactly what the
  // synchronous call would have returned (plus the cancellation /
  // deadline outcomes described in core/Job.h). One scheduler arbitrates
  // everything: sweep and tune jobs fan their per-point compiles into
  // the same queue at the job's priority.
  Job<CompileResult> submitCompile(CompileRequest request,
                                   JobConfig config = {});
  Job<SweepResult> submitSweep(SweepRequest request, JobConfig config = {});
  Job<TuningReport> submitTune(TuneRequest request, JobConfig config = {});

  /// Submits every request as its own compile job, in order; returned
  /// jobs align with `requests` by index. Shared stage prefixes are
  /// computed once by whichever job claims them first (StageCache.h).
  std::vector<Job<CompileResult>> submitBatch(
      std::vector<CompileRequest> requests, JobConfig config = {});

  /// Blocks until every job submitted so far has resolved (a barrier —
  /// it does not cancel anything and new submissions are allowed
  /// afterwards).
  void drainJobs();

  // ---- Legacy shims (throwing; see the layering note above) ----
  /// Hermetic, uncached compile of exactly (source, options) — the
  /// session defaults do NOT apply, so the pre-Session Flow::compile
  /// semantics hold bit for bit: every stage runs cold. Throws
  /// FlowError.
  Flow compileFlow(const std::string& source, FlowOptions options = {});
  /// Cached compile through the session FlowCache (KernelHandle path).
  /// Throws FlowError.
  std::shared_ptr<const Flow> compileShared(const std::string& source,
                                            FlowOptions options = {});

  // ---- Session-wide defaults ----
  FlowOptions defaultOptions() const;
  void setDefaultOptions(FlowOptions options);

  // ---- Owned state ----
  FlowCache& flowCache() { return cache_; }
  /// Null when incremental compilation was disabled via
  /// flowCache().setStageCache(nullptr).
  StageCache* stageCache() { return cache_.stageCache(); }
  /// The persistent second tier; null when no cache dir is configured.
  store::ArtifactStore* artifactStore() { return store_.get(); }
  WorkerPool& workerPool() { return pool_; }

  struct Stats {
    std::int64_t compileRequests = 0;
    std::int64_t sweepRequests = 0;
    std::int64_t tuneRequests = 0;
    std::int64_t failedRequests = 0; ///< requests that returned failure
    // Job-queue counters (DESIGN.md §11). At quiescence
    // jobsCompleted + jobsCancelled == jobsSubmitted.
    std::int64_t jobsSubmitted = 0;
    std::int64_t jobsCompleted = 0; ///< resolved Done
    std::int64_t jobsCancelled = 0; ///< cancel(), deadline, or teardown
    std::int64_t jobQueueDepth = 0; ///< queued, not yet started
    std::int64_t jobsRunning = 0;
    FlowCache::Stats flowCache;
    StageCache::Stats stageCache; ///< zero-valued when disabled
    /// Persistent store counters; zero-valued when no cache dir is
    /// configured (artifactStoreEnabled distinguishes "disabled" from
    /// "enabled but untouched").
    store::ArtifactStore::Stats artifactStore;
    bool artifactStoreEnabled = false;
    int workerThreads = 1;
    bool workersStarted = false;
  };
  Stats stats() const;
  /// Printable multi-line summary (cfdc prints this after sweeps/tunes).
  std::string statsReport() const;

  /// The implicit default session behind Flow::compile and
  /// KernelHandle::create. Constructed on first use, lives for the
  /// process.
  static Session& global();

private:
  FlowOptions baseOptionsFor(const std::optional<FlowOptions>& override_)
      const;
  void countFailure();

  // Request bodies shared by the synchronous API (empty token, Normal
  // priority) and the job queue (the job's token/priority, so per-point
  // work inherits them).
  Expected<CompileResult> compileImpl(const CompileRequest& request,
                                      const CancelToken& cancel);
  Expected<SweepResult> sweepImpl(const SweepRequest& request,
                                  const CancelToken& cancel,
                                  JobPriority priority, std::uint64_t jobId);
  Expected<TuningReport> tuneImpl(const TuneRequest& request,
                                  const CancelToken& cancel,
                                  JobPriority priority, std::uint64_t jobId);

  /// Creates the job, registers it, and posts a queue task that runs
  /// `work` under the job's token. Defined in Session.cpp (every
  /// instantiation lives there).
  template <typename T>
  Job<T> submitJob(JobConfig config,
                   std::function<Expected<T>(const CancelToken&,
                                             std::uint64_t)> work);
  std::shared_ptr<detail::JobBase> registerJob(
      const std::shared_ptr<detail::JobBase>& job);
  /// Live (unresolved) jobs, registry pruned as a side effect.
  std::vector<std::shared_ptr<detail::JobBase>> liveJobs();

  SessionOptions sessionOptions_;
  mutable std::mutex mutex_; // guards defaults_, counters, and jobs_
  FlowOptions defaults_;
  std::int64_t compileRequests_ = 0;
  std::int64_t sweepRequests_ = 0;
  std::int64_t tuneRequests_ = 0;
  std::int64_t failedRequests_ = 0;
  std::uint64_t nextJobId_ = 0;
  std::vector<std::weak_ptr<detail::JobBase>> jobs_;

  std::shared_ptr<detail::JobCounters> jobCounters_ =
      std::make_shared<detail::JobCounters>();
  // Declared before cache_: the stage cache holds a raw pointer into the
  // store, so the store must be destroyed after it.
  std::unique_ptr<store::ArtifactStore> store_;
  FlowCache cache_;
  WorkerPool pool_; // last member: destroyed (joined) first
};

} // namespace cfd
