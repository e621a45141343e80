#include "core/Session.h"

#include "core/Objective.h"
#include "support/Format.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>

namespace cfd {

namespace {

/// Converts a caught flow failure into the structured list: a
/// DiagnosedError contributes its diagnostics (stamped by the pipeline
/// stage wrapper), a plain FlowError becomes one unattributed error.
DiagnosticList diagnosticsFrom(const FlowError& error) {
  if (const auto* diagnosed = dynamic_cast<const DiagnosedError*>(&error))
    return diagnosed->diagnostics();
  DiagnosticList diagnostics;
  diagnostics.error({}, error.what());
  return diagnostics;
}

/// Runs a job body, mapping the escape hatches onto Expected failures:
/// CancelledError (a checkpoint fired) resolves as a cancellation, any
/// other exception — InternalError included — must not tear down a
/// worker thread, so it becomes a "job-queue" failure diagnostic.
template <typename T>
Expected<T> runJobWork(
    const std::function<Expected<T>(const CancelToken&, std::uint64_t)>&
        work,
    const CancelToken& token, std::uint64_t jobId) {
  try {
    return work(token, jobId);
  } catch (const CancelledError& e) {
    return Expected<T>::failure(e.what(), "job-queue");
  } catch (const std::exception& e) {
    return Expected<T>::failure(std::string("internal error: ") + e.what(),
                                "job-queue");
  } catch (...) {
    // Anything escaping a posted task would be silently dropped by the
    // pool and leave the job unresolved forever (wait() and the
    // session destructor would hang) — resolve no matter what.
    return Expected<T>::failure("internal error: unknown exception",
                                "job-queue");
  }
}

} // namespace

Session::Session(SessionOptions options)
    : sessionOptions_(std::move(options)), defaults_(sessionOptions_.defaults),
      pool_(sessionOptions_.workers) {
  cache_.setCapacity(sessionOptions_.flowCacheCapacity);
  std::string cacheDir = sessionOptions_.cacheDir;
  if (cacheDir.empty())
    if (const char* env = std::getenv("CFD_CACHE_DIR"))
      cacheDir = env;
  if (!cacheDir.empty()) {
    auto candidate = std::make_unique<store::ArtifactStore>(
        store::ArtifactStoreOptions{cacheDir,
                                    sessionOptions_.artifactStoreBytes});
    // An unusable root (e.g. a path that cannot be created) silently
    // degrades to the in-memory-only session rather than failing
    // construction.
    if (candidate->enabled())
      store_ = std::move(candidate);
  }
  if (StageCache* stages = cache_.stageCache()) {
    stages->setCapacityBytes(sessionOptions_.stageCacheBytes);
    if (store_)
      stages->setArtifactStore(store_.get());
  }
}

Session::~Session() {
  // Graceful drain (DESIGN.md §11): queued jobs resolve as cancelled
  // without ever starting; running jobs observe their token at the next
  // stage checkpoint. Every Job handle resolves before the members —
  // including the caches the job bodies touch — are destroyed; pool_ is
  // the last member, so its destructor joins the workers right after.
  for (const auto& job : liveJobs())
    job->cancel();
  drainJobs();
}

FlowOptions Session::defaultOptions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return defaults_;
}

void Session::setDefaultOptions(FlowOptions options) {
  std::lock_guard<std::mutex> lock(mutex_);
  defaults_ = std::move(options);
}

FlowOptions Session::baseOptionsFor(
    const std::optional<FlowOptions>& override_) const {
  if (override_.has_value())
    return *override_;
  return defaultOptions();
}

void Session::countFailure() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++failedRequests_;
}

Expected<CompileResult> Session::compile(const CompileRequest& request) {
  return compileImpl(request, CancelToken{});
}

Expected<CompileResult> Session::compileImpl(const CompileRequest& request,
                                             const CancelToken& cancel) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++compileRequests_;
  }
  // Resolve options first: named overrides are request validation, so
  // their failures carry stage "options" rather than a pipeline stage.
  FlowOptions options = baseOptionsFor(request.options_);
  {
    DiagnosticList diagnostics;
    for (const auto& [key, value] : request.params_) {
      try {
        applyTuneParam(options, key, value);
      } catch (const FlowError& e) {
        diagnostics.error({}, e.what(), "options");
      }
    }
    if (diagnostics.hasErrors()) {
      countFailure();
      return Expected<CompileResult>::failure(std::move(diagnostics));
    }
  }

  try {
    CompileResult result;
    const auto start = std::chrono::steady_clock::now();
    result.flow_ = cache_.compile(request.source_, options,
                                  &result.cacheHit_, cancel);
    // Materialize inside the timed window: emission is part of what the
    // request asked for.
    const Flow& flow = *result.flow_;
    if (contains(request.artifacts_, Artifacts::CCode))
      result.cCode_ = flow.cCode();
    if (contains(request.artifacts_, Artifacts::KernelPrototype))
      result.kernelPrototype_ = flow.kernelPrototype();
    if (contains(request.artifacts_, Artifacts::Mnemosyne))
      result.mnemosyneConfig_ = flow.mnemosyneConfig();
    if (contains(request.artifacts_, Artifacts::HostCode))
      result.hostCode_ = flow.hostCode();
    if (contains(request.artifacts_, Artifacts::CompatibilityDot))
      result.compatibilityDot_ = flow.compatibilityDot();
    result.compileMillis_ = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
    // Success still carries the frontend's non-error diagnostics
    // (e.g. "input X is never used") — they live on the AST artifact,
    // so warm compiles report the same warnings as cold ones.
    DiagnosticList warnings = flow.ast().frontendWarnings;
    return Expected<CompileResult>(std::move(result), std::move(warnings));
  } catch (const CancelledError&) {
    // Not a compile failure: the job wrapper resolves the job as
    // Cancelled (the synchronous path never arms a token, so this
    // cannot escape a plain compile()).
    countFailure();
    throw;
  } catch (const FlowError& e) {
    countFailure();
    return Expected<CompileResult>::failure(diagnosticsFrom(e));
  }
}

Expected<SweepResult> Session::sweep(const SweepRequest& request) {
  return sweepImpl(request, CancelToken{}, JobPriority::Normal, 0);
}

Expected<SweepResult> Session::sweepImpl(const SweepRequest& request,
                                         const CancelToken& cancel,
                                         JobPriority priority,
                                         std::uint64_t jobId) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++sweepRequests_;
  }
  DiagnosticList diagnostics;
  const int explicitModes = (request.axes_.empty() ? 0 : 1) +
                            (request.variants_.empty() ? 0 : 1) +
                            (request.points_.empty() ? 0 : 1);
  if (explicitModes > 1) {
    diagnostics.error({},
                      "SweepRequest cannot combine axis(), variants(), "
                      "and points() — pick one",
                      "options");
    countFailure();
    return Expected<SweepResult>::failure(std::move(diagnostics));
  }
  // Bound (and validate) the space before anything is expanded.
  const bool valid =
      request.axes_.empty()
          ? checkSpaceBound(
                std::max(request.points_.size(), request.variants_.size()),
                diagnostics)
          : validateTuneAxes(request.axes_, diagnostics);
  if (!valid) {
    countFailure();
    return Expected<SweepResult>::failure(std::move(diagnostics));
  }

  SweepResult result;
  std::vector<FlowOptions> variants;
  if (!request.variants_.empty()) {
    variants = request.variants_;
    result.labels.reserve(variants.size());
    for (std::size_t i = 0; i < variants.size(); ++i)
      result.labels.push_back("variant " + std::to_string(i));
  } else {
    // An axis sweep is a sweep over its TuneSpace points, so explicit
    // points (the distributed coordinator's chunk shape) compile the
    // same FlowOptions as the local cross product, point for point.
    std::vector<SweepPoint> expanded;
    if (request.points_.empty())
      expanded = TuneSpace{request.axes_}.points();
    const std::vector<SweepPoint>& points =
        request.points_.empty() ? expanded : request.points_;
    const FlowOptions base = baseOptionsFor(request.options_);
    variants.reserve(points.size());
    result.labels.reserve(points.size());
    for (const SweepPoint& point : points) {
      FlowOptions options = base;
      for (const auto& [key, value] : point.params) {
        try {
          applyTuneParam(options, key, value);
        } catch (const FlowError& e) {
          diagnostics.error({}, e.what(), "options");
          countFailure();
          return Expected<SweepResult>::failure(std::move(diagnostics));
        }
      }
      variants.push_back(std::move(options));
      result.labels.push_back(point.label);
    }
  }

  ExplorerOptions explorerOptions;
  explorerOptions.workers = request.workers_;
  explorerOptions.simulateElements = request.simulateElements_;
  explorerOptions.transferStrategy = request.transferStrategy_;
  explorerOptions.cancelToken = cancel;
  explorerOptions.priority = static_cast<int>(priority);
  explorerOptions.jobTag = jobId;
  explorerOptions.onProgress = request.onProgress_;
  try {
    result.exploration =
        explore(*this, request.source_, variants, explorerOptions);
  } catch (const FlowError& e) {
    // Per-row failures never throw (Explorer records them); this
    // boundary catch keeps the exception-free contract even if a
    // future change lets a FlowError escape the sweep machinery.
    countFailure();
    return Expected<SweepResult>::failure(diagnosticsFrom(e));
  }
  return Expected<SweepResult>(std::move(result));
}

Expected<TuningReport> Session::tune(const TuneRequest& request) {
  return tuneImpl(request, CancelToken{}, JobPriority::Normal, 0);
}

Expected<TuningReport> Session::tuneImpl(const TuneRequest& request,
                                         const CancelToken& cancel,
                                         JobPriority priority,
                                         std::uint64_t jobId) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++tuneRequests_;
  }
  // Axes are not validated here: cfd::tune runs validateTuneAxes
  // itself and throws its diagnostics, which the catch below returns.
  DiagnosticList diagnostics;
  TunerOptions tunerOptions;
  tunerOptions.strategy = request.strategy_;
  tunerOptions.seed = request.seed_;
  tunerOptions.sampleCount = request.samples_;
  tunerOptions.maxSteps = request.maxSteps_;
  tunerOptions.base = baseOptionsFor(request.options_);
  tunerOptions.workers = request.workers_;
  tunerOptions.simulateElements = request.simulateElements_;
  tunerOptions.transferStrategy = request.transferStrategy_;
  tunerOptions.cancelToken = cancel;
  tunerOptions.priority = static_cast<int>(priority);
  tunerOptions.jobTag = jobId;
  for (const std::string& name : request.objectiveNames_) {
    try {
      tunerOptions.objectives.push_back(objectiveByName(name));
    } catch (const FlowError& e) {
      diagnostics.error({}, e.what(), "options");
    }
  }
  if (diagnostics.hasErrors()) {
    countFailure();
    return Expected<TuningReport>::failure(std::move(diagnostics));
  }

  const TuneSpace space =
      request.space_.axes.empty() ? defaultTuneSpace() : request.space_;
  try {
    return Expected<TuningReport>(
        cfd::tune(*this, request.source_, space, tunerOptions));
  } catch (const FlowError& e) {
    // The FlowErrors cfd::tune itself throws are request problems (a
    // space validateTuneAxes rejects), never per-point compile
    // failures (those stay in the report).
    countFailure();
    DiagnosticList failure = diagnosticsFrom(e);
    failure.attributeStage("options");
    return Expected<TuningReport>::failure(std::move(failure));
  }
}

// ---- Asynchronous job API (DESIGN.md §11) ----

template <typename T>
Job<T> Session::submitJob(
    JobConfig config,
    std::function<Expected<T>(const CancelToken&, std::uint64_t)> work) {
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = ++nextJobId_;
  }
  auto shared = std::make_shared<detail::JobShared<T>>(id, config.priority,
                                                       jobCounters_);
  if (config.deadlineMillis > 0)
    shared->setDeadline(
        std::chrono::steady_clock::now() +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double, std::milli>(
                config.deadlineMillis)));
  registerJob(shared);
  pool_.post(
      [shared, work = std::move(work)] {
        if (!shared->tryStart())
          return; // cancelled or expired while queued; already resolved
        const CancelToken token = shared->token();
        Expected<T> result = runJobWork<T>(work, token, shared->id());
        // Cancellation wins over whatever the work produced, so a
        // Cancelled job ALWAYS carries a "job-queue" diagnostic — never
        // a half-built success (a sweep cut short mid-batch) and never
        // the work's own failure (a parse error the cancel raced): the
        // caller asked for cancellation and gets exactly that answer.
        // The CancelledError path already built the job-queue failure
        // (with the stage-boundary context), so it is kept as is.
        const bool asCancelled = token.cancelled();
        if (asCancelled) {
          const bool alreadyCancellation =
              !result.ok() && result.diagnostics().size() >= 1 &&
              result.diagnostics()[0].stage == "job-queue";
          if (!alreadyCancellation)
            result = Expected<T>::failure(
                std::string(token.reason()) + " before completion",
                "job-queue");
        }
        shared->resolve(std::move(result), asCancelled);
      },
      static_cast<int>(config.priority), id);
  return Job<T>(shared);
}

std::shared_ptr<detail::JobBase> Session::registerJob(
    const std::shared_ptr<detail::JobBase>& job) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (jobs_.size() >= 64)
    jobs_.erase(std::remove_if(jobs_.begin(), jobs_.end(),
                               [](const std::weak_ptr<detail::JobBase>& w) {
                                 const auto strong = w.lock();
                                 return strong == nullptr ||
                                        strong->resolved();
                               }),
                jobs_.end());
  jobs_.push_back(job);
  return job;
}

std::vector<std::shared_ptr<detail::JobBase>> Session::liveJobs() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<detail::JobBase>> live;
  std::vector<std::weak_ptr<detail::JobBase>> keep;
  keep.reserve(jobs_.size());
  for (const auto& weak : jobs_) {
    auto job = weak.lock();
    if (job == nullptr || job->resolved())
      continue;
    keep.push_back(weak);
    live.push_back(std::move(job));
  }
  jobs_.swap(keep);
  return live;
}

void Session::drainJobs() {
  const auto counters = jobCounters_;
  std::unique_lock<std::mutex> lock(counters->mutex);
  counters->idle.wait(lock, [&] {
    return counters->completed + counters->cancelled == counters->submitted;
  });
}

Job<CompileResult> Session::submitCompile(CompileRequest request,
                                          JobConfig config) {
  return submitJob<CompileResult>(
      config, [this, request = std::move(request)](
                  const CancelToken& token, std::uint64_t) {
        return compileImpl(request, token);
      });
}

Job<SweepResult> Session::submitSweep(SweepRequest request,
                                      JobConfig config) {
  return submitJob<SweepResult>(
      config, [this, request = std::move(request),
               priority = config.priority](const CancelToken& token,
                                           std::uint64_t jobId) {
        return sweepImpl(request, token, priority, jobId);
      });
}

Job<TuningReport> Session::submitTune(TuneRequest request,
                                      JobConfig config) {
  return submitJob<TuningReport>(
      config, [this, request = std::move(request),
               priority = config.priority](const CancelToken& token,
                                           std::uint64_t jobId) {
        return tuneImpl(request, token, priority, jobId);
      });
}

std::vector<Job<CompileResult>> Session::submitBatch(
    std::vector<CompileRequest> requests, JobConfig config) {
  std::vector<Job<CompileResult>> jobs;
  jobs.reserve(requests.size());
  for (CompileRequest& request : requests)
    jobs.push_back(submitCompile(std::move(request), config));
  return jobs;
}

Flow Session::compileFlow(const std::string& source, FlowOptions options) {
  // The hermetic path: a fresh pipeline with no stage cache, exactly
  // the pre-Session Flow::compile semantics (every stage runs, nothing
  // is shared or published). The simple path stays simple — and
  // reproducible — while the request API gets the shared state.
  return Flow(std::make_shared<Pipeline>(source, std::move(options)));
}

std::shared_ptr<const Flow> Session::compileShared(const std::string& source,
                                                   FlowOptions options) {
  return cache_.compile(source, std::move(options));
}

Session::Stats Session::stats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats.compileRequests = compileRequests_;
    stats.sweepRequests = sweepRequests_;
    stats.tuneRequests = tuneRequests_;
    stats.failedRequests = failedRequests_;
  }
  {
    std::lock_guard<std::mutex> lock(jobCounters_->mutex);
    stats.jobsSubmitted = jobCounters_->submitted;
    stats.jobsCompleted = jobCounters_->completed;
    stats.jobsCancelled = jobCounters_->cancelled;
    stats.jobQueueDepth = jobCounters_->queueDepth;
    stats.jobsRunning = jobCounters_->running;
  }
  stats.flowCache = cache_.stats();
  if (const StageCache* stages = cache_.stageCache())
    stats.stageCache = stages->stats();
  if (store_) {
    stats.artifactStore = store_->stats();
    stats.artifactStoreEnabled = true;
  }
  stats.workerThreads = pool_.threadCount();
  stats.workersStarted = pool_.started();
  return stats;
}

std::string Session::statsReport() const {
  const Stats stats = this->stats();
  std::ostringstream os;
  os << "  session: " << stats.compileRequests << " compile / "
     << stats.sweepRequests << " sweep / " << stats.tuneRequests
     << " tune requests (" << stats.failedRequests << " failed), pool "
     << stats.workerThreads
     << (stats.workersStarted ? " workers (started)\n"
                              : " workers (not started)\n");
  os << "  jobs: " << stats.jobsSubmitted << " submitted / "
     << stats.jobsCompleted << " completed / " << stats.jobsCancelled
     << " cancelled (" << stats.jobQueueDepth << " queued, "
     << stats.jobsRunning << " running)\n";
  os << "  flow cache: " << stats.flowCache.hits << " hits / "
     << stats.flowCache.misses << " misses ("
     << stats.flowCache.inFlightJoins << " in-flight joins, "
     << stats.flowCache.evictions << " evictions, "
     << stats.flowCache.entries << " entries)\n";
  os << "  stage cache: " << stats.stageCache.hits << " hits / "
     << stats.stageCache.misses << " misses ("
     << stats.stageCache.evictions << " evictions, "
     << stats.stageCache.entries << " entries, ~"
     << formatFixed(static_cast<double>(stats.stageCache.approxBytes) /
                        (1024.0 * 1024.0),
                    2)
     << " MB)\n";
  if (stats.artifactStoreEnabled) {
    os << "  artifact store: " << stats.artifactStore.hits << " hits / "
       << stats.artifactStore.misses << " misses ("
       << stats.artifactStore.verifyFailures << " verify failures, "
       << stats.artifactStore.publishes << " publishes, "
       << stats.artifactStore.evictions << " evictions, "
       << stats.artifactStore.staleTmpRemoved << " stale tmp removed)\n";
  } else {
    os << "  artifact store: disabled\n";
  }
  return os.str();
}

Session& Session::global() {
  static Session session;
  return session;
}

} // namespace cfd
