#include "core/Explorer.h"

#include "core/Session.h"
#include "support/Error.h"

#include <algorithm>
#include <atomic>
#include <chrono>

namespace cfd {

std::size_t ExplorationResult::feasibleCount() const {
  std::size_t count = 0;
  for (const ExplorationRow& row : rows)
    if (row.ok())
      ++count;
  return count;
}

std::size_t ExplorationResult::cacheHitCount() const {
  std::size_t count = 0;
  for (const ExplorationRow& row : rows)
    if (row.cacheHit)
      ++count;
  return count;
}

std::int64_t ExplorationResult::stagesAdoptedTotal() const {
  std::int64_t total = 0;
  for (const ExplorationRow& row : rows)
    total += row.stagesAdopted;
  return total;
}

namespace {

/// Cache provenance of one compiled flow (the ExplorationRow::
/// resumedFrom string): "flow-cache" when the whole Flow was reused,
/// "stage-cache" when a recompile adopted every stage artifact (e.g.
/// the Flow entry was evicted while the stage prefix survived),
/// otherwise the first pipeline stage that actually ran.
std::string resumedFromStage(const Flow& flow, bool cacheHit) {
  if (cacheHit)
    return "flow-cache";
  // A flow-cache miss that still ran zero stages (every artifact
  // adopted) is "stage-cache", not "flow-cache".
  for (int i = 0; i < kStageCount; ++i)
    if (flow.pipeline().provenance(static_cast<Stage>(i)) ==
        StageProvenance::Ran)
      return stageName(static_cast<Stage>(i));
  return "stage-cache";
}

ExplorationRow runJob(std::size_t index, const ExplorationJob& job,
                      const ExplorerOptions& options, FlowCache& cache) {
  ExplorationRow row;
  row.index = index;
  row.options = job.options;
  normalizeOptions(row.options);
  // Cancellation cuts the sweep short row by row: rows not yet started
  // record the cancellation as their error instead of compiling (a row
  // already inside the pipeline stops at its next stage checkpoint via
  // the token handed to the cache below).
  if (options.cancelToken.cancelled()) {
    row.error = options.cancelToken.error("before this row").what();
    return row;
  }
  const auto start = std::chrono::steady_clock::now();
  try {
    row.flow = cache.compile(job.source, job.options, &row.cacheHit,
                             options.cancelToken);
    row.compileMillis = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    // Cache provenance of this row (cfdc --explain-cache): a full
    // FlowCache hit reused every stage; otherwise report where the
    // incremental compile resumed (the first stage that actually ran).
    row.stagesAdopted = row.cacheHit
                            ? kStageCount
                            : row.flow->pipeline().adoptedStageCount();
    row.resumedFrom = resumedFromStage(*row.flow, row.cacheHit);
    if (options.simulateElements > 0) {
      sim::SimOptions simOptions;
      simOptions.numElements = options.simulateElements;
      simOptions.strategy = options.transferStrategy;
      row.sim = row.flow->simulate(simOptions);
      row.simulated = true;
    }
  } catch (const std::exception& e) {
    // FlowError (infeasible m/k, bad source, a sim assertion, ...) —
    // record, don't abort the sweep; an exception must never escape a
    // worker thread.
    row.error = e.what();
    row.flow = nullptr;
  }
  return row;
}

} // namespace

ExplorationResult explore(Session& session,
                          const std::vector<ExplorationJob>& jobs,
                          const ExplorerOptions& options) {
  ExplorationResult result;
  result.rows.resize(jobs.size());
  // Borrowed, session-owned state (DESIGN.md §10): Explorer spins up
  // no threads and builds no caches of its own.
  FlowCache& cache = session.flowCache();
  WorkerPool& pool = session.workerPool();

  int workers = pool.threadCount();
  if (options.workers > 0)
    workers = std::min(workers, options.workers);
  workers = std::min<int>(workers, static_cast<int>(jobs.size()));
  workers = std::max(workers, 1);
  result.workers = workers;

  const auto start = std::chrono::steady_clock::now();
  if (!jobs.empty()) {
    // Work-stealing over the pool's atomic cursor: rows land at their
    // job index, so the result order never depends on scheduling. The
    // batch competes in the session's shared priority queue at the
    // submitting job's priority (DESIGN.md §11) — one scheduler
    // arbitrates sweeps, tunes, and async jobs alike.
    pool.parallelFor(
        jobs.size(), workers,
        [&, done = std::make_shared<std::atomic<std::size_t>>(0)](
            std::size_t i) {
          result.rows[i] = runJob(i, jobs[i], options, cache);
          if (options.onProgress)
            options.onProgress(done->fetch_add(1) + 1, jobs.size());
        },
        options.priority, options.jobTag);
  }
  result.wallMillis = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  result.cacheStats = cache.stats();
  if (cache.stageCache() != nullptr)
    result.stageStats = cache.stageCache()->stats();
  return result;
}

ExplorationResult explore(Session& session, const std::string& source,
                          const std::vector<FlowOptions>& variants,
                          const ExplorerOptions& options) {
  std::vector<ExplorationJob> jobs;
  jobs.reserve(variants.size());
  for (const FlowOptions& variant : variants)
    jobs.push_back(ExplorationJob{source, variant});
  return explore(session, jobs, options);
}

} // namespace cfd
