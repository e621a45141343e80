// Parallel design-space exploration (DESIGN.md §3, §10).
//
// The paper's headline claim is that the DSL flow "simplifies the
// exploration of parameters and constraints". Explorer is the batch
// driver for that: it fans a vector of FlowOptions variants (or whole
// source/options jobs) across a Session's worker pool, compiles each
// variant through that session's FlowCache, optionally runs the
// platform simulation, and collects one row per variant in input order
// — so results are deterministic and independent of the worker count.
//
// Explorer owns neither caches nor threads (DESIGN.md §10): both come
// from the Session passed in.
//
// Infeasible variants (e.g. an m/k pair violating Eq. 3) do not abort
// the sweep: their row carries the FlowError message instead of a Flow.
#pragma once

#include "core/FlowCache.h"
#include "core/WorkerPool.h"
#include "sim/PlatformSim.h"
#include "support/Cancellation.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace cfd {

class Session;

/// One point of the design space: a kernel source plus a configuration.
struct ExplorationJob {
  std::string source;
  FlowOptions options;
};

struct ExplorationRow {
  std::size_t index = 0;   // position in the input job vector
  FlowOptions options;     // normalized
  std::shared_ptr<const Flow> flow; // null when the variant is infeasible
  std::string error;       // FlowError message for infeasible variants
  /// True when the Flow was served from the FlowCache (or an in-flight
  /// compile) instead of being compiled by this row's worker. On a hit
  /// compileMillis is the (near-zero) lookup time, not a compile.
  bool cacheHit = false;
  /// Stage artifacts adopted from the StageCache instead of being
  /// recomputed (kStageCount on a full FlowCache hit, 0 on a cold
  /// compile). Incremental compilation, DESIGN.md §9.
  int stagesAdopted = 0;
  /// The first pipeline stage this row's compile actually executed:
  /// "flow-cache" when the whole Flow was reused, "stage-cache" when a
  /// recompile adopted all 9 stage artifacts, otherwise a stage name
  /// ("parse" = cold, "hls" = parse..memory-plan adopted, ...).
  std::string resumedFrom;
  double compileMillis = 0; // wall time of the compile or cache lookup
  bool simulated = false;
  sim::SimResult sim;      // valid when simulated

  bool ok() const { return error.empty(); }
};

struct ExplorerOptions {
  /// Per-call parallelism cap, including the calling thread; 0 = the
  /// session's pool size (never more than the number of jobs).
  int workers = 0;
  /// When > 0, run the platform simulation with this many elements for
  /// every feasible variant.
  std::int64_t simulateElements = 0;
  sim::TransferStrategy transferStrategy = sim::TransferStrategy::Blocking;
  /// Cooperative cancellation (DESIGN.md §11): checked before each row
  /// and between the pipeline stages of each row's compile. Rows cut
  /// short carry the cancellation message in their error field.
  CancelToken cancelToken;
  /// Scheduling priority of this batch in the session's worker pool
  /// (WorkerPool::kPriority*; sweep/tune jobs pass their own priority
  /// so per-point work competes at the job's level).
  int priority = WorkerPool::kPriorityNormal;
  /// Diagnostic tag for the pool queue (the submitting job's id, or 0).
  std::uint64_t jobTag = 0;
  /// Called once per completed row with (done, total) — done counts
  /// completions in finish order, not row order. Invoked from worker
  /// threads: the callback must be thread-safe and cheap (it runs
  /// between rows). Used by the daemon to stream sweep_chunk progress
  /// events (DESIGN.md §16).
  std::function<void(std::size_t, std::size_t)> onProgress;
};

struct ExplorationResult {
  std::vector<ExplorationRow> rows; // same order as the input jobs
  double wallMillis = 0;
  int workers = 1;
  FlowCache::Stats cacheStats; // stats of the cache used, after the sweep
  /// Stats of the stage cache underneath (zero-valued when the cache
  /// runs with incremental compilation disabled).
  StageCache::Stats stageStats;

  std::size_t feasibleCount() const;
  /// Rows whose Flow came from the cache rather than a fresh compile.
  std::size_t cacheHitCount() const;
  /// Stage artifacts adopted across all rows (prefix reuse).
  std::int64_t stagesAdoptedTotal() const;
};

/// Explores arbitrary (source, options) jobs through `session`'s cache
/// and worker pool.
ExplorationResult explore(Session& session,
                          const std::vector<ExplorationJob>& jobs,
                          const ExplorerOptions& options = {});

/// Explores option variants of a single kernel source.
ExplorationResult explore(Session& session, const std::string& source,
                          const std::vector<FlowOptions>& variants,
                          const ExplorerOptions& options = {});

} // namespace cfd
