// cfd::dist::SweepCoordinator — distributed design-space sweeps
// (DESIGN.md §16).
//
// The scale-out half of ROADMAP item 2: one coordinator process
// partitions a sweep's design points into chunks and dispatches them
// over the serve protocol (serve/Protocol.h, "sweep_chunk" requests)
// to N worker daemons, each a normal `cfdc --serve` process with its
// own Session, caches, and worker pool. The chunks are cut from the
// points in stage-key order, and each worker drains a home block of
// consecutive chunks, so a shared stage prefix stays on one worker
// (planDispatch). A worker whose block is empty steals from the back
// of the fullest block; a worker that dies mid-chunk (EOF/error on its
// socket) gets the chunk requeued with a bounded attempt count; a
// worker that exceeds the per-chunk inactivity deadline is demoted —
// its connection is closed (the daemon's disconnect-cancel stops the
// straggling compile) and its chunk requeued for a live worker.
//
// Determinism: the merged result is byte-identical to a single-process
// sweep. Design points come from the same expander a local sweep uses
// (core/Tuner.h TuneSpace::points), are shipped as slices of explicit
// (index, label, params), compiled by the worker through the same
// Explorer path as a local sweep, and merged back by index — so neither
// chunking, scheduling, worker count, nor failures can reorder or
// reprice a row. reportJson()/reportText() emit only
// run-independent fields, and fromSweepResult() renders a local
// SweepResult into the same canonical report for diffing.
#pragma once

#include "core/Session.h"
#include "core/Tuner.h"
#include "support/Expected.h"
#include "support/Json.h"

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace cfd::dist {

struct DistSweepOptions {
  /// DSL source, sent inline to every worker.
  std::string source;
  /// Base option overrides every point starts from (cfdc sweep keys);
  /// applied by each worker over its session defaults, so workers must
  /// run default sessions for cross-process determinism.
  std::vector<std::pair<std::string, std::string>> baseParams;
  /// The sweep axes; their TuneSpace, in rank order, is the design
  /// space (bounded by kMaxSpacePoints).
  std::vector<TuneAxis> axes;
  /// Socket paths of the worker daemons (one connection each).
  std::vector<std::string> workerSockets;
  /// Points per chunk; 0 sizes chunks to ~4 per worker so work
  /// stealing has slack without drowning in round trips.
  std::size_t chunkSize = 0;
  /// Dispatch attempts per chunk before the sweep fails (first try
  /// included).
  int maxChunkAttempts = 3;
  /// Straggler demotion: a worker whose chunk shows no progress event
  /// for this long is cut off and its chunk requeued. 0 = never.
  double chunkDeadlineMillis = 0;
  /// Thread-safe observer of merged progress, (pointsDone, pointsTotal).
  /// Called from coordinator worker threads on every progress event.
  std::function<void(std::size_t, std::size_t)> onProgress;
};

/// One merged design-point row; only run-independent fields, so two
/// runs over the same space always merge to the same bytes.
struct DistRow {
  std::int64_t index = 0;
  std::string label;
  bool feasible = false;
  std::string error;        ///< set when !feasible
  std::int64_t m = 0;
  std::int64_t k = 0;
  std::int64_t bramPerPlm = 0;
  double kernelUs = 0;
};

struct DistSweepStats {
  int workersRequested = 0;
  int workersConnected = 0;
  int workersLost = 0;    ///< EOF/error mid-chunk (crash, SIGKILL)
  int workersDemoted = 0; ///< cut off by the per-chunk deadline
  std::int64_t chunksDispatched = 0; ///< sends, retries included
  std::int64_t chunksRetried = 0;
  std::int64_t progressEvents = 0;
  double wallMillis = 0;
};

struct DistSweepResult {
  std::vector<DistRow> rows;         ///< design-point order
  std::vector<std::size_t> frontier; ///< Pareto indices into rows
  DistSweepStats stats;

  /// The canonical merged report: {schema, points, rows, frontier} with
  /// deterministic fields only — the byte-identity surface between
  /// distributed and single-process sweeps.
  json::Value reportJson() const;
  /// reportJson() pretty-printed with a trailing newline (what
  /// `cfdc --sweep --emit=json` writes).
  std::string reportText() const;
};

class SweepCoordinator {
public:
  explicit SweepCoordinator(DistSweepOptions options);

  /// Expands the design space, runs the distributed sweep to
  /// completion, and merges. Fails before touching a socket on bad
  /// params/axes or an oversized space (stage-"options" diagnostics),
  /// and with stage-"dist" diagnostics on no workers or no reachable
  /// ones, a chunk exhausting its attempts, or all workers lost
  /// mid-sweep.
  Expected<DistSweepResult> run();

  /// Renders a locally-computed SweepResult into the same canonical
  /// rows/frontier/report as a distributed run — the single-process
  /// side of the byte-identity contract (and of `--emit=json`).
  static DistSweepResult fromSweepResult(const SweepResult& sweep);

private:
  DistSweepOptions options_;
};

/// How a sweep's points are dealt to its workers (DESIGN.md §16).
struct DispatchPlan {
  /// Every point rank once, ordered by the points' stage keys (ties by
  /// rank), so the points sharing any stage prefix are one run.
  std::vector<std::size_t> order;
  /// Chunk j is order[j * chunkSize, (j + 1) * chunkSize), the last
  /// one cut short at the end of `order`.
  std::size_t chunkSize = 0;
  /// Each chunk's home worker: chunk j of n belongs to worker
  /// floor(j * W / n), so a home block is consecutive chunks.
  std::vector<std::size_t> home;
};

/// Plans the dispatch of `points` over `workers` workers in chunks of
/// `chunkSize` points (0: ~4 chunks per worker). Each point's stage
/// keys are computed as a worker over a default session derives them:
/// `base` (the sweep's base params applied), then the point's params,
/// normalized, over `source`. The points must have passed
/// validateTuneAxes.
DispatchPlan planDispatch(const std::string& source, const FlowOptions& base,
                          const std::vector<SweepPoint>& points,
                          std::size_t workers, std::size_t chunkSize);

/// The shared frontier rule: Pareto-minimal feasible rows over
/// (kernel_us, m * bram_per_plm) — latency versus total PLM BRAM cost,
/// the two-objective trade-off the paper sweeps (PAPER.md).
std::vector<std::size_t> distFrontier(const std::vector<DistRow>& rows);

} // namespace cfd::dist
