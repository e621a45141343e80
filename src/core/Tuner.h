// Auto-tuning search over the design space (DESIGN.md §7).
//
// Explorer (DESIGN.md §3) evaluates a *given* list of variants; the
// Tuner decides *which* variants to evaluate. A TuneSpace declares the
// parameter axes (named key/value axes mirroring the cfdc sweep keys)
// and is the one expander of their cross product: point(rank) gives the
// labelled params of any point, and every sweep, tune, async batch and
// distributed shard enumerates the same ranks. A strategy — exhaustive,
// seeded random sampling, or greedy hill-climb — walks that space,
// pruning structurally infeasible m/k combinations before any compile;
// objectives (core/Objective.h) score every feasible row; and the
// multi-objective Pareto frontier (core/Pareto.h) plus all evaluated
// points are returned as a TuningReport that serializes to JSON
// (support/Json.h, DESIGN.md §8).
//
// Determinism contract: for a fixed source, space, strategy, seed, and
// base options, the set of evaluated points, their scores, and the
// frontier are identical on every run and for every worker count
// (sampling uses a local SplitMix64 generator, never std::random
// distributions; Explorer rows land in input order). Only wall-clock
// fields (compileMillis, wallMillis, cacheHit) vary between runs.
#pragma once

#include "core/Explorer.h"
#include "core/Objective.h"
#include "support/Diagnostics.h"
#include "support/Json.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace cfd {

class Session;

/// One named parameter axis. Keys mirror the cfdc sweep keys:
/// unroll|opt|m|k|sharing|decoupled|objective|layout. Value order
/// matters: hill-climb treats adjacent values as neighbors, so list
/// numeric axes in increasing order.
struct TuneAxis {
  std::string key;
  std::vector<std::string> values;
};

/// One labelled design point: named option overrides applied in order
/// over the base options (applyTuneParam). TuneSpace::point() produces
/// them; the distributed coordinator (dist/Coordinator.h) ships them to
/// worker daemons so every process derives identical FlowOptions and
/// labels (DESIGN.md §16).
struct SweepPoint {
  /// "key=value key=value" in axis order; "base" for the empty space.
  std::string label;
  std::vector<std::pair<std::string, std::string>> params;
};

/// The most design points one request may describe: an axis cross
/// product, or an explicit points()/variants() list. Checked before
/// anything is expanded (validateTuneAxes, checkSpaceBound).
inline constexpr std::size_t kMaxSpacePoints = 65536;

/// The declared search space: the cross product of all axes. A point's
/// rank is its mixed-radix index with the last axis varying fastest,
/// so ranks enumerate the product in declaration order.
struct TuneSpace {
  std::vector<TuneAxis> axes;

  /// Cross-product cardinality (1 for an empty space: the base point);
  /// saturates at SIZE_MAX instead of wrapping.
  std::size_t size() const;
  /// Rank distance between two points one value apart on `axis`: the
  /// product of the later axes' sizes.
  std::size_t stride(std::size_t axis) const;
  /// The point of rank `rank` in [0, size()).
  SweepPoint point(std::size_t rank) const;
  /// Every point, index == rank. Callers bound size() first.
  std::vector<SweepPoint> points() const;
  /// Ranks one value step away along one axis, in hill-climb order:
  /// for each axis, the lower neighbor then the upper one.
  std::vector<std::size_t> neighbors(std::size_t rank) const;
};

/// The space cfdc --tune searches when no --sweep axes are given:
/// unroll {1,2,4} x sharing {0,1} x decoupled {0,1} — the paper's §VI
/// parameters with the largest resource/latency trade-offs.
TuneSpace defaultTuneSpace();

/// Applies one (key, value) pair to `options`; shared by the Tuner and
/// the cfdc --sweep/--tune flag parser. Throws FlowError on an unknown
/// key or a malformed value (an unroll factor must be a power of two).
void applyTuneParam(FlowOptions& options, const std::string& key,
                    const std::string& value);

/// `base` with every param of `point` applied in order (applyTuneParam,
/// whose FlowError it passes on): the options a local sweep, a tune and
/// a worker daemon compile for the point, and the ones the distributed
/// coordinator plans its dispatch from.
FlowOptions optionsFor(const FlowOptions& base, const SweepPoint& point);

/// Appends one "options" diagnostic naming kMaxSpacePoints when a
/// design space of `points` points exceeds it; true when within.
bool checkSpaceBound(std::size_t points, DiagnosticList& diagnostics);

/// The axis validator behind every sweep and tune (Session, the
/// distributed coordinator, cfdc): each axis needs values and a key no
/// other axis uses, the cross product must be within kMaxSpacePoints
/// (checked before any value is probed, so an oversized space is one
/// diagnostic however many values it lists), and every value must pass
/// applyTuneParam (one diagnostic per bad value). Diagnostics carry
/// stage "options"; true when none was added.
bool validateTuneAxes(const std::vector<TuneAxis>& axes,
                      DiagnosticList& diagnostics);

/// Checks the m/k constraints that system generation enforces (paper
/// §V-B: k <= m, m a power-of-two multiple of k) without compiling.
/// Returns the infeasibility reason, or "" when the point may be
/// feasible (Eq. 3 resource limits still require a compile to check).
std::string checkStructuralFeasibility(const FlowOptions& options);

enum class SearchStrategy {
  Exhaustive, ///< every point of the space
  Random,     ///< seeded sampling without replacement
  HillClimb,  ///< greedy axis-neighbor descent on the primary objective
};

const char* searchStrategyName(SearchStrategy strategy);
/// Parses exhaustive|random|hillclimb; throws FlowError otherwise.
SearchStrategy searchStrategyByName(const std::string& name);

struct TunerOptions {
  SearchStrategy strategy = SearchStrategy::Exhaustive;
  /// Seed of the Random strategy's sampler. Same seed => same
  /// evaluated set.
  std::uint64_t seed = 1;
  /// Random: number of distinct points to draw (clamped to the space).
  std::size_t sampleCount = 16;
  /// HillClimb: maximum number of moves before giving up.
  std::size_t maxSteps = 32;
  /// Objectives scoring each feasible point; empty = defaultObjectives().
  /// HillClimb descends on the first objective; the frontier always
  /// uses all of them.
  std::vector<Objective> objectives;
  /// Options every point starts from (axes overwrite their own fields).
  FlowOptions base;
  /// Explorer pass-through (workers caps the session pool per batch).
  int workers = 0;
  std::int64_t simulateElements = 0;
  sim::TransferStrategy transferStrategy = sim::TransferStrategy::Blocking;
  /// Cooperative cancellation (DESIGN.md §11): checked between
  /// evaluation batches (and per row / per pipeline stage inside them).
  /// A direct tune() caller arming its own token gets the partial
  /// report built so far; through Session::submitTune the job wrapper
  /// instead resolves the job as Cancelled with a "job-queue"
  /// diagnostic (core/Job.h) and the partial report is discarded.
  CancelToken cancelToken;
  /// Queue priority of the per-point batches (WorkerPool::kPriority*).
  int priority = WorkerPool::kPriorityNormal;
  /// Diagnostic tag for the pool queue (the submitting job's id, or 0).
  std::uint64_t jobTag = 0;
};

/// One evaluated point of the space.
struct TunedPoint {
  /// The axis assignments of this point, in axis order.
  std::vector<std::pair<std::string, std::string>> params;
  ExplorationRow row;         // compile/simulation outcome
  std::vector<double> scores; // one per objective; empty when !row.ok()
  bool onFrontier = false;

  /// "unroll=2 sharing=1", or "base" for the empty space.
  std::string label() const;
};

struct TuningReport {
  /// One structurally pruned point: never compiled, kept in the report
  /// (JSON "points" entries with "pruned": true) so an infeasible
  /// region is visible instead of silently shrinking the space.
  struct PrunedPoint {
    std::vector<std::pair<std::string, std::string>> params;
    std::string reason; // checkStructuralFeasibility's message
  };

  SearchStrategy strategy = SearchStrategy::Exhaustive;
  std::uint64_t seed = 0;
  std::vector<std::string> objectives; // names, in scoring order
  TuneSpace space;

  std::vector<TunedPoint> points;     // evaluated, deterministic order
  std::vector<std::size_t> frontier;  // indices into points
  /// Structurally infeasible points, in first-considered order
  /// (prunedCount == prunedPoints.size()).
  std::vector<PrunedPoint> prunedPoints;

  std::size_t spaceSize = 0;   // full cross-product cardinality
  std::size_t prunedCount = 0; // rejected before compiling
  std::size_t feasibleCount = 0;
  std::size_t cacheHitCount = 0; // rows served from the FlowCache
  /// Stage artifacts adopted across all evaluated points (incremental
  /// compilation, DESIGN.md §9). Not serialized to JSON: like the
  /// timing fields, cache provenance depends on evaluation order.
  std::int64_t stagesAdoptedTotal = 0;
  FlowCache::Stats flowCacheStats;   // of the cache used, after the run
  StageCache::Stats stageCacheStats; // zero-valued when disabled
  int workers = 1;
  double wallMillis = 0;

  /// The report as a JSON document (schema: DESIGN.md §8). Everything
  /// except the "timing" object and the per-point "compile_ms" /
  /// "cache_hit" fields is deterministic for a fixed seed and space.
  json::Value toJson() const;
  /// toJson() pretty-printed with a trailing newline.
  std::string jsonText() const;
};

/// Runs the configured search over (source x space), compiling through
/// `session`'s cache and worker pool (the Tuner owns neither,
/// DESIGN.md §10). Points whose compile fails (Eq. 3 violations that
/// survive the structural pre-filter, DSL errors) stay in the report
/// with their error string; only a space validateTuneAxes rejects
/// throws (a DiagnosedError carrying its diagnostics).
TuningReport tune(Session& session, const std::string& source,
                  const TuneSpace& space, const TunerOptions& options = {});

} // namespace cfd
