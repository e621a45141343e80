#include "core/Tuner.h"

#include "core/Pareto.h"
#include "core/Session.h"
#include "support/Error.h"

#include <algorithm>
#include <chrono>
#include <limits>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

namespace cfd {

namespace {

int parseIntValue(const std::string& value, const std::string& key) {
  try {
    std::size_t consumed = 0;
    const int parsed = std::stoi(value, &consumed);
    if (consumed != value.size())
      throw FlowError("");
    return parsed;
  } catch (const std::exception&) {
    throw FlowError("parameter '" + key + "' expects an integer (got '" +
                    value + "')");
  }
}

bool parseBoolValue(const std::string& value, const std::string& key) {
  if (value == "1" || value == "yes" || value == "true")
    return true;
  if (value == "0" || value == "no" || value == "false")
    return false;
  throw FlowError("parameter '" + key +
                  "' expects 0/1/yes/no/true/false (got '" + value + "')");
}

bool isPow2(int value) { return value > 0 && (value & (value - 1)) == 0; }

/// Deterministic 64-bit generator (SplitMix64). Used instead of
/// std::uniform_int_distribution, whose output is implementation-
/// defined: the Random strategy must draw the same points on every
/// platform for a given seed.
class SplitMix64 {
public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

  /// Uniform-ish draw in [0, bound); the modulo bias is irrelevant for
  /// sampling design points but the sequence is fully deterministic.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

private:
  std::uint64_t state_;
};

/// Cross-product cardinality of `axes`, saturating at SIZE_MAX.
std::size_t productSize(const std::vector<TuneAxis>& axes) {
  std::size_t total = 1;
  for (const TuneAxis& axis : axes)
    if (__builtin_mul_overflow(total, axis.values.size(), &total))
      return std::numeric_limits<std::size_t>::max();
  return total;
}

/// "key=value key=value" in param order; "base" when there are none.
std::string labelFor(
    const std::vector<std::pair<std::string, std::string>>& params) {
  if (params.empty())
    return "base";
  std::string label;
  for (const auto& [key, value] : params) {
    if (!label.empty())
      label += ' ';
    label += key + "=" + value;
  }
  return label;
}

/// Shared state of one tune() run.
class TuneRun {
public:
  TuneRun(Session& session, const std::string& source,
          const TuneSpace& space, const TunerOptions& options)
      : session_(session), source_(source), space_(space),
        options_(options) {
    objectives_ =
        options.objectives.empty() ? defaultObjectives() : options.objectives;
    CFD_ASSERT(!objectives_.empty(), "tuning needs at least one objective");
  }

  /// True when the point passed the structural pre-filter (and was
  /// queued or already evaluated); false when it was pruned. Each
  /// distinct pruned point counts once.
  bool consider(std::size_t rank) {
    if (!feasible(rank))
      return false;
    if (pointIndex_.count(rank) == 0 && queuedRanks_.insert(rank).second)
      queue_.push_back(rank);
    return true;
  }

  /// Compiles (through the shared cache) and scores every queued point
  /// in one parallel Explorer batch; appends them to the report.
  void evaluateQueued(TuningReport& report) {
    if (queue_.empty())
      return;
    std::vector<SweepPoint> points;
    std::vector<FlowOptions> variants;
    points.reserve(queue_.size());
    variants.reserve(queue_.size());
    for (const std::size_t rank : queue_) {
      points.push_back(space_.point(rank));
      variants.push_back(optionsFor(options_.base, points.back()));
    }

    ExplorerOptions explorerOptions;
    explorerOptions.workers = options_.workers;
    explorerOptions.simulateElements = options_.simulateElements;
    explorerOptions.transferStrategy = options_.transferStrategy;
    explorerOptions.cancelToken = options_.cancelToken;
    explorerOptions.priority = options_.priority;
    explorerOptions.jobTag = options_.jobTag;
    const ExplorationResult batch =
        explore(session_, source_, variants, explorerOptions);
    if (report.workers < batch.workers)
      report.workers = batch.workers;

    for (std::size_t i = 0; i < queue_.size(); ++i) {
      TunedPoint point;
      point.params = std::move(points[i].params);
      point.row = batch.rows[i];
      if (point.row.ok()) {
        point.scores.reserve(objectives_.size());
        for (const Objective& objective : objectives_)
          point.scores.push_back(objective.score(point.row));
      }
      pointIndex_[queue_[i]] = report.points.size();
      report.points.push_back(std::move(point));
    }
    queue_.clear();
    queuedRanks_.clear();
  }

  /// Primary-objective score of an already evaluated point; +inf for
  /// infeasible points (never selected by hill-climb).
  double primaryScore(const TuningReport& report, std::size_t rank) const {
    const auto it = pointIndex_.find(rank);
    CFD_ASSERT(it != pointIndex_.end(), "point was never evaluated");
    const TunedPoint& point = report.points[it->second];
    return point.row.ok() ? point.scores.front()
                          : std::numeric_limits<double>::infinity();
  }

  std::vector<TuningReport::PrunedPoint> takePrunedPoints() {
    return std::move(prunedPoints_);
  }
  /// Points queued for the next evaluateQueued() batch.
  std::size_t pendingCount() const { return queue_.size(); }
  const std::vector<Objective>& objectives() const { return objectives_; }

private:
  /// Structural pre-filter with memoized verdicts. The first time a
  /// point fails, its params and reason are recorded for the report's
  /// pruned-point list (each distinct point once, in first-considered
  /// order).
  bool feasible(std::size_t rank) {
    const auto it = feasibleByRank_.find(rank);
    if (it != feasibleByRank_.end())
      return it->second;
    SweepPoint point = space_.point(rank);
    const std::string reason =
        checkStructuralFeasibility(optionsFor(options_.base, point));
    const bool ok = reason.empty();
    feasibleByRank_.emplace(rank, ok);
    if (!ok)
      prunedPoints_.push_back(
          TuningReport::PrunedPoint{std::move(point.params), reason});
    return ok;
  }

  Session& session_;
  const std::string& source_;
  const TuneSpace& space_;
  const TunerOptions& options_;
  std::vector<Objective> objectives_;
  std::vector<std::size_t> queue_;
  std::unordered_set<std::size_t> queuedRanks_;
  std::unordered_map<std::size_t, bool> feasibleByRank_;
  std::unordered_map<std::size_t, std::size_t> pointIndex_;
  std::vector<TuningReport::PrunedPoint> prunedPoints_;
};

void runExhaustive(TuneRun& run, const TuneSpace& space,
                   TuningReport& report) {
  const std::size_t total = space.size();
  for (std::size_t rank = 0; rank < total; ++rank)
    run.consider(rank);
  run.evaluateQueued(report);
}

void runRandom(TuneRun& run, const TuneSpace& space,
               const TunerOptions& options, TuningReport& report) {
  const std::size_t total = space.size();
  const std::size_t target = std::min(options.sampleCount, total);
  SplitMix64 rng(options.seed);
  // Sampling without replacement by rejection: duplicate draws and
  // pruned points don't count toward the target (consider() dedups),
  // and the attempt bound keeps a space dominated by structurally
  // infeasible points from spinning forever.
  const std::size_t maxAttempts = 64 * total;
  for (std::size_t attempt = 0;
       run.pendingCount() < target && attempt < maxAttempts; ++attempt)
    run.consider(static_cast<std::size_t>(rng.below(total)));
  run.evaluateQueued(report);
}

void runHillClimb(TuneRun& run, const TuneSpace& space,
                  const TunerOptions& options, TuningReport& report) {
  const std::size_t total = space.size();
  // Deterministic start: the lowest-ranked point that passes the
  // structural pre-filter.
  std::size_t current = 0;
  while (current < total && !run.consider(current))
    ++current;
  if (current == total)
    return; // every point structurally infeasible
  run.evaluateQueued(report);

  for (std::size_t step = 0; step < options.maxSteps; ++step) {
    // A cancelled tune keeps the points evaluated so far and stops
    // walking (the submitting job reports the cancellation itself).
    if (options.cancelToken.cancelled())
      break;
    // Neighbors differ by one step along one axis. Evaluate the whole
    // neighborhood as one parallel batch, then move greedily.
    std::vector<std::size_t> neighbors;
    for (const std::size_t neighbor : space.neighbors(current))
      if (run.consider(neighbor))
        neighbors.push_back(neighbor);
    run.evaluateQueued(report);

    double bestScore = run.primaryScore(report, current);
    std::size_t best = current;
    for (const std::size_t neighbor : neighbors) {
      const double score = run.primaryScore(report, neighbor);
      // Strict improvement with first-wins tie-breaking keeps the walk
      // deterministic and guarantees termination.
      if (score < bestScore) {
        bestScore = score;
        best = neighbor;
      }
    }
    if (best == current)
      break; // local optimum
    current = best;
  }
}

} // namespace

std::size_t TuneSpace::size() const { return productSize(axes); }

std::size_t TuneSpace::stride(std::size_t axis) const {
  std::size_t stride = 1;
  for (std::size_t later = axis + 1; later < axes.size(); ++later)
    stride *= axes[later].values.size();
  return stride;
}

SweepPoint TuneSpace::point(std::size_t rank) const {
  SweepPoint point;
  point.params.resize(axes.size());
  for (std::size_t axis = axes.size(); axis-- > 0;) {
    const std::size_t radix = axes[axis].values.size();
    point.params[axis] = {axes[axis].key, axes[axis].values[rank % radix]};
    rank /= radix;
  }
  point.label = labelFor(point.params);
  return point;
}

std::vector<SweepPoint> TuneSpace::points() const {
  const std::size_t total = size();
  std::vector<SweepPoint> out;
  out.reserve(total);
  for (std::size_t rank = 0; rank < total; ++rank)
    out.push_back(point(rank));
  return out;
}

std::vector<std::size_t> TuneSpace::neighbors(std::size_t rank) const {
  std::vector<std::size_t> out;
  for (std::size_t axis = 0; axis < axes.size(); ++axis) {
    const std::size_t step = stride(axis);
    const std::size_t index = rank / step % axes[axis].values.size();
    if (index > 0)
      out.push_back(rank - step);
    if (index + 1 < axes[axis].values.size())
      out.push_back(rank + step);
  }
  return out;
}

TuneSpace defaultTuneSpace() {
  return TuneSpace{{
      {"unroll", {"1", "2", "4"}},
      {"sharing", {"0", "1"}},
      {"decoupled", {"0", "1"}},
  }};
}

void applyTuneParam(FlowOptions& options, const std::string& key,
                    const std::string& value) {
  if (key == "unroll") {
    // The datapath replicates into as many PLM banks (normalizeOptions),
    // and cyclic banking needs a power of two (paper Sec. V-A2).
    const int factor = parseIntValue(value, key);
    if (!isPow2(factor))
      throw FlowError("parameter 'unroll' expects a power of two >= 1 "
                      "(got '" + value + "')");
    options.hls.unrollFactor = factor;
  } else if (key == "opt") {
    const int level = parseIntValue(value, key);
    if (level < 0 || level > 2)
      throw FlowError("parameter 'opt' expects a level in 0..2 (got '" +
                      value + "')");
    options.optimize.level = level;
  } else if (key == "m") {
    options.system.memories = parseIntValue(value, key);
  } else if (key == "k") {
    options.system.kernels = parseIntValue(value, key);
  } else if (key == "sharing") {
    options.memory.enableSharing = parseBoolValue(value, key);
  } else if (key == "decoupled") {
    options.memory.decoupled = parseBoolValue(value, key);
  } else if (key == "objective") {
    if (value == "sw")
      options.reschedule.objective = sched::ScheduleObjective::Software;
    else if (value == "hw")
      options.reschedule.objective = sched::ScheduleObjective::Hardware;
    else
      throw FlowError("parameter 'objective' expects hw|sw (got '" + value +
                      "')");
  } else if (key == "layout") {
    if (value == "colmajor")
      options.layouts.defaultLayout = sched::LayoutKind::ColumnMajor;
    else if (value == "rowmajor")
      options.layouts.defaultLayout = sched::LayoutKind::RowMajor;
    else
      throw FlowError("parameter 'layout' expects rowmajor|colmajor (got '" +
                      value + "')");
  } else {
    throw FlowError("unknown parameter '" + key +
                    "' (valid: unroll, opt, m, k, sharing, decoupled, "
                    "objective, layout)");
  }
}

FlowOptions optionsFor(const FlowOptions& base, const SweepPoint& point) {
  FlowOptions options = base;
  for (const auto& [key, value] : point.params)
    applyTuneParam(options, key, value);
  return options;
}

bool checkSpaceBound(std::size_t points, DiagnosticList& diagnostics) {
  if (points <= kMaxSpacePoints)
    return true;
  diagnostics.error({},
                    "design space of " +
                        (points == std::numeric_limits<std::size_t>::max()
                             ? std::string("2^64 or more")
                             : std::to_string(points)) +
                        " points exceeds the bound of " +
                        std::to_string(kMaxSpacePoints) +
                        " (kMaxSpacePoints)",
                    "options");
  return false;
}

bool validateTuneAxes(const std::vector<TuneAxis>& axes,
                      DiagnosticList& diagnostics) {
  const std::size_t errorsBefore = diagnostics.errorCount();
  std::unordered_set<std::string_view> keys;
  for (const TuneAxis& axis : axes) {
    if (axis.values.empty())
      diagnostics.error({}, "axis '" + axis.key + "' has no values",
                        "options");
    if (!keys.insert(axis.key).second)
      diagnostics.error({}, "axis '" + axis.key + "' is declared twice",
                        "options");
  }
  // The bound comes before the per-value probes: an oversized space is
  // one diagnostic, however many values it lists.
  if (!checkSpaceBound(productSize(axes), diagnostics))
    return false;
  FlowOptions probe;
  for (const TuneAxis& axis : axes)
    for (const std::string& value : axis.values) {
      try {
        applyTuneParam(probe, axis.key, value);
      } catch (const FlowError& e) {
        diagnostics.error({}, e.what(), "options");
      }
    }
  return diagnostics.errorCount() == errorsBefore;
}

std::string checkStructuralFeasibility(const FlowOptions& options) {
  const int m = options.system.memories;
  const int k = options.system.kernels;
  if (options.hls.unrollFactor < 1)
    return "unroll factor must be >= 1";
  if (m < 0 || k < 0)
    return "m and k must be >= 0 (0 = auto)";
  // m = 0 or k = 0 means "resolve against the compiled kernel's
  // resource usage" (sysgen), which a pre-filter cannot decide.
  if (m > 0 && k > 0) {
    if (k > m)
      return "k <= m is required (each accelerator needs a memory)";
    if (m % k != 0 || !isPow2(m / k))
      return "m must be a power-of-two multiple of k (paper Sec. V-B)";
  }
  return "";
}

const char* searchStrategyName(SearchStrategy strategy) {
  switch (strategy) {
  case SearchStrategy::Exhaustive: return "exhaustive";
  case SearchStrategy::Random: return "random";
  case SearchStrategy::HillClimb: return "hillclimb";
  }
  CFD_UNREACHABLE("bad SearchStrategy");
}

SearchStrategy searchStrategyByName(const std::string& name) {
  if (name == "exhaustive")
    return SearchStrategy::Exhaustive;
  if (name == "random")
    return SearchStrategy::Random;
  if (name == "hillclimb")
    return SearchStrategy::HillClimb;
  throw FlowError("unknown search strategy '" + name +
                  "' (valid: exhaustive, random, hillclimb)");
}

std::string TunedPoint::label() const { return labelFor(params); }

TuningReport tune(Session& session, const std::string& source,
                  const TuneSpace& space, const TunerOptions& options) {
  // Validate the axes up front so a typo fails fast instead of
  // surfacing as N identical per-point errors.
  DiagnosticList diagnostics;
  if (!validateTuneAxes(space.axes, diagnostics))
    diagnostics.throwIfErrors("tune space");

  TuningReport report;
  report.strategy = options.strategy;
  report.seed = options.seed;
  report.space = space;
  report.spaceSize = space.size();

  TuneRun run(session, source, space, options);
  for (const Objective& objective : run.objectives())
    report.objectives.push_back(objective.name);

  const auto start = std::chrono::steady_clock::now();
  switch (options.strategy) {
  case SearchStrategy::Exhaustive:
    runExhaustive(run, space, report);
    break;
  case SearchStrategy::Random:
    runRandom(run, space, options, report);
    break;
  case SearchStrategy::HillClimb:
    runHillClimb(run, space, options, report);
    break;
  }
  report.wallMillis = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();

  report.prunedPoints = run.takePrunedPoints();
  report.prunedCount = report.prunedPoints.size();
  FlowCache& cache = session.flowCache();
  report.flowCacheStats = cache.stats();
  if (cache.stageCache() != nullptr)
    report.stageCacheStats = cache.stageCache()->stats();
  std::vector<std::size_t> feasibleIndices;
  std::vector<std::vector<double>> feasibleScores;
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const TunedPoint& point = report.points[i];
    if (point.row.cacheHit)
      ++report.cacheHitCount;
    report.stagesAdoptedTotal += point.row.stagesAdopted;
    if (!point.row.ok())
      continue;
    ++report.feasibleCount;
    feasibleIndices.push_back(i);
    feasibleScores.push_back(point.scores);
  }
  for (std::size_t frontierIndex : paretoFrontier(feasibleScores)) {
    const std::size_t pointIndex = feasibleIndices[frontierIndex];
    report.points[pointIndex].onFrontier = true;
    report.frontier.push_back(pointIndex);
  }
  return report;
}

json::Value TuningReport::toJson() const {
  json::Value root = json::Value::object();
  root.set("schema", "cfd-tune-report-v1");
  root.set("strategy", searchStrategyName(strategy));
  root.set("seed", static_cast<std::int64_t>(seed));
  root.set("workers", workers);

  json::Value axesJson = json::Value::array();
  for (const TuneAxis& axis : space.axes) {
    json::Value axisJson = json::Value::object();
    axisJson.set("key", axis.key);
    json::Value values = json::Value::array();
    for (const std::string& value : axis.values)
      values.push(value);
    axisJson.set("values", std::move(values));
    axesJson.push(std::move(axisJson));
  }
  json::Value spaceJson = json::Value::object();
  spaceJson.set("axes", std::move(axesJson));
  spaceJson.set("size", spaceSize);
  root.set("space", std::move(spaceJson));

  json::Value objectivesJson = json::Value::array();
  for (const std::string& name : objectives)
    objectivesJson.push(name);
  root.set("objectives", std::move(objectivesJson));

  json::Value stats = json::Value::object();
  stats.set("evaluated", points.size());
  stats.set("pruned", prunedCount);
  stats.set("feasible", feasibleCount);
  stats.set("cache_hits", cacheHitCount);
  root.set("stats", std::move(stats));

  json::Value pointsJson = json::Value::array();
  for (const TunedPoint& point : points) {
    json::Value pointJson = json::Value::object();
    json::Value params = json::Value::object();
    for (const auto& [key, value] : point.params)
      params.set(key, value);
    pointJson.set("params", std::move(params));
    pointJson.set("feasible", point.row.ok());
    if (!point.row.ok()) {
      pointJson.set("error", point.row.error);
    } else {
      json::Value scores = json::Value::object();
      for (std::size_t i = 0; i < objectives.size(); ++i)
        scores.set(objectives[i], point.scores[i]);
      pointJson.set("scores", std::move(scores));
      const auto& design = point.row.flow->systemDesign();
      json::Value system = json::Value::object();
      system.set("m", design.m);
      system.set("k", design.k);
      system.set("bram36", design.total.bram36);
      system.set("dsp", design.total.dsp);
      system.set("lut", design.total.lut);
      system.set("kernel_us", point.row.flow->kernelReport().timeUs());
      pointJson.set("system", std::move(system));
    }
    pointJson.set("pareto", point.onFrontier);
    pointJson.set("cache_hit", point.row.cacheHit);
    pointJson.set("compile_ms", point.row.compileMillis);
    pointsJson.push(std::move(pointJson));
  }
  // Structurally pruned points ride along after the evaluated ones
  // (appending keeps the frontier indices valid): never compiled, so
  // they carry only their infeasibility reason.
  for (const PrunedPoint& pruned : prunedPoints) {
    json::Value pointJson = json::Value::object();
    json::Value params = json::Value::object();
    for (const auto& [key, value] : pruned.params)
      params.set(key, value);
    pointJson.set("params", std::move(params));
    pointJson.set("feasible", false);
    pointJson.set("pruned", true);
    pointJson.set("error", pruned.reason);
    pointsJson.push(std::move(pointJson));
  }
  root.set("points", std::move(pointsJson));

  json::Value frontierJson = json::Value::array();
  for (std::size_t index : frontier)
    frontierJson.push(index);
  root.set("frontier", std::move(frontierJson));

  json::Value timing = json::Value::object();
  timing.set("wall_ms", wallMillis);
  root.set("timing", std::move(timing));
  return root;
}

std::string TuningReport::jsonText() const { return toJson().dump(2) + "\n"; }

} // namespace cfd
