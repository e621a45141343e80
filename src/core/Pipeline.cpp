#include "core/Pipeline.h"

#include "dsl/Parser.h"
#include "ir/PassManager.h"
#include "support/Diagnostics.h"
#include "support/Error.h"
#include "support/Format.h"

#include <chrono>
#include <sstream>

namespace cfd {

namespace {

int indexOf(Stage stage) { return static_cast<int>(stage); }

} // namespace

Pipeline::Pipeline(std::string source, FlowOptions options,
                   StageCache* stageCache)
    : source_(std::move(source)), options_(std::move(options)),
      stageCache_(stageCache) {
  normalizeOptions(options_);
  keys_ = computeStageKeys(source_, options_);
}

bool Pipeline::hasRun(Stage stage) const { return materialized(stage); }

bool Pipeline::materialized(Stage stage) const {
  return provenance_[indexOf(stage)] != StageProvenance::NotRun;
}

StageProvenance Pipeline::provenance(Stage stage) const {
  return provenance_[indexOf(stage)];
}

int Pipeline::adoptedStageCount() const {
  int count = 0;
  for (StageProvenance provenance : provenance_)
    if (provenance == StageProvenance::Cached)
      ++count;
  return count;
}

std::uint64_t Pipeline::stageKey(Stage stage) const {
  return keys_[indexOf(stage)];
}

double Pipeline::stageMillis(Stage stage) const {
  return millis_[indexOf(stage)];
}

double Pipeline::totalMillis() const {
  double total = 0.0;
  for (double ms : millis_)
    total += ms;
  return total;
}

std::string Pipeline::timingReport() const {
  // Materialized stages only: a stage that never ran contributes no
  // line (not a misleading 0 ms row), and every line carries its cache
  // provenance.
  std::ostringstream os;
  for (int i = 0; i < kStageCount; ++i) {
    const Stage stage = static_cast<Stage>(i);
    if (!materialized(stage))
      continue;
    const bool cached = provenance_[i] == StageProvenance::Cached;
    os << "  " << padRight(stageName(stage), 12)
       << padRight(cached ? "cached" : "ran", 8);
    if (cached)
      os << padLeft("-", 10);
    else
      os << padLeft(formatFixed(millis_[i], 3) + " ms", 10);
    os << "  -> " << stageOutputs(stage) << "\n";
    // The optimize stage breaks down into its passes (DESIGN.md §12);
    // adopted artifacts keep the report of the pipeline that ran them,
    // whose timings would be misleading here.
    if (stage == Stage::Optimize && !cached && artifacts_.optimized) {
      for (const ir::PassResult& pass :
           artifacts_.optimized->report.aggregated())
        os << "    . " << padRight(pass.name, 14)
           << padLeft(formatFixed(pass.millis, 3) + " ms", 12) << "  "
           << pass.opsBefore << " -> " << pass.opsAfter << " ops, "
           << pass.rewrites << " rewrites\n";
    }
  }
  return os.str();
}

void Pipeline::require(Stage stage) {
  if (materialized(stage))
    return;
  if (stageCache_ != nullptr)
    adoptPrefix(stage);
  // The dependence closure of every stage is a prefix of the linear
  // stage order (StageGraph.cpp), so executing the declared graph in
  // stage order visits dependencies before their consumers.
  for (int i = 0; i <= indexOf(stage); ++i) {
    const Stage current = static_cast<Stage>(i);
    if (materialized(current))
      continue;
    // Cancellation checkpoint (DESIGN.md §11): observed strictly
    // between stages, so every stage that ran was already published to
    // the cache above — the StageCache stays consistent and a later
    // identical compile adopts the completed prefix. A claim is only
    // taken after this check, and a wait on another pipeline's claim
    // lasts one stage, so a cancel still lands within one stage.
    if (cancelToken_.cancelled())
      throw cancelToken_.error(std::string("before stage '") +
                               stageName(current) + "'");
    if (stageCache_ == nullptr) {
      runStage(current);
      continue;
    }
    const StageCache::Claim claim =
        stageCache_->claim(keys_[i], current, source_, options_);
    if (claim.entry != nullptr) {
      adoptEntry(claim.entry, i);
      continue;
    }
    try {
      runStage(current);
      stageCache_->insert(keys_[i], current, snapshotPrefix(current),
                          source_, options_);
    } catch (...) {
      if (claim.owned)
        stageCache_->abandon(keys_[i]);
      throw;
    }
  }
}

void Pipeline::adoptPrefix(Stage goal) {
  int have = 0;
  while (have < kStageCount && materialized(static_cast<Stage>(have)))
    ++have;
  if (have > indexOf(goal))
    return;
  if (const auto entry = stageCache_->adoptLongestPrefix(keys_, goal, have,
                                                         source_, options_))
    adoptEntry(entry, have);
}

namespace {

/// Calls f(stage, mine, theirs) for each stage's slot of two artifact
/// sets, in stage order.
template <typename F>
void forEachSlot(StageArtifacts& mine, const StageArtifacts& theirs, F&& f) {
  f(Stage::Parse, mine.ast, theirs.ast);
  f(Stage::Lower, mine.program, theirs.program);
  f(Stage::Optimize, mine.optimized, theirs.optimized);
  f(Stage::Schedule, mine.referenceSchedule, theirs.referenceSchedule);
  f(Stage::Reschedule, mine.schedule, theirs.schedule);
  f(Stage::Liveness, mine.liveness, theirs.liveness);
  f(Stage::MemoryPlan, mine.memory, theirs.memory);
  f(Stage::Hls, mine.kernel, theirs.kernel);
  f(Stage::SysGen, mine.system, theirs.system);
}

} // namespace

void Pipeline::adoptEntry(const std::shared_ptr<const StageCacheEntry>& entry,
                          int first) {
  // The entry's slots form one consistent prefix: its schedules point
  // into its own optimized program. So every slot up to the entry's
  // stage is taken from it — also the ones this pipeline materialized
  // itself (equal in content, but other objects), or a prefix published
  // from here could hold a schedule whose program it does not pin.
  // Replaced artifacts stay alive for references already handed out;
  // the retained entry pins what its artifacts point into across cache
  // eviction.
  adopted_.push_back(entry);
  const int last = indexOf(entry->stage);
  forEachSlot(artifacts_, entry->artifacts,
              [&](Stage stage, auto& mine, const auto& theirs) {
                const int i = indexOf(stage);
                if (i > last || mine == theirs)
                  return;
                if (i < first) {
                  superseded_.push_back(std::move(mine));
                } else {
                  provenance_[i] = StageProvenance::Cached;
                  millis_[i] = 0.0;
                }
                mine = theirs;
              });
}

StageArtifacts Pipeline::snapshotPrefix(Stage stage) const {
  StageArtifacts prefix;
  const int last = indexOf(stage);
  if (last >= indexOf(Stage::Parse))
    prefix.ast = artifacts_.ast;
  if (last >= indexOf(Stage::Lower))
    prefix.program = artifacts_.program;
  if (last >= indexOf(Stage::Optimize))
    prefix.optimized = artifacts_.optimized;
  if (last >= indexOf(Stage::Schedule))
    prefix.referenceSchedule = artifacts_.referenceSchedule;
  if (last >= indexOf(Stage::Reschedule))
    prefix.schedule = artifacts_.schedule;
  if (last >= indexOf(Stage::Liveness))
    prefix.liveness = artifacts_.liveness;
  if (last >= indexOf(Stage::MemoryPlan))
    prefix.memory = artifacts_.memory;
  if (last >= indexOf(Stage::Hls))
    prefix.kernel = artifacts_.kernel;
  if (last >= indexOf(Stage::SysGen))
    prefix.system = artifacts_.system;
  return prefix;
}

void Pipeline::runStage(Stage stage) {
  const auto start = std::chrono::steady_clock::now();
  try {
    executeStage(stage);
  } catch (const DiagnosedError& e) {
    // A pass reported structured diagnostics (parse/sema). Stamp the
    // stage of origin — only the pipeline knows it — and rethrow with
    // the message text unchanged.
    DiagnosticList diagnostics = e.diagnostics();
    diagnostics.attributeStage(stageName(stage));
    throw DiagnosedError(e.what(), std::move(diagnostics));
  } catch (const FlowError& e) {
    // A bare FlowError (infeasible constraints, unsupported constructs)
    // becomes one stage-attributed diagnostic, so the Session boundary
    // always has structure to hand back. catch (FlowError&) callers see
    // the identical message.
    DiagnosticList diagnostics;
    diagnostics.error({}, e.what(), stageName(stage));
    throw DiagnosedError(e.what(), std::move(diagnostics));
  }
  const auto end = std::chrono::steady_clock::now();
  provenance_[indexOf(stage)] = StageProvenance::Ran;
  millis_[indexOf(stage)] =
      std::chrono::duration<double, std::milli>(end - start).count();
}

void Pipeline::executeStage(Stage stage) {
  switch (stage) {
  case Stage::Parse:
    artifacts_.ast =
        std::make_shared<const dsl::Program>(dsl::parseAndCheck(source_));
    break;
  case Stage::Lower:
    // Step i: lowering into pseudo-SSA with contraction splitting. The
    // raw program is kept as its own artifact (--print-ir-before);
    // canonicalization moved into the optimize stage as pass zero.
    artifacts_.program = std::make_shared<const ir::Program>(
        ir::lower(*artifacts_.ast, options_.lowering));
    break;
  case Stage::Optimize: {
    // The optimizer pass pipeline (DESIGN.md §12). At level 0 only
    // canonicalize runs, reproducing the unoptimized flow's program
    // byte for byte.
    auto artifact = std::make_shared<OptimizeArtifact>();
    artifact->program = *artifacts_.program;
    artifact->report = ir::optimize(artifact->program, options_.optimize);
    artifacts_.optimized = std::move(artifact);
    break;
  }
  case Stage::Schedule:
    // Step ii: reference schedule with materialized layouts.
    artifacts_.referenceSchedule = std::make_shared<const sched::Schedule>(
        sched::buildReferenceSchedule(artifacts_.optimized->program,
                                      options_.layouts));
    break;
  case Stage::Reschedule: {
    // Step iii: Pluto-lite rescheduling on a copy, so the reference
    // schedule artifact stays immutable and shareable.
    sched::Schedule rescheduled = *artifacts_.referenceSchedule;
    sched::reschedule(rescheduled, options_.reschedule);
    artifacts_.schedule =
        std::make_shared<const sched::Schedule>(std::move(rescheduled));
    break;
  }
  case Stage::Liveness:
    artifacts_.liveness = std::make_shared<const mem::LivenessInfo>(
        mem::analyzeLiveness(*artifacts_.schedule));
    break;
  case Stage::MemoryPlan: {
    // Step iv: memory compatibility and the Mnemosyne-lite plan. The
    // bank count was already matched to the unroll factor by
    // normalizeOptions.
    auto artifact = std::make_shared<MemoryPlanArtifact>();
    artifact->graph = mem::buildCompatibilityGraph(*artifacts_.schedule,
                                                   *artifacts_.liveness);
    artifact->plan = mem::planMemory(*artifacts_.schedule, artifact->graph,
                                     options_.memory);
    artifacts_.memory = std::move(artifact);
    break;
  }
  case Stage::Hls:
    artifacts_.kernel = std::make_shared<const hls::KernelReport>(
        hls::analyzeKernel(*artifacts_.schedule, artifacts_.memory->plan,
                           options_.hls));
    break;
  case Stage::SysGen:
    artifacts_.system = std::make_shared<const sysgen::SystemDesign>(
        sysgen::generateSystem(*artifacts_.kernel, artifacts_.memory->plan,
                               *artifacts_.schedule, options_.system));
    break;
  }
}

const dsl::Program& Pipeline::ast() {
  require(Stage::Parse);
  return *artifacts_.ast;
}

const ir::Program& Pipeline::loweredProgram() {
  require(Stage::Lower);
  return *artifacts_.program;
}

const ir::Program& Pipeline::program() {
  require(Stage::Optimize);
  return artifacts_.optimized->program;
}

const ir::OptimizeReport& Pipeline::optimizeReport() {
  require(Stage::Optimize);
  return artifacts_.optimized->report;
}

const sched::Schedule& Pipeline::schedule() {
  require(Stage::Reschedule);
  return *artifacts_.schedule;
}

const mem::LivenessInfo& Pipeline::liveness() {
  require(Stage::Liveness);
  return *artifacts_.liveness;
}

const mem::CompatibilityGraph& Pipeline::compatibilityGraph() {
  require(Stage::MemoryPlan);
  return artifacts_.memory->graph;
}

const mem::MemoryPlan& Pipeline::memoryPlan() {
  require(Stage::MemoryPlan);
  return artifacts_.memory->plan;
}

const hls::KernelReport& Pipeline::kernelReport() {
  require(Stage::Hls);
  return *artifacts_.kernel;
}

const sysgen::SystemDesign& Pipeline::systemDesign() {
  require(Stage::SysGen);
  return *artifacts_.system;
}

} // namespace cfd
