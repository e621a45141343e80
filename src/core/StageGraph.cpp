#include "core/StageGraph.h"

#include "support/Hash.h"

#include <algorithm>

namespace cfd {

void normalizeOptions(FlowOptions& options) {
  // One clamp site for the unroll/bank/pragma coupling (paper §V-A2):
  // every PLM buffer must split into as many cyclic banks as the HLS
  // datapath replicates, and the emitted C must request those ports.
  options.memory.banks =
      std::max(options.memory.banks, options.hls.unrollFactor);
  options.emitter.unrollFactor =
      std::max(options.emitter.unrollFactor, options.hls.unrollFactor);
  // Canonical optimizer settings: clamp the level and mask toggles of
  // level-disabled passes, so equivalent effective pass lists share one
  // fingerprint (and one stage-cache prefix).
  ir::normalizeOptimizeOptions(options.optimize);
}

std::uint64_t flowOptionsFingerprint(const FlowOptions& options) {
  Fnv1aHasher h;
  h.mix(options.lowering.fingerprint());
  h.mix(options.optimize.fingerprint());
  h.mix(options.layouts.fingerprint());
  h.mix(options.reschedule.fingerprint());
  h.mix(options.memory.fingerprint());
  h.mix(options.hls.fingerprint());
  h.mix(options.system.fingerprint());
  h.mix(options.emitter.fingerprint());
  return h.value();
}

namespace {

// The declared stage graph. Dependence edges mirror the dataflow of
// Pipeline::runStage; consumed option subsets are the invalidation
// contract of DESIGN.md §9 (key-derivation table).
constexpr StageSpec kStageSpecs[kStageCount] = {
    {"parse", "CFDlang source", "checked AST",
     {}, 0, kNoOptions},
    {"lower", "AST, LoweringOptions", "tensor IR (pseudo-SSA)",
     {Stage::Parse}, 1, kLoweringOptions},
    {"optimize", "tensor IR, OptimizeOptions", "optimized tensor IR",
     {Stage::Lower}, 1, kOptimizeOptions},
    {"schedule", "optimized IR, LayoutOptions",
     "reference schedule + layouts",
     {Stage::Optimize}, 1, kLayoutOptions},
    {"reschedule", "schedule, RescheduleOptions", "Pluto-lite schedule",
     {Stage::Schedule}, 1, kRescheduleOptions},
    {"liveness", "schedule", "live intervals",
     {Stage::Reschedule}, 1, kNoOptions},
    {"memory-plan", "liveness, MemoryPlanOptions",
     "compatibility graph + PLM plan",
     {Stage::Liveness, Stage::Reschedule}, 2, kMemoryPlanOptions},
    {"hls", "schedule, memory plan, HlsOptions", "kernel report",
     {Stage::Reschedule, Stage::MemoryPlan}, 2, kHlsOptions},
    {"sysgen", "kernel report, memory plan, SystemOptions",
     "system design",
     {Stage::Hls, Stage::MemoryPlan, Stage::Reschedule}, 3, kSystemOptions},
};

int indexOf(Stage stage) { return static_cast<int>(stage); }

/// Union of the option subsets consumed by `stage` and its transitive
/// dependencies. The dependence closure of every stage is a prefix of
/// the linear stage order, so a prefix scan is the closure union.
unsigned closureConsumes(Stage stage) {
  unsigned mask = 0;
  for (int i = 0; i <= indexOf(stage); ++i)
    mask |= kStageSpecs[i].consumes;
  return mask;
}

} // namespace

const StageSpec& stageSpec(Stage stage) { return kStageSpecs[indexOf(stage)]; }
const char* stageName(Stage stage) { return kStageSpecs[indexOf(stage)].name; }
const char* stageInputs(Stage stage) {
  return kStageSpecs[indexOf(stage)].inputs;
}
const char* stageOutputs(Stage stage) {
  return kStageSpecs[indexOf(stage)].outputs;
}

std::uint64_t stageOptionsFingerprint(Stage stage,
                                      const FlowOptions& options) {
  const unsigned consumes = stageSpec(stage).consumes;
  Fnv1aHasher h;
  if (consumes & kLoweringOptions)
    h.mix(options.lowering.fingerprint());
  if (consumes & kOptimizeOptions)
    h.mix(options.optimize.fingerprint());
  if (consumes & kLayoutOptions)
    h.mix(options.layouts.fingerprint());
  if (consumes & kRescheduleOptions)
    h.mix(options.reschedule.fingerprint());
  if (consumes & kMemoryPlanOptions)
    h.mix(options.memory.fingerprint());
  if (consumes & kHlsOptions)
    h.mix(options.hls.fingerprint());
  if (consumes & kSystemOptions)
    h.mix(options.system.fingerprint());
  if (consumes & kEmitterOptions)
    h.mix(options.emitter.fingerprint());
  return h.value();
}

std::uint64_t stageSourceDigest(const std::string& source) {
  Fnv1aHasher base;
  base.mix(std::string_view("cfd-stage-graph-v2"));
  base.mix(std::string_view(source));
  return base.value();
}

std::array<std::uint64_t, kStageCount>
computeStageKeys(std::uint64_t sourceDigest, const FlowOptions& options) {
  std::array<std::uint64_t, kStageCount> keys{};
  for (int i = 0; i < kStageCount; ++i) {
    const StageSpec& spec = kStageSpecs[i];
    Fnv1aHasher h;
    h.mix(std::string_view(spec.name));
    if (spec.depCount == 0)
      h.mix(sourceDigest);
    for (int d = 0; d < spec.depCount; ++d)
      h.mix(keys[indexOf(spec.deps[d])]);
    h.mix(stageOptionsFingerprint(static_cast<Stage>(i), options));
    keys[i] = h.value();
  }
  return keys;
}

std::array<std::uint64_t, kStageCount>
computeStageKeys(const std::string& source, const FlowOptions& options) {
  return computeStageKeys(stageSourceDigest(source), options);
}

bool prefixOptionsEqual(Stage stage, const FlowOptions& a,
                        const FlowOptions& b) {
  const unsigned mask = closureConsumes(stage);
  if ((mask & kLoweringOptions) && !(a.lowering == b.lowering))
    return false;
  if ((mask & kOptimizeOptions) && !(a.optimize == b.optimize))
    return false;
  if ((mask & kLayoutOptions) && !(a.layouts == b.layouts))
    return false;
  if ((mask & kRescheduleOptions) && !(a.reschedule == b.reschedule))
    return false;
  if ((mask & kMemoryPlanOptions) && !(a.memory == b.memory))
    return false;
  if ((mask & kHlsOptions) && !(a.hls == b.hls))
    return false;
  if ((mask & kSystemOptions) && !(a.system == b.system))
    return false;
  if ((mask & kEmitterOptions) && !(a.emitter == b.emitter))
    return false;
  return true;
}

} // namespace cfd
