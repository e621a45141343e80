// The declared stage graph of the compilation flow (DESIGN.md §3, §9).
//
// Every stage of the CFDlang-to-FPGA pipeline is described here as
// data: its name, the stages it consumes (dependence edges), and the
// *option subset* it reads from FlowOptions. core/Pipeline executes the
// graph; this header is the single source of truth for
//
//  * which option struct can invalidate which stage, and
//  * the per-stage cache keys of incremental compilation: each stage's
//    key Merkle-chains the keys of its declared inputs with the
//    fingerprints of exactly the options it consumes, so a key is a
//    function of (source, options its prefix actually reads) and
//    nothing else. Changing HlsOptions can never invalidate the
//    schedule; changing LoweringOptions invalidates everything
//    downstream of lowering.
//
// The key-derivation table lives in DESIGN.md §9 and must stay in sync
// with kStageSpecs in StageGraph.cpp.
#pragma once

#include "codegen/CEmitter.h"
#include "hls/HlsModel.h"
#include "ir/Lowering.h"
#include "ir/PassManager.h"
#include "mem/Mnemosyne.h"
#include "sched/Reschedule.h"
#include "sysgen/SystemGenerator.h"

#include <array>
#include <cstdint>
#include <string>

namespace cfd {

struct FlowOptions {
  ir::LoweringOptions lowering;
  ir::OptimizeOptions optimize;
  sched::LayoutOptions layouts;
  sched::RescheduleOptions reschedule; // default: Hardware objective
  mem::MemoryPlanOptions memory;
  hls::HlsOptions hls;
  sysgen::SystemOptions system;
  codegen::CEmitterOptions emitter;

  friend bool operator==(const FlowOptions&, const FlowOptions&) = default;
};

/// Resolves the coupled option fields in one place, so cached and fresh
/// compiles can never diverge: HLS unrolling demands a matching
/// multi-bank memory architecture (paper §V-A2) and matching
/// ARRAY_PARTITION pragmas in the emitted C.
void normalizeOptions(FlowOptions& options);

/// Combined fingerprint of every option struct (the whole-flow cache
/// key component used by FlowCache).
std::uint64_t flowOptionsFingerprint(const FlowOptions& options);

/// The named stages of the compilation pipeline, in execution order.
enum class Stage {
  Parse,
  Lower,
  Optimize,
  Schedule,
  Reschedule,
  Liveness,
  MemoryPlan,
  Hls,
  SysGen,
};

inline constexpr int kStageCount = 9;

/// The option structs a stage may consume, as a bitmask (StageSpec
/// declares one mask per stage).
enum OptionSubset : unsigned {
  kNoOptions = 0,
  kLoweringOptions = 1u << 0,
  kOptimizeOptions = 1u << 1,
  kLayoutOptions = 1u << 2,
  kRescheduleOptions = 1u << 3,
  kMemoryPlanOptions = 1u << 4,
  kHlsOptions = 1u << 5,
  kSystemOptions = 1u << 6,
  kEmitterOptions = 1u << 7,
};

/// One node of the declared stage graph.
struct StageSpec {
  const char* name;
  const char* inputs;  // human-readable declared inputs
  const char* outputs; // human-readable declared outputs
  /// Dependence edges: the stages whose artifacts this stage reads.
  std::array<Stage, 3> deps;
  int depCount;
  /// The FlowOptions subset this stage reads (OptionSubset bits; the
  /// human-readable derivation table lives in DESIGN.md §9).
  unsigned consumes;
};

const StageSpec& stageSpec(Stage stage);
const char* stageName(Stage stage);
/// Human-readable declared inputs/outputs of a stage (documentation and
/// timing reports).
const char* stageInputs(Stage stage);
const char* stageOutputs(Stage stage);

/// Fingerprint of exactly the options `stage` consumes (order-stable:
/// fields are mixed in declaration order, containers in sorted order).
std::uint64_t stageOptionsFingerprint(Stage stage,
                                      const FlowOptions& options);

/// H(source), the root every stage key chains from. Computed once per
/// source, it lets many option sets be keyed without rehashing the
/// source (FlowCache's misses, the distributed coordinator's plan).
std::uint64_t stageSourceDigest(const std::string& source);

/// Per-stage incremental cache keys: key[s] chains the source digest
/// through the declared graph, mixing each stage's name, its
/// dependencies' keys, and stageOptionsFingerprint(s). Options must
/// already be normalized.
std::array<std::uint64_t, kStageCount>
computeStageKeys(std::uint64_t sourceDigest, const FlowOptions& options);
/// computeStageKeys(stageSourceDigest(source), options).
std::array<std::uint64_t, kStageCount>
computeStageKeys(const std::string& source, const FlowOptions& options);

/// True when `a` and `b` agree on every option subset consumed by the
/// dependence closure of `stage` (field-wise, no hashing) — the
/// collision check behind StageCache adoption: equal prefix keys are
/// only trusted when the prefix options are genuinely equal.
bool prefixOptionsEqual(Stage stage, const FlowOptions& a,
                        const FlowOptions& b);

} // namespace cfd
