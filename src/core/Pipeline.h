// Staged pass pipeline (DESIGN.md §3, §9) — executes the declared stage
// graph of core/StageGraph.h behind the Flow facade.
//
// The compilation flow is nine named stages (see StageGraph.h for the
// full declaration: dependence edges and consumed option subsets):
//
//   stage       inputs                      outputs
//   ---------   -------------------------   --------------------------
//   parse       CFDlang source              checked AST
//   lower       AST, LoweringOptions        tensor IR (pseudo-SSA)
//   optimize    IR, OptimizeOptions         optimized tensor IR
//   schedule    IR, LayoutOptions           reference schedule + layouts
//   reschedule  schedule, RescheduleOpts    Pluto-lite schedule
//   liveness    schedule                    live intervals
//   memory-plan liveness, MemoryPlanOpts    compatibility graph + PLM plan
//   hls         schedule, plan, HlsOptions  kernel report
//   sysgen      kernel, plan, SystemOpts    system design
//
// Stages execute lazily: requesting an artifact runs exactly the
// dependence closure needed to produce it. Every artifact lives behind
// a shared_ptr, and a Pipeline built over a StageCache performs
// *incremental compilation*: before running anything it adopts the
// longest cached prefix whose per-stage keys (source + the option
// fingerprints the prefix consumes) match, records those stages as
// adopted, and runs only the remainder — claiming each stage key before
// it runs and publishing the artifact back into the cache, so pipelines
// that need the same stage at once compute it once (the others wait for
// that one stage and adopt it). A fully run Pipeline is immutable and
// safe to share across threads; a Pipeline that is still executing
// stages is single-threaded (many pipelines may share one StageCache).
#pragma once

#include "core/StageCache.h"
#include "core/StageGraph.h"
#include "support/Cancellation.h"

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace cfd {

/// How a stage's artifact came to be.
enum class StageProvenance {
  NotRun, ///< never requested
  Ran,    ///< computed by this pipeline
  Cached, ///< adopted from a StageCache prefix
};

class Pipeline {
public:
  /// Captures the source and normalized options; runs nothing yet. When
  /// `stageCache` is non-null, require() adopts cached prefixes from it
  /// and publishes newly computed artifacts back.
  explicit Pipeline(std::string source, FlowOptions options = {},
                    StageCache* stageCache = nullptr);

  /// Materializes `stage` and its dependence closure, adopting the
  /// longest cached prefix first. Throws FlowError on invalid input or
  /// infeasible constraints, and CancelledError when the cancel token
  /// fires (see setCancelToken).
  void require(Stage stage);
  void runAll() { require(Stage::SysGen); }

  /// Arms cooperative cancellation (DESIGN.md §11): require() checks
  /// the token before every stage it would run and raises
  /// CancelledError when it fired — so a cancel lands within one stage
  /// boundary, and every stage that already ran has been published to
  /// the stage cache (a later identical compile resumes from that
  /// prefix). Already-materialized artifacts stay readable; an empty
  /// token (the default) never fires.
  void setCancelToken(CancelToken token) { cancelToken_ = std::move(token); }

  /// True when the stage's artifact is available (ran or adopted).
  bool hasRun(Stage stage) const;
  StageProvenance provenance(Stage stage) const;
  /// Number of stage artifacts adopted from the cache (0 on a cold
  /// compile).
  int adoptedStageCount() const;
  /// Incremental cache key of `stage` (DESIGN.md §9 derivation table).
  std::uint64_t stageKey(Stage stage) const;

  /// Wall-clock milliseconds the stage took; 0 if it has not run or was
  /// adopted from the cache.
  double stageMillis(Stage stage) const;
  double totalMillis() const;
  /// One line per materialized stage: name, provenance (ran/cached),
  /// time, declared outputs. Never-run stages are omitted.
  std::string timingReport() const;

  const std::string& source() const { return source_; }
  const FlowOptions& options() const { return options_; }

  // ---- Stage artifacts (running their producing stage on demand) ----
  const dsl::Program& ast();
  /// The raw lowered program, before the optimizer (--print-ir-before).
  const ir::Program& loweredProgram();
  /// The optimized program every later stage consumes.
  const ir::Program& program();
  /// What the optimizer did, pass by pass (DESIGN.md §12).
  const ir::OptimizeReport& optimizeReport();
  const sched::Schedule& schedule();
  const mem::LivenessInfo& liveness();
  const mem::CompatibilityGraph& compatibilityGraph();
  const mem::MemoryPlan& memoryPlan();
  const hls::KernelReport& kernelReport();
  const sysgen::SystemDesign& systemDesign();

  // ---- Artifact shared_ptrs (for sharing checks and tooling; null
  // until the producing stage materialized) ----
  const StageArtifacts& artifacts() const { return artifacts_; }

private:
  bool materialized(Stage stage) const;
  void adoptPrefix(Stage goal);
  /// Takes every slot of `entry`; those from `first` on become Cached.
  void adoptEntry(const std::shared_ptr<const StageCacheEntry>& entry,
                  int first);
  /// Runs `stage`, recording provenance/timing; FlowErrors escape as
  /// DiagnosedError with the stage of origin stamped on every
  /// diagnostic (same what() text — the Session boundary unwraps the
  /// structure, legacy catch (FlowError&) sites are unaffected).
  void runStage(Stage stage);
  void executeStage(Stage stage);
  /// The artifact-set prefix up to and including `stage` (for cache
  /// publication).
  StageArtifacts snapshotPrefix(Stage stage) const;

  std::string source_;
  FlowOptions options_;
  std::array<std::uint64_t, kStageCount> keys_{};
  std::array<StageProvenance, kStageCount> provenance_{};
  std::array<double, kStageCount> millis_{};

  StageCache* stageCache_ = nullptr;
  CancelToken cancelToken_;
  /// Entries adopted from the cache: pins every upstream artifact a
  /// downstream one points into (e.g. Schedule::program) across
  /// eviction.
  std::vector<std::shared_ptr<const StageCacheEntry>> adopted_;
  /// Own artifacts an adopted entry replaced (see adoptEntry).
  std::vector<std::shared_ptr<const void>> superseded_;

  StageArtifacts artifacts_;
};

} // namespace cfd
