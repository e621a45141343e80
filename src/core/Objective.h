// Pluggable tuning objectives (DESIGN.md §7).
//
// An Objective turns one exploration row into a scalar score to
// *minimize*. The built-in objectives cover the axes the paper trades
// off — simulated latency, on-chip memory (BRAM), arithmetic resources
// (DSP/LUT), and compile time — and callers can supply arbitrary
// lambdas (tests score toy convex functions of the options this way).
// Every objective must be a pure function of its row so tuning results
// stay deterministic; compileMillis is the one documented exception.
#pragma once

#include "core/Explorer.h"

#include <functional>
#include <string>
#include <vector>

namespace cfd {

/// One scoring dimension; smaller is better. `score` is only invoked on
/// feasible rows (row.ok() == true).
struct Objective {
  std::string name;
  std::function<double(const ExplorationRow&)> score;
};

/// Simulated microseconds per element when the row carries a platform
/// simulation; otherwise the kernel execution time divided by the k
/// parallel accelerators of the generated system (a transfer-free
/// lower bound — run the Tuner with simulateElements > 0 to include
/// the AXI transfer costs).
Objective latencyObjective();

/// Total BRAM36 primitives of the generated system.
Objective bramObjective();

/// Total DSP slices of the generated system.
Objective dspObjective();

/// Total LUTs of the generated system.
Objective lutObjective();

/// Wall-clock milliseconds of the row's compile. 0 for rows served
/// from the FlowCache, and machine-dependent — useful for profiling
/// the flow itself, not for reproducible tuning reports.
Objective compileTimeObjective();

/// The default multi-objective set: latency + BRAM (the paper's §VI
/// trade-off between throughput and on-chip memory).
std::vector<Objective> defaultObjectives();

/// Names of the built-in objectives, in objectiveByName lookup order —
/// the single list behind its error message.
const std::vector<std::string>& builtinObjectiveNames();

/// Looks up a built-in objective (latency|bram|dsp|lut|compile_ms) by
/// name; throws FlowError listing the valid names on a miss.
Objective objectiveByName(const std::string& name);

} // namespace cfd
