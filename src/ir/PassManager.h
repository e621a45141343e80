// IR optimizer layer (DESIGN.md §12): an ordered, individually
// toggleable pass list run between lowering and scheduling.
//
// Passes (canonical order):
//   canonicalize  copy propagation + adjacent copy retargeting (pass zero,
//                 runs at every level; ir/Transforms.h)
//   cse           common-subexpression elimination by structural value
//                 numbering modulo tensor renaming
//   fold          constant folding of Fill-fed entry-wise ops to finite
//                 constants, algebraic identities (x+0, x-0, x*1, x/1,
//                 x*0 -> Fill), and double-copy collapse
//   fuse          producer-consumer fusion: consumers read through
//                 identity copies directly; permuted copies feeding a
//                 contraction are absorbed by remapping its pairs and
//                 result permutation; single-use transients feeding an
//                 identity copy are retargeted into their definition
//   dce           dead-code elimination by liveness of interface outputs
//
// The algebraic identities assume finite values (x*0 -> 0 discards
// Inf/NaN propagation), matching the usual fast-math contract of HLS
// flows. optimize() reruns the enabled list until a bounded fixpoint.
// It is the one place passes are verified: it runs Program::verify()
// after every pass, and no pass (canonicalize included) verifies
// itself.
#pragma once

#include "ir/TensorIR.h"

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cfd::ir {

/// Optimization settings consumed by the `optimize` pipeline stage
/// (core/StageGraph.h). Per-pass toggles are ANDed with the level gate:
/// a pass runs only when its toggle is set AND the level enables it.
struct OptimizeOptions {
  /// 0 = canonicalize only (artifacts byte-identical to the
  /// unoptimized flow), 1 = + cse/fold/dce, 2 = + fuse.
  int level = 1;
  bool cse = true;
  bool fold = true;
  bool dce = true;
  bool fuse = true;
  /// Fixpoint bound: the enabled pass list reruns until no pass
  /// rewrites anything, at most this many rounds.
  int maxIterations = 4;

  /// Stable 64-bit structural hash (DESIGN.md §9): equal option values
  /// always produce the same fingerprint, across runs and regardless of
  /// struct padding. Feeds the per-stage cache keys of core/Pipeline.
  std::uint64_t fingerprint() const;
  friend bool operator==(const OptimizeOptions&,
                         const OptimizeOptions&) = default;
};

/// Canonical form used for fingerprints and cache keys: clamps `level`
/// to [0,2] and `maxIterations` to [1,16], and masks the toggles of
/// passes the level disables — so two option values that select the
/// same effective pass list always compare and fingerprint equal.
void normalizeOptimizeOptions(OptimizeOptions& options);

/// All pass names in canonical execution order.
inline constexpr std::array<std::string_view, 5> kPassNames = {
    "canonicalize", "cse", "fold", "fuse", "dce"};

/// One executed pass run.
struct PassResult {
  std::string name;
  int opsBefore = 0;
  int opsAfter = 0;
  int rewrites = 0;
  double millis = 0.0;
};

/// Everything optimize() did, one entry per executed pass run.
struct OptimizeReport {
  std::vector<PassResult> passes;
  int iterations = 0;
  int opsBefore = 0;
  int opsAfter = 0;

  /// Per-pass totals (runs merged by name, first-seen order).
  std::vector<PassResult> aggregated() const;
  std::string str() const;
};

/// Runs a single pass by canonical name; returns the number of
/// rewrites. Throws InternalError on an unknown name. The program is
/// NOT verified here (optimize() verifies after every pass; tests that
/// drive passes individually assert verify() themselves).
int runPass(Program& program, std::string_view name);

/// The pass list `options` selects, in canonical order (after
/// normalization).
std::vector<std::string> enabledPasses(OptimizeOptions options);

/// Runs the selected pass list to a bounded fixpoint, verifying the
/// pseudo-SSA invariants after every pass, and drops unused trailing
/// tensors.
OptimizeReport optimize(Program& program, const OptimizeOptions& options = {});

} // namespace cfd::ir
