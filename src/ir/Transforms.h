// IR-level transforms applied before scheduling (paper Fig. 4, step i).
#pragma once

#include "ir/TensorIR.h"

namespace cfd::ir {

struct CanonicalizeStats {
  int copiesForwarded = 0;
  int copiesRetargeted = 0;
};

/// Canonicalizes a pseudo-SSA program:
///  * forward copy propagation: uses of `x` where `x = copy(y)` (identity
///    permutation, non-interface x) are rewritten to use `y`;
///  * backward retargeting: `out = copy(t)` where `t` is a transient
///    defined immediately upstream collapses into the defining statement;
///  * unused transients are dropped.
/// The result is not verified here; optimize() (ir/PassManager.h)
/// verifies after every pass.
CanonicalizeStats canonicalize(Program& program);

} // namespace cfd::ir
