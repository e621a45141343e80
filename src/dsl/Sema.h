// Semantic analysis for CFDlang programs.
//
// Checks performed (each reported with source locations):
//  * every referenced variable is declared, no duplicate declarations;
//  * entry-wise operators require identical operand shapes (scalars
//    broadcast);
//  * contraction pair indices address distinct, in-range dimensions of the
//    operand product, and paired extents match;
//  * assignment target shape equals the value shape;
//  * inputs are never assigned; outputs are assigned exactly once;
//  * every local/output read is preceded by its definition (straight-line
//    def-before-use) and every declared output is defined;
//  * every declared shape, and every shape a product or contraction
//    forms, has at most kMaxDims positive extents and at most
//    kMaxTensorElements elements (support/Format.h). The product under
//    a contraction is never formed (lowering contracts it factor by
//    factor and bounds each binary contraction's loop domain), so it
//    may exceed both: Helmholtz's `S # S # S # u` has rank 9.
//
// On success, every Expr node carries its inferred shape.
#pragma once

#include "dsl/AST.h"
#include "support/Diagnostics.h"

namespace cfd::dsl {

/// Runs all semantic checks on `program`, annotating expression shapes.
/// Returns true when no errors were found.
bool analyze(Program& program, Diagnostics& diagnostics);

} // namespace cfd::dsl
