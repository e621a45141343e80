// C99 code generation (paper Fig. 4, step v).
//
// Emits the kernel_body function consumed by HLS: every tensor becomes an
// interface parameter backed by an external PLM unit (paper Fig. 6), and
// each scheduled statement becomes a loop nest with affine index
// expressions. When the innermost loop is a reduction the emitter uses a
// register accumulator; otherwise it accumulates through the target array
// (a PLM read-modify-write), exactly mirroring the interpreter in
// eval/Evaluator.h so the generated C and the interpreted schedule are
// operation-for-operation identical.
//
// Each artifact is appended to one string (support/TextBuilder.h):
// numbers go through std::to_chars (fill literals as "%.17g" prints
// them), index expressions through poly::AffineExpr::print with the
// iterator names i0 .. i7, and the returned string's capacity equals its
// size.
#pragma once

#include "sched/Schedule.h"

#include <cstdint>
#include <string>

namespace cfd::codegen {

struct CEmitterOptions {
  std::string functionName = "kernel_body";
  /// Emit #pragma HLS lines (interface + pipeline directives).
  bool hlsPragmas = true;
  /// Pipeline initiation interval requested for innermost loops.
  int pipelineII = 1;
  /// Innermost unroll factor; > 1 additionally emits ARRAY_PARTITION
  /// cyclic pragmas so HLS requests the multi-bank PLM ports that the
  /// memory plan provisions (mem::MemoryPlanOptions::banks).
  int unrollFactor = 1;
  /// Qualify interface pointers with restrict (safe: tensors never alias).
  bool restrictPointers = true;
  /// Emit a self-checking main() that fills inputs with the shared
  /// xorshift64* generator and prints every output element (used by the
  /// compile-and-run integration tests).
  bool emitTestMain = false;

  /// Stable 64-bit structural hash (DESIGN.md §9); part of the
  /// whole-flow cache key (no pipeline stage consumes emitter options —
  /// emission happens lazily on the Flow facade).
  std::uint64_t fingerprint() const;
  friend bool operator==(const CEmitterOptions&,
                         const CEmitterOptions&) = default;
};

/// Emits a complete C99 translation unit implementing `schedule`.
std::string emitC(const sched::Schedule& schedule,
                  const CEmitterOptions& options = {});

/// Emits only the kernel prototype (one line, Fig. 6 style).
std::string emitPrototype(const sched::Schedule& schedule,
                          const CEmitterOptions& options = {});

} // namespace cfd::codegen
