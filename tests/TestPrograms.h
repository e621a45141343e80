// Shared CFDlang test programs.
#pragma once

#include "core/StageGraph.h"

#include <string>
#include <vector>

namespace cfd::test {

/// The paper's Fig. 1: the Inverse Helmholtz operator at p = 11.
inline constexpr const char* kInverseHelmholtz = R"(
var input  S : [11 11]
var input  D : [11 11 11]
var input  u : [11 11 11]
var output v : [11 11 11]
var t : [11 11 11]
var r : [11 11 11]
t = S # S # S # u . [[1 6] [3 7] [5 8]]
r = D * t
v = S # S # S # r . [[0 6] [2 7] [4 8]]
)";

/// Same operator at an arbitrary polynomial degree (extent = p + 1).
inline std::string inverseHelmholtzSource(int extent) {
  const std::string n = std::to_string(extent);
  std::string src;
  src += "var input  S : [" + n + " " + n + "]\n";
  src += "var input  D : [" + n + " " + n + " " + n + "]\n";
  src += "var input  u : [" + n + " " + n + " " + n + "]\n";
  src += "var output v : [" + n + " " + n + " " + n + "]\n";
  src += "var t : [" + n + " " + n + " " + n + "]\n";
  src += "var r : [" + n + " " + n + " " + n + "]\n";
  src += "t = S # S # S # u . [[1 6] [3 7] [5 8]]\n";
  src += "r = D * t\n";
  src += "v = S # S # S # r . [[0 6] [2 7] [4 8]]\n";
  return src;
}

/// An HLS-only sweep: point i runs at 100 + i MHz with II 1 + i % 2.
/// Neither field is read before the hls stage, so every point after the
/// first can adopt the whole parse..memory-plan prefix.
inline std::vector<FlowOptions> hlsOnlySweep(int points) {
  std::vector<FlowOptions> variants;
  for (int i = 0; i < points; ++i) {
    FlowOptions options;
    options.hls.clockMHz = 100.0 + i;
    options.hls.requestedII = 1 + i % 2;
    variants.push_back(options);
  }
  return variants;
}

/// `v = ...` over `u : [4]` in four shapes whose deepest expression node
/// sits at `depth`: a parenthesized sum `(u + (u + ... u))`, a chain
/// `u + u + ... u`, unary minuses `--...-u`, and contractions
/// `S # (S # (...) . [[1 2]]) . [[1 2]]`, two levels per parenthesis.
inline std::vector<std::string> deepExpressionSources(int depth) {
  std::string sum = "u", chain = "u", contractions = "u";
  for (int i = 0; i < depth; ++i) {
    sum = "(u + " + sum + ")";
    chain += " + u";
  }
  for (int i = 0; i < depth / 2; ++i)
    contractions = "S # (" + contractions + ") . [[1 2]]";
  std::vector<std::string> sources;
  for (const std::string& expr :
       {sum, chain, std::string(depth, '-') + "u", contractions})
    sources.push_back("var input  S : [4 4]\nvar input  u : [4]\n"
                      "var output v : [4]\nv = " + expr + "\n");
  return sources;
}

/// Spectral interpolation (mentioned in the paper as a simpler operator
/// subsumed by the Inverse Helmholtz): v = (I (x) I (x) I) u.
inline constexpr const char* kInterpolation = R"(
var input  I : [13 11]
var input  u : [11 11 11]
var output v : [13 13 13]
v = I # I # I # u . [[1 6] [3 7] [5 8]]
)";

/// A 2-D matrix-matrix like contraction for small exact tests.
inline constexpr const char* kMatMul2D = R"(
var input  A : [4 5]
var input  B : [5 6]
var output C : [4 6]
C = A # B . [[1 2]]
)";

/// Entry-wise chain exercising +, -, *, / and scalar broadcast.
inline constexpr const char* kEntryWiseChain = R"(
var input  a : [7 9]
var input  b : [7 9]
var output c : [7 9]
var w : [7 9]
w = a * b + a - b
c = w / b * 2 + 1
)";

/// The SEM kernel that applies the same stiffness chain twice, so the
/// optimizer has common subexpressions to remove.
inline constexpr const char* kRedundantSem = R"(
var input  S : [8 8]
var input  D : [8 8 8]
var input  u : [8 8 8]
var output v : [8 8 8]
var output w : [8 8 8]
var t  : [8 8 8]
var t2 : [8 8 8]
t = S # S # S # u . [[1 6] [3 7] [5 8]]
t2 = S # S # S # u . [[1 6] [3 7] [5 8]]
v = D * t
w = D + t2
)";

/// `depth` back-to-back Helmholtz-style contractions at p = 10: the
/// scheduling and memory-planning work grows with the depth.
inline std::string contractionChainSource(int depth) {
  const std::string cube = "[11 11 11]";
  std::string src = "var input  S : [11 11]\n";
  src += "var input  u : " + cube + "\n";
  src += "var output v : " + cube + "\n";
  for (int i = 0; i + 1 < depth; ++i)
    src += "var t" + std::to_string(i) + " : " + cube + "\n";
  std::string prev = "u";
  for (int i = 0; i < depth; ++i) {
    const std::string name =
        i + 1 < depth ? "t" + std::to_string(i) : std::string("v");
    src += name + " = S # S # S # " + prev + " . [[1 6] [3 7] [5 8]]\n";
    prev = name;
  }
  return src;
}

} // namespace cfd::test
