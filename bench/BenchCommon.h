// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every bench regenerates one table or figure of the paper's §VI and
// prints paper-reported vs measured values side by side.
#pragma once

#include "core/Session.h"
#include "support/Format.h"

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

namespace cfd::bench {

/// The paper's Fig. 1 kernel (p = 11).
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

/// Number of simulated spectral elements (paper: "a prototypical CFD
/// simulation of 50,000 elements with all data in DRAM").
inline constexpr std::int64_t kNumElements = 50000;

inline Flow compileHelmholtz(bool sharing = true, int m = 0, int k = 0) {
  FlowOptions options;
  options.memory.enableSharing = sharing;
  options.system.memories = m;
  options.system.kernels = k;
  // Benches revisit the same configurations constantly; the default
  // session's FlowCache makes every repeat an O(hash) lookup. The
  // returned copy shares the immutable pipeline.
  return *Session::global().compileShared(kInverseHelmholtz, options);
}

inline void printHeader(const std::string& title) {
  std::cout << "==== " << title << " ====\n";
}

inline void printRow(const std::string& label, double paper, double measured,
                     int digits = 2) {
  std::cout << "  " << padRight(label, 26) << " paper "
            << padLeft(formatFixed(paper, digits), 9) << "   measured "
            << padLeft(formatFixed(measured, digits), 9) << "   ratio "
            << formatFixed(paper != 0 ? measured / paper : 0.0, 3) << "\n";
}

/// Benches that tune write their JSON tuning report (DESIGN.md §8) to
/// the path in $CFD_TUNE_REPORT when it is set, so plotting scripts can
/// consume bench results without scraping the printed tables. Returns
/// whether a report was written.
inline bool maybeWriteTuningReport(const TuningReport& report) {
  const char* path = std::getenv("CFD_TUNE_REPORT");
  if (path == nullptr || *path == '\0')
    return false;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write JSON report '" << path << "'\n";
    return false;
  }
  out << report.toJson().dump(2) << "\n";
  std::cout << "  (JSON report written to " << path << ")\n";
  return true;
}

inline void printCountRow(const std::string& label, std::int64_t paper,
                          std::int64_t measured) {
  std::cout << "  " << padRight(label, 26) << " paper "
            << padLeft(formatThousands(paper), 9) << "   measured "
            << padLeft(formatThousands(measured), 9) << "   ratio "
            << formatFixed(paper != 0 ? static_cast<double>(measured) /
                                            static_cast<double>(paper)
                                      : 0.0,
                           3)
            << "\n";
}

} // namespace cfd::bench
