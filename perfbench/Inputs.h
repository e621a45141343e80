// Inputs of the repository benchmark: the kernel family, the fixed point
// universes each workload draws from, the seeded request streams, and
// the golden outcome file the correctness oracle checks against.
//
// Every universe is independent of the workload seed, so one golden
// file recorded at a commit covers the requests of every seed: the seed
// only chooses the order in which points are requested.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Params = std::vector<std::pair<std::string, std::string>>;

struct Kernel {
  std::string name;
  std::string source;
};

/// Helmholtz p=2..15, interpolation, the redundant SEM kernel, and
/// contraction chains of depth 2..40, in that order.
const std::vector<Kernel>& kernelFamily();
/// Index into kernelFamily() by name; aborts on an unknown name.
int kernelIndex(const std::string& name);

/// One design point: a kernel of the family under named option
/// overrides (the cfdc sweep keys).
struct Point {
  int kernel = 0;
  Params params;

  /// "<kernel> key=value ..." — the golden file key.
  std::string key() const;
  const std::string& source() const;
};

using Axes = std::vector<std::pair<std::string, std::vector<std::string>>>;

/// Every assignment of `axes` for one kernel (first axis fastest).
std::vector<Point> crossProduct(int kernel, const Axes& axes);

/// cold_compile / disk_restart: every kernel of the family under four
/// fixed random design-option draws.
const std::vector<Point>& compileUniverse();
/// daemon_explore: eight mid-size kernels times a 256-point cross
/// product of the eight option keys.
const std::vector<Point>& daemonUniverse();

/// dist_sweep: one sweep = a chain kernel of the family (even depths
/// 2..40) plus an axis template; the cross product is the sweep's design
/// space.
struct Sweep {
  int kernel = 0;
  int axisTemplate = 0;
  std::string key() const;
  Axes axes() const;
};
const std::vector<Sweep>& sweepUniverse();

/// Seeded request streams. The compile and sweep streams are a seeded
/// shuffle of their universe, repeated; the daemon stream draws points
/// with Zipf-like popularity (rank r has weight 1/(r+1)) over a fixed
/// ranking.
template <typename T>
class ShuffledStream {
public:
  ShuffledStream(const std::vector<T>& universe, std::uint64_t seed)
      : universe_(universe), order_(universe.size()) {
    for (std::size_t i = 0; i < order_.size(); ++i)
      order_[i] = i;
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull + 1);
    std::shuffle(order_.begin(), order_.end(), rng);
  }
  const T& next() {
    const T& item = universe_[order_[position_]];
    position_ = (position_ + 1) % order_.size();
    return item;
  }

private:
  const std::vector<T>& universe_;
  std::vector<std::size_t> order_;
  std::size_t position_ = 0;
};

class ZipfStream {
public:
  ZipfStream(const std::vector<Point>& universe, std::uint64_t seed,
             std::uint64_t client);
  const Point& next();

private:
  const std::vector<Point>& universe_;
  std::vector<std::size_t> ranking_; // the same for every client and seed
  std::vector<double> cumulative_;
  std::mt19937_64 rng_;
};

/// 64-bit FNV-1a digest of the materialized artifacts, as 16 hex digits.
std::string artifactDigest(const std::string& cCode, const std::string& host,
                           const std::string& mnemosyne);
std::string textDigest(const std::string& text);

/// Expected outcome of one request: "ok <digest>" for a feasible point,
/// "err <diagnostic text>" for an infeasible one, "ok <digest>" of the
/// canonical merged report for a sweep.
class Golden {
public:
  /// Reads a golden file; false when it is missing or malformed.
  bool load(const std::string& path);
  bool save(const std::string& path) const;
  void set(const std::string& key, const std::string& outcome);
  /// Null when the key is not recorded.
  const std::string* find(const std::string& key) const;
  std::size_t size() const { return entries_.size(); }

private:
  std::map<std::string, std::string> entries_;
};

std::string okOutcome(const std::string& digest);
std::string errOutcome(const std::string& diagnosticText);

} // namespace perfbench
