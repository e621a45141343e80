#include "Inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

namespace {

std::string cube(const std::string& n) { return n + " " + n + " " + n; }

std::string helmholtz(int extent) {
  const std::string n = std::to_string(extent);
  std::string src;
  src += "var input  S : [" + n + " " + n + "]\n";
  src += "var input  D : [" + cube(n) + "]\n";
  src += "var input  u : [" + cube(n) + "]\n";
  src += "var output v : [" + cube(n) + "]\n";
  src += "var t : [" + cube(n) + "]\n";
  src += "var r : [" + cube(n) + "]\n";
  src += "t = S # S # S # u . [[1 6] [3 7] [5 8]]\n";
  src += "r = D * t\n";
  src += "v = S # S # S # r . [[0 6] [2 7] [4 8]]\n";
  return src;
}

/// `depth` back-to-back Helmholtz-style contractions at p=10: the
/// scheduling and memory-planning work per point grows with depth.
std::string chain(int depth) {
  const std::string n = "11";
  std::string src;
  src += "var input  S : [" + n + " " + n + "]\n";
  src += "var input  u : [" + cube(n) + "]\n";
  src += "var output v : [" + cube(n) + "]\n";
  for (int i = 0; i + 1 < depth; ++i)
    src += "var t" + std::to_string(i) + " : [" + cube(n) + "]\n";
  std::string prev = "u";
  for (int i = 0; i < depth; ++i) {
    const std::string name =
        i + 1 < depth ? "t" + std::to_string(i) : std::string("v");
    src += name + " = S # S # S # " + prev + " . [[1 6] [3 7] [5 8]]\n";
    prev = name;
  }
  return src;
}

constexpr const char* kInterpolation = R"(var input  I : [13 11]
var input  u : [11 11 11]
var output v : [13 13 13]
v = I # I # I # u . [[1 6] [3 7] [5 8]]
)";

/// The SEM kernel that applies the same stiffness chain twice, so the
/// optimizer has common subexpressions to remove.
constexpr const char* kRedundant = R"(var input  S : [8 8]
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

std::vector<Kernel> buildFamily() {
  std::vector<Kernel> family;
  for (int p = 2; p <= 15; ++p)
    family.push_back({"helmholtz_p" + std::to_string(p), helmholtz(p + 1)});
  family.push_back({"interpolation", kInterpolation});
  family.push_back({"redundant_sem", kRedundant});
  for (int depth = 2; depth <= 40; ++depth)
    family.push_back({"chain" + std::to_string(depth), chain(depth)});
  return family;
}

template <typename T>
const T& pick(std::mt19937_64& rng, const std::vector<T>& values) {
  return values[rng() % values.size()];
}

// Fixed draw seeds: the universes must not depend on the workload seed.
constexpr std::uint64_t kCompileUniverseSeed = 0x5eedc0deull;
constexpr int kDrawsPerKernel = 4;
constexpr std::uint64_t kDaemonRankingSeed = 0x21f0aaadull;

std::vector<Point> buildCompileUniverse() {
  std::mt19937_64 rng(kCompileUniverseSeed);
  const std::vector<std::string> unroll = {"1", "2", "4", "8"};
  const std::vector<int> memories = {2, 4, 8};
  const std::vector<std::string> bits = {"0", "1"};
  std::vector<Point> universe;
  const int kernels = static_cast<int>(kernelFamily().size());
  for (int kernel = 0; kernel < kernels; ++kernel) {
    for (int draw = 0; draw < kDrawsPerKernel; ++draw) {
      const int m = pick(rng, memories);
      std::vector<int> kernelCounts;
      for (int k = 1; k <= m; k *= 2)
        kernelCounts.push_back(k);
      Point point;
      point.kernel = kernel;
      point.params = {{"unroll", pick(rng, unroll)},
                      {"m", std::to_string(m)},
                      {"k", std::to_string(pick(rng, kernelCounts))},
                      {"sharing", pick(rng, bits)},
                      {"decoupled", pick(rng, bits)},
                      {"objective", rng() % 2 ? "hw" : "sw"},
                      {"layout", rng() % 2 ? "rowmajor" : "colmajor"}};
      universe.push_back(std::move(point));
    }
  }
  return universe;
}

std::vector<Point> buildDaemonUniverse() {
  const std::vector<std::string> kernels = {
      "helmholtz_p5",  "helmholtz_p7",  "helmholtz_p9", "helmholtz_p11",
      "helmholtz_p13", "interpolation", "redundant_sem", "chain3"};
  const Axes axes = {
      {"unroll", {"1", "8"}},         {"m", {"4", "16"}},
      {"k", {"2", "4"}},              {"sharing", {"0", "1"}},
      {"decoupled", {"0", "1"}},      {"objective", {"hw", "sw"}},
      {"layout", {"rowmajor", "colmajor"}}, {"opt", {"0", "1"}}};
  std::vector<Point> universe;
  for (const std::string& name : kernels) {
    const std::vector<Point> points = crossProduct(kernelIndex(name), axes);
    universe.insert(universe.end(), points.begin(), points.end());
  }
  return universe;
}

constexpr int kAxisTemplates = 3;

std::vector<Sweep> buildSweepUniverse() {
  std::vector<Sweep> universe;
  for (int depth = 2; depth <= 40; depth += 2)
    for (int t = 0; t < kAxisTemplates; ++t)
      universe.push_back({kernelIndex("chain" + std::to_string(depth)), t});
  return universe;
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

struct Fnv {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  void mix(const std::string& text) {
    for (unsigned char c : text) {
      hash ^= c;
      hash *= 0x100000001b3ull;
    }
    hash ^= 0xff; // separator, so ("ab","c") and ("a","bc") differ
    hash *= 0x100000001b3ull;
  }
};

/// Golden lines are tab-separated; keep outcomes on one line.
std::string escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '\\')
      out += "\\\\";
    else if (c == '\n')
      out += "\\n";
    else if (c == '\t')
      out += "\\t";
    else
      out += c;
  }
  return out;
}

std::string unescape(const std::string& text) {
  std::string out;
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      const char next = text[++i];
      out += next == 'n' ? '\n' : next == 't' ? '\t' : next;
    } else {
      out += text[i];
    }
  }
  return out;
}

} // namespace

const std::vector<Kernel>& kernelFamily() {
  static const std::vector<Kernel> family = buildFamily();
  return family;
}

int kernelIndex(const std::string& name) {
  const std::vector<Kernel>& family = kernelFamily();
  for (std::size_t i = 0; i < family.size(); ++i)
    if (family[i].name == name)
      return static_cast<int>(i);
  std::cerr << "perfbench: unknown kernel " << name << "\n";
  std::abort();
}

std::string Point::key() const {
  std::string key = kernelFamily()[kernel].name;
  for (const auto& [name, value] : params)
    key += " " + name + "=" + value;
  return key;
}

const std::string& Point::source() const {
  return kernelFamily()[kernel].source;
}

std::vector<Point> crossProduct(int kernel, const Axes& axes) {
  std::size_t combos = 1;
  for (const auto& axis : axes)
    combos *= axis.second.size();
  std::vector<Point> points;
  for (std::size_t combo = 0; combo < combos; ++combo) {
    Point point;
    point.kernel = kernel;
    std::size_t rest = combo;
    for (const auto& [key, values] : axes) {
      point.params.emplace_back(key, values[rest % values.size()]);
      rest /= values.size();
    }
    points.push_back(std::move(point));
  }
  return points;
}

const std::vector<Point>& compileUniverse() {
  static const std::vector<Point> universe = buildCompileUniverse();
  return universe;
}

const std::vector<Point>& daemonUniverse() {
  static const std::vector<Point> universe = buildDaemonUniverse();
  return universe;
}

std::string Sweep::key() const {
  return "sweep " + kernelFamily()[kernel].name + " t" +
         std::to_string(axisTemplate);
}

Axes Sweep::axes() const {
  switch (axisTemplate) {
  case 0: // 32 points: unrolling against memory count
    return {{"unroll", {"1", "2", "4", "8"}},
            {"m", {"2", "4", "8", "16"}},
            {"sharing", {"0", "1"}}};
  case 1: // 32 points: memory architecture and schedule objective
    return {{"unroll", {"1", "4"}},
            {"m", {"4", "16"}},
            {"sharing", {"0", "1"}},
            {"decoupled", {"0", "1"}},
            {"objective", {"hw", "sw"}}};
  default: // 100 points: the wide unroll x memory grid
    return {{"unroll", {"1", "2", "4", "8", "16"}},
            {"m", {"2", "4", "8", "16", "32"}},
            {"opt", {"0", "1"}},
            {"sharing", {"0", "1"}}};
  }
}

const std::vector<Sweep>& sweepUniverse() {
  static const std::vector<Sweep> universe = buildSweepUniverse();
  return universe;
}

ZipfStream::ZipfStream(const std::vector<Point>& universe, std::uint64_t seed,
                       std::uint64_t client)
    : universe_(universe), ranking_(universe.size()),
      cumulative_(universe.size()),
      rng_(seed * 0x9e3779b97f4a7c15ull + 1000003 * (client + 1)) {
  for (std::size_t i = 0; i < ranking_.size(); ++i)
    ranking_[i] = i;
  // The popularity ranking is fixed: which points are hot decides most
  // of the daemon's throughput (a hot infeasible point answers far
  // faster than a hot large kernel), so a seeded ranking would make the
  // seed, not the program, set the figures. The seed drives the draws.
  std::mt19937_64 rankRng(kDaemonRankingSeed);
  std::shuffle(ranking_.begin(), ranking_.end(), rankRng);
  double total = 0;
  for (std::size_t r = 0; r < cumulative_.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    cumulative_[r] = total;
  }
}

const Point& ZipfStream::next() {
  const double u = std::uniform_real_distribution<double>(
      0.0, cumulative_.back())(rng_);
  const std::size_t rank = static_cast<std::size_t>(
      std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
      cumulative_.begin());
  return universe_[ranking_[std::min(rank, ranking_.size() - 1)]];
}

std::string artifactDigest(const std::string& cCode, const std::string& host,
                           const std::string& mnemosyne) {
  Fnv fnv;
  fnv.mix(cCode);
  fnv.mix(host);
  fnv.mix(mnemosyne);
  return hex64(fnv.hash);
}

std::string textDigest(const std::string& text) {
  Fnv fnv;
  fnv.mix(text);
  return hex64(fnv.hash);
}

std::string okOutcome(const std::string& digest) { return "ok " + digest; }

std::string errOutcome(const std::string& diagnosticText) {
  return "err " + diagnosticText;
}

bool Golden::load(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    return false;
  entries_.clear();
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#')
      continue;
    const std::size_t tab = line.find('\t');
    if (tab == std::string::npos)
      return false;
    entries_[unescape(line.substr(0, tab))] = unescape(line.substr(tab + 1));
  }
  return !entries_.empty();
}

bool Golden::save(const std::string& path) const {
  std::ofstream out(path);
  out << "# perfbench golden outcomes: <request key>\\t<ok digest | err "
         "diagnostic>\n";
  for (const auto& [key, outcome] : entries_)
    out << escape(key) << '\t' << escape(outcome) << '\n';
  return static_cast<bool>(out);
}

void Golden::set(const std::string& key, const std::string& outcome) {
  entries_[key] = outcome;
}

const std::string* Golden::find(const std::string& key) const {
  const auto it = entries_.find(key);
  return it == entries_.end() ? nullptr : &it->second;
}

} // namespace perfbench
