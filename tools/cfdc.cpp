// cfdc — command-line driver for the CFDlang-to-FPGA flow.
//
// The whole invocation runs against ONE cfd::Session (DESIGN.md §10),
// so every mode shares the same FlowCache/StageCache and worker pool
// and can print session-level statistics.
//
// The flags given select one mode (selectMode; README.md "Using the
// CLI" has worked examples):
//
//  * single: compile one configuration, print/write an artifact
//    (--emit), optionally --validate and --simulate;
//  * sweep, sweep-json: explore the cross product of declared axes in
//    parallel through the session cache and print one row per variant,
//    or the canonical sweep report (DESIGN.md §3);
//  * tune, tune-json: search the axes with a strategy (exhaustive,
//    seeded random, hill-climb — DESIGN.md §7), score pluggable
//    objectives, and report the Pareto frontier as a table or as the
//    JSON report (DESIGN.md §7-§8);
//  * serve: run a long-lived compile daemon on a Unix domain socket.
//    Every client shares this ONE session; SIGINT/SIGTERM or a
//    client's shutdown request drain it and unlink the socket
//    (DESIGN.md §15);
//  * connect, connect-control: be a client of that daemon — compile
//    one kernel through it, or query it with --status or stop it with
//    --shutdown;
//  * distribute, workers (and their -json twins): shard a sweep's
//    points over forked or running worker daemons (DESIGN.md §16).
//
// kFlags is the one flag table. Each row states a flag's spelling, how
// its value is read, its --help text and the modes it applies to; a
// flag given in any other mode is a usage error generated from its
// row, and --help prints the same rows, so each mode rule is written
// once. The few rules that are not about modes follow the mode check
// in parseArgs.
//
// A sweep or tune runs as one job on the session's queue
// (DESIGN.md §11), and --deadline-ms bounds that job's wall clock.
//
// Exit codes: 0 success, 1 I/O or validation failure, 2 usage error,
// 3 compile diagnostics (malformed DSL, infeasible constraints) — a
// sweep or tune cut off by --deadline-ms also exits 3, with the
// "job-queue" diagnostic reported the same way. A distributed sweep
// that cannot reach its workers, loses them all, or runs a chunk out
// of attempts exits 1, like a --connect to a dead socket.
#include "core/Session.h"
#include "dist/Coordinator.h"
#include "dist/WorkerPoolSpawner.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <bit>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace {

constexpr int kExitIo = 1;
constexpr int kExitDiagnostics = 3;

// The modes, one bit each, in kModes order. A sweep, tune or
// distributed run prints a table unless --emit=json asks for its JSON
// report, and the two take different flags, so each is a mode.
constexpr unsigned kSingle = 1u << 0;
constexpr unsigned kSweep = 1u << 1;
constexpr unsigned kSweepJson = 1u << 2;
constexpr unsigned kTune = 1u << 3;
constexpr unsigned kTuneJson = 1u << 4;
constexpr unsigned kServe = 1u << 5;
constexpr unsigned kConnect = 1u << 6;
constexpr unsigned kConnectControl = 1u << 7;
constexpr unsigned kDistribute = 1u << 8;
constexpr unsigned kDistributeJson = 1u << 9;
constexpr unsigned kWorkers = 1u << 10;
constexpr unsigned kWorkersJson = 1u << 11;
// Mode sets the flag rows share.
constexpr unsigned kTunes = kTune | kTuneJson;
constexpr unsigned kLocalSpaces = kSweep | kSweepJson | kTunes;
constexpr unsigned kDistributed =
    kDistribute | kDistributeJson | kWorkers | kWorkersJson;
constexpr unsigned kSpaces = kLocalSpaces | kDistributed; ///< --sweep axes
constexpr unsigned kJsonReports =
    kSweepJson | kTuneJson | kDistributeJson | kWorkersJson;
/// Every mode that compiles the input kernel under the option flags.
constexpr unsigned kCompiles = kSingle | kConnect | kSpaces;

struct ModeInfo {
  const char* name;
  const char* help; ///< what selects the mode and what it does
};

constexpr ModeInfo kModes[] = {
    {"single", "kernel.cfd and none of the flags below: compile one "
               "configuration and print or write one artifact"},
    {"sweep", "--sweep: compile every point of the axes' cross product in "
              "parallel and print one table row per point (DESIGN.md §3)"},
    {"sweep-json", "--sweep --emit=json: the canonical sweep report "
                   "({schema, points, rows, frontier}) instead of the "
                   "table; distributed runs are diffed against it"},
    {"tune", "--tune: search the declared axes (or a default unroll x "
             "sharing x decoupled space), score the objectives, and print "
             "the evaluated points and the Pareto frontier (DESIGN.md §7)"},
    {"tune-json", "--tune --emit=json: the JSON tuning report (DESIGN.md "
                  "§8) instead of the table"},
    {"serve", "--serve: a long-lived compile daemon whose one session "
              "every client shares over a Unix domain socket; no input "
              "file (DESIGN.md §15)"},
    {"connect", "--connect=PATH kernel.cfd: compile through the daemon "
                "at PATH instead of in-process"},
    {"connect-control", "--connect=PATH with --status or --shutdown: "
                        "query or stop that daemon; no input file"},
    {"distribute", "--distribute=N: shard the --sweep points over N "
                   "worker daemons forked for the run and print the "
                   "merged table (DESIGN.md §16)"},
    {"distribute-json", "--distribute=N --emit=json: the merged sweep "
                        "report, byte-identical to sweep-json"},
    {"workers", "--workers=S1,...: shard the --sweep points over daemons "
                "already running on these sockets"},
    {"workers-json", "--workers=S1,... --emit=json: the merged sweep "
                     "report"},
};
static_assert(kWorkersJson == 1u << (std::size(kModes) - 1),
              "one kModes entry per mode bit, in bit order");

struct CliOptions {
  unsigned mode = kSingle; ///< the one mode bit selectMode picked
  std::string inputPath;
  std::string emit = "report";
  std::string outputPath;
  cfd::FlowOptions flow;
  /// Option flags re-recorded as tune params (unroll, m, k, ...), so
  /// --connect and the distributed modes can forward them over the
  /// wire instead of resolving them locally.
  std::vector<std::pair<std::string, std::string>> paramSpecs;
  std::int64_t simulateElements = 0;
  bool validate = false;
  bool printIrBefore = false;
  bool printIrAfter = false;
  bool diagnosticsJson = false;
  std::vector<cfd::TuneAxis> sweeps;
  std::optional<int> jobs;
  int deadlineMs = 0;
  bool explainCache = false;
  std::optional<int> stageCacheMb;
  std::string cacheDir;
  bool tune = false;
  cfd::SearchStrategy strategy = cfd::SearchStrategy::Exhaustive;
  std::uint64_t seed = 1;
  std::optional<std::size_t> samples;
  std::optional<std::size_t> maxSteps;
  std::vector<std::string> objectiveNames;
  // Daemon modes (DESIGN.md §15).
  bool serve = false;
  std::string socketPath;
  std::string connectPath;
  bool statusRequest = false;
  bool shutdownRequest = false;
  std::string priority;
  // Distributed sweeps (DESIGN.md §16).
  int distribute = 0;
  std::vector<std::string> workerSockets;
};

/// A usage error: one line naming it and a pointer to --help, exit 2.
[[noreturn]] void usage(const std::string& error) {
  std::cerr << "cfdc: " << error << "\n"
            << "run 'cfdc --help' for the flag reference\n";
  std::exit(2);
}

/// Runs one of the core's value parsers, turning its FlowError into a
/// usage error.
template <typename Parse> auto orUsage(Parse parse) {
  try {
    return parse();
  } catch (const cfd::FlowError& e) {
    usage(e.what());
  }
}

bool isDigit(char c) { return c >= '0' && c <= '9'; }

int parseInt(const std::string& value, const std::string& flag) {
  // std::stoi alone accepts leading whitespace and '+' (--jobs=" 4",
  // --jobs=+4), so usage errors would drift: only an optional '-'
  // followed by digits is an integer here.
  const bool negative = !value.empty() && value[0] == '-';
  const std::string digits = negative ? value.substr(1) : value;
  if (digits.empty() || !isDigit(digits[0]))
    usage(flag + " expects an integer (got '" + value + "')");
  try {
    std::size_t consumed = 0;
    const int parsed = std::stoi(value, &consumed);
    if (consumed != value.size())
      usage(flag + " expects an integer (got '" + value + "')");
    return parsed;
  } catch (const std::exception&) {
    usage(flag + " expects an integer (got '" + value + "')");
  }
}

int parseNonNegativeInt(const std::string& value, const std::string& flag) {
  const int parsed = parseInt(value, flag);
  if (parsed < 0)
    usage(flag + " expects a non-negative integer (got '" + value + "')");
  return parsed;
}

std::vector<std::string> splitCsv(const std::string& csv) {
  std::vector<std::string> parts;
  std::string part;
  std::istringstream stream(csv);
  while (std::getline(stream, part, ','))
    if (!part.empty())
      parts.push_back(part);
  return parts;
}

/// An option flag: applied to the local options through the shared
/// core parser and recorded as a tune param.
void param(CliOptions& options, const char* key, const std::string& value) {
  orUsage([&] { return cfd::applyTuneParam(options.flow, key, value); });
  options.paramSpecs.emplace_back(key, value);
}

/// Splits one --sweep=key=v1,v2,... spec; the keys and values are
/// validated together once every axis is known (parseArgs).
cfd::TuneAxis parseSweepAxis(const std::string& spec) {
  const std::size_t eq = spec.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= spec.size())
    usage("--sweep expects key=v1,v2,... (got '" + spec + "')");
  cfd::TuneAxis axis{spec.substr(0, eq), splitCsv(spec.substr(eq + 1))};
  if (axis.values.empty())
    usage("--sweep=" + axis.key + " has no values");
  return axis;
}

cfd::SearchStrategy strategyNamed(const std::string& name) {
  return orUsage([&] { return cfd::searchStrategyByName(name); });
}

/// How a flag takes its value.
enum class Arg {
  None,  ///< --flag
  Value, ///< --flag=VALUE
  File,  ///< -o FILE: the next argument
};

/// One row of the flag table.
struct Flag {
  const char* name;
  Arg arg;
  const char* meta; ///< the value's placeholder in --help
  unsigned modes;   ///< the modes the flag applies to
  const char* help;
  void (*read)(CliOptions&, const std::string& value);
};

using V = const std::string&; ///< a reader's value parameter

// A flag matches the first row whose spelling it has, so --emit=json
// comes before --emit=KIND.
constexpr Flag kFlags[] = {
    {"--emit=json", Arg::None, "", kJsonReports,
     "print the run's JSON report instead of its table: the canonical "
     "sweep report of a sweep, distributed or not, or the tuning report "
     "of a tune",
     [](CliOptions& o, V) { o.emit = "json"; }},
    {"--emit", Arg::Value, "c|mnemosyne|host|dot|report", kSingle | kConnect,
     "artifact to print (default: report)",
     [](CliOptions& o, V v) {
       orUsage([&] { return &cfd::artifactKindByName(v); });
       o.emit = v;
     }},
    {"-o", Arg::File, "FILE", kSingle | kConnect | kTunes | kJsonReports,
     "write the artifact or the JSON report to FILE instead of stdout (a "
     "tune still prints its table)",
     [](CliOptions& o, V v) { o.outputPath = v; }},
    {"--no-sharing", Arg::None, "", kCompiles,
     "disable PLM address-space sharing (paper Fig. 5)",
     [](CliOptions& o, V) { param(o, "sharing", "0"); }},
    {"--coupled", Arg::None, "", kCompiles,
     "keep temporaries inside the HLS accelerator (no Mnemosyne "
     "decoupling)",
     [](CliOptions& o, V) { param(o, "decoupled", "0"); }},
    {"--m", Arg::Value, "N", kCompiles,
     "force the number of PLM units (0 = fit device)",
     [](CliOptions& o, V v) {
       parseInt(v, "--m");
       param(o, "m", v);
     }},
    {"--k", Arg::Value, "N", kCompiles,
     "force the number of accelerators (0 = equal m)",
     [](CliOptions& o, V v) {
       parseInt(v, "--k");
       param(o, "k", v);
     }},
    {"--unroll", Arg::Value, "N", kCompiles,
     "innermost unroll factor / PLM banks (a power of two)",
     [](CliOptions& o, V v) {
       parseInt(v, "--unroll");
       param(o, "unroll", v);
     }},
    {"--opt-level", Arg::Value, "N", kCompiles,
     "IR optimizer level (default: 1): 0 = canonicalize only, 1 = "
     "+cse/fold/dce, 2 = +copy/contraction fusion (DESIGN.md §12)",
     [](CliOptions& o, V v) { param(o, "opt", v); }},
    {"--objective", Arg::Value, "hw|sw", kCompiles,
     "rescheduling objective (default: hw)",
     [](CliOptions& o, V v) { param(o, "objective", v); }},
    {"--layout", Arg::Value, "rowmajor|colmajor", kCompiles,
     "default tensor layout (default: rowmajor)",
     [](CliOptions& o, V v) { param(o, "layout", v); }},
    {"--print-ir-before", Arg::None, "", kSingle,
     "dump the tensor IR before the optimizer ran (stderr)",
     [](CliOptions& o, V) { o.printIrBefore = true; }},
    {"--print-ir-after", Arg::None, "", kSingle,
     "dump the optimized tensor IR plus the per-pass rewrite summary "
     "(stderr)",
     [](CliOptions& o, V) { o.printIrAfter = true; }},
    {"--simulate", Arg::Value, "Ne", kSingle | kSweep | kTunes,
     "simulate Ne elements on the platform model; a tune's latency "
     "objective then includes AXI transfer costs",
     [](CliOptions& o, V v) {
       o.simulateElements = parseNonNegativeInt(v, "--simulate");
     }},
    {"--validate", Arg::None, "", kSingle,
     "compare the schedule against the Eq. 1 reference semantics (exit 1 "
     "above 1e-8)",
     [](CliOptions& o, V) { o.validate = true; }},
    {"--diagnostics", Arg::Value, "json", kSingle | kConnect | kConnectControl,
     "on a compile failure, print the structured diagnostics (severity, "
     "stage, line/column) as JSON on stdout instead of text on stderr; "
     "the exit code stays 3. Remote failures render exactly like local "
     "ones",
     [](CliOptions& o, V v) {
       if (v != "json")
         usage("--diagnostics only supports json (got '" + v + "')");
       o.diagnosticsJson = true;
     }},
    {"--cache-dir", Arg::Value, "DIR", kSingle | kLocalSpaces | kServe,
     "root of the persistent artifact store (DESIGN.md §13); defaults to "
     "$CFD_CACHE_DIR, neither set = in-memory caches only. Stage prefixes "
     "published by any earlier process are adopted from disk, and this "
     "process publishes its own",
     [](CliOptions& o, V v) {
       if (v.empty())
         usage("--cache-dir expects a directory path");
       o.cacheDir = v;
     }},
    {"--sweep", Arg::Value, "key=v1,v2,...", kSpaces,
     "declare one axis (repeatable, one per key; axes combine as a cross "
     "product of at most 65536 points). Keys: unroll|opt|m|k|sharing|"
     "decoupled|objective|layout",
     [](CliOptions& o, V v) { o.sweeps.push_back(parseSweepAxis(v)); }},
    {"--jobs", Arg::Value, "N", kLocalSpaces | kServe | kDistribute |
                                    kDistributeJson,
     "worker threads of the session (0 = auto); with --distribute, of "
     "each worker's session (default 1)",
     [](CliOptions& o, V v) { o.jobs = parseNonNegativeInt(v, "--jobs"); }},
    {"--deadline-ms", Arg::Value, "N", kSpaces | kConnect,
     "deadline of the run, which is one job on the session's queue "
     "(DESIGN.md §11): at expiry the job is cancelled at the next stage "
     "boundary, reported as a \"job-queue\" diagnostic, and the run exits "
     "3 without a table. With --connect the request's deadline; in a "
     "distributed sweep the per-chunk straggler deadline",
     [](CliOptions& o, V v) {
       o.deadlineMs = parseNonNegativeInt(v, "--deadline-ms");
     }},
    {"--explain-cache", Arg::None, "", kSweep | kTune,
     "add a per-row \"resumed\" column to the table: the first pipeline "
     "stage that actually ran for that point (\"flow-cache\" = whole "
     "compile reused, \"stage-cache\" = all stage artifacts adopted, "
     "\"parse\" = cold)",
     [](CliOptions& o, V) { o.explainCache = true; }},
    {"--stage-cache-mb", Arg::Value, "N", kLocalSpaces | kServe,
     "bound the stage-artifact cache behind incremental compilation to ~N "
     "MB (0 = unbounded; default 64)",
     [](CliOptions& o, V v) {
       o.stageCacheMb = parseNonNegativeInt(v, "--stage-cache-mb");
     }},
    {"--tune", Arg::None, "", kTunes,
     "search the declared axes (or a default unroll x sharing x decoupled "
     "space when no --sweep is given) instead of printing every row; "
     "deterministic for a fixed seed and space (DESIGN.md §7)",
     [](CliOptions& o, V) { o.tune = true; }},
    {"--tune", Arg::Value, "STRATEGY", kTunes,
     "--tune with a strategy: exhaustive (default) | random | hillclimb",
     [](CliOptions& o, V v) {
       o.tune = true;
       o.strategy = strategyNamed(v);
     }},
    {"--strategy", Arg::Value, "NAME", kTunes, "same as --tune=NAME",
     [](CliOptions& o, V v) { o.strategy = strategyNamed(v); }},
    {"--seed", Arg::Value, "N", kTunes, "random-strategy seed (default: 1)",
     [](CliOptions& o, V v) {
       o.seed = static_cast<std::uint64_t>(parseNonNegativeInt(v, "--seed"));
     }},
    {"--samples", Arg::Value, "N", kTunes,
     "random-strategy distinct points (default: 16); an error under any "
     "other strategy",
     [](CliOptions& o, V v) {
       o.samples =
           static_cast<std::size_t>(parseNonNegativeInt(v, "--samples"));
     }},
    {"--max-steps", Arg::Value, "N", kTunes,
     "hill-climb move cap (default: 32); an error under any other strategy",
     [](CliOptions& o, V v) {
       o.maxSteps =
           static_cast<std::size_t>(parseNonNegativeInt(v, "--max-steps"));
     }},
    {"--objectives", Arg::Value, "a,b,...", kTunes,
     "scoring objectives, all minimized: latency|bram|dsp|lut|compile_ms "
     "(default: latency,bram)",
     [](CliOptions& o, V v) {
       o.objectiveNames = splitCsv(v);
       if (o.objectiveNames.empty())
         usage("--objectives has no values");
     }},
    {"--serve", Arg::None, "", kServe,
     "run a long-lived compile daemon on --socket (required). SIGINT/"
     "SIGTERM or a shutdown request stop accepting, cancel queued jobs, "
     "drain running ones within a bound (DESIGN.md §15), and remove the "
     "socket; a stale socket file left by a crash is replaced on startup",
     [](CliOptions& o, V) { o.serve = true; }},
    {"--socket", Arg::Value, "PATH", kServe, "the daemon's listening socket",
     [](CliOptions& o, V v) {
       if (v.empty())
         usage("--socket expects a socket path");
       o.socketPath = v;
     }},
    {"--connect", Arg::Value, "PATH", kConnect | kConnectControl,
     "send the request to the daemon at PATH",
     [](CliOptions& o, V v) {
       if (v.empty())
         usage("--connect expects a socket path");
       o.connectPath = v;
     }},
    {"--status", Arg::None, "", kConnectControl,
     "print the daemon session's statsReport() (the text a local sweep "
     "prints) instead of compiling",
     [](CliOptions& o, V) { o.statusRequest = true; }},
    {"--shutdown", Arg::None, "", kConnectControl,
     "ask the daemon to drain and exit (not with --status)",
     [](CliOptions& o, V) { o.shutdownRequest = true; }},
    {"--priority", Arg::Value, "low|normal|high", kConnect,
     "queue priority of the request (default: normal)",
     [](CliOptions& o, V v) {
       if (v != "low" && v != "normal" && v != "high")
         usage("--priority expects low|normal|high (got '" + v + "')");
       o.priority = v;
     }},
    {"--distribute", Arg::Value, "N", kDistribute | kDistributeJson,
     "shard the --sweep points (required) across N local worker daemons "
     "forked for the run, each serving the --serve protocol with its own "
     "session, and merge the results, byte-identical to the "
     "single-process sweep",
     [](CliOptions& o, V v) {
       o.distribute = parseInt(v, "--distribute");
       if (o.distribute <= 0)
         usage("--distribute expects a positive worker count (got '" + v +
               "')");
     }},
    {"--workers", Arg::Value, "S1,S2,...", kWorkers | kWorkersJson,
     "like --distribute, but dispatch to daemons already running on these "
     "sockets instead of spawning any (not with --distribute; worker "
     "sessions must run default options for identical results)",
     [](CliOptions& o, V v) {
       o.workerSockets = splitCsv(v);
       if (o.workerSockets.empty())
         usage("--workers expects a comma-separated socket list");
     }},
};

/// The row `arg` spells, or nullptr.
const Flag* findFlag(const std::string& arg) {
  for (const Flag& flag : kFlags) {
    const std::size_t n = std::strlen(flag.name);
    if (arg.compare(0, n, flag.name) != 0)
      continue;
    if (flag.arg == Arg::Value ? arg.size() > n && arg[n] == '='
                               : arg.size() == n)
      return &flag;
  }
  return nullptr;
}

/// The names of the modes in `modes`, comma-separated.
std::string modeNames(unsigned modes) {
  std::string names;
  for (std::size_t i = 0; i < std::size(kModes); ++i)
    if ((modes >> i & 1u) != 0)
      names += (names.empty() ? "" : ", ") + std::string(kModes[i].name);
  return names;
}

constexpr std::size_t kHelpWidth = 78;
constexpr std::size_t kHelpIndent = 27;

/// Prints `text` flowed into lines of at most kHelpWidth columns, the
/// first continuing at `column`, the rest starting at `indent`.
void printWrapped(const std::string& text, std::size_t indent,
                  std::size_t column) {
  std::istringstream words(text);
  std::string word;
  for (bool first = true; words >> word; first = false) {
    if (!first && column + 1 + word.size() > kHelpWidth) {
      std::cout << "\n" << std::string(indent, ' ');
      column = indent;
    } else if (!first) {
      std::cout << ' ';
      ++column;
    }
    std::cout << word;
    column += word.size();
  }
  std::cout << "\n";
}

/// --help: the modes and the flag table on stdout, exit 0.
[[noreturn]] void help() {
  std::cout << "usage: cfdc [options] kernel.cfd\n"
               "       cfdc --serve --socket=PATH [options]\n"
               "       cfdc --connect=PATH [options] kernel.cfd|--status|"
               "--shutdown\n\n";
  printWrapped("The flags given select one mode. Each flag below names the "
               "modes it applies to; given in any other mode it is a usage "
               "error (exit 2). README.md \"Using the CLI\" has worked "
               "examples.",
               0, 0);
  std::cout << "\nModes:\n";
  for (const ModeInfo& mode : kModes) {
    std::cout << "  " << cfd::padRight(mode.name, 17);
    printWrapped(mode.help, 19, 19);
  }
  std::cout << "\nFlags:\n";
  for (const Flag& flag : kFlags) {
    std::string spelling = std::string("  ") + flag.name;
    if (flag.arg == Arg::Value)
      spelling += std::string("=") + flag.meta;
    else if (flag.arg == Arg::File)
      spelling += std::string(" ") + flag.meta;
    std::cout << spelling;
    if (spelling.size() + 1 > kHelpIndent)
      std::cout << "\n" << std::string(kHelpIndent, ' ');
    else
      std::cout << std::string(kHelpIndent - spelling.size(), ' ');
    printWrapped(flag.help, kHelpIndent, kHelpIndent);
    std::cout << std::string(kHelpIndent, ' ');
    printWrapped("modes: " + modeNames(flag.modes), kHelpIndent + 7,
                 kHelpIndent);
  }
  std::cout << "\n";
  printWrapped("Exit codes: 0 success; 1 I/O or validation failure; 2 usage "
               "error; 3 compile diagnostics (malformed DSL, infeasible "
               "constraints; also a --sweep/--tune cut off by "
               "--deadline-ms).",
               0, 0);
  std::exit(0);
}

/// The one mode the mode-selecting flags name.
unsigned selectMode(const CliOptions& options) {
  const bool json = options.emit == "json";
  if (options.serve)
    return kServe;
  if (!options.connectPath.empty())
    return options.statusRequest || options.shutdownRequest ? kConnectControl
                                                            : kConnect;
  if (options.distribute > 0)
    return json ? kDistributeJson : kDistribute;
  if (!options.workerSockets.empty())
    return json ? kWorkersJson : kWorkers;
  if (options.tune)
    return json ? kTuneJson : kTune;
  if (!options.sweeps.empty())
    return json ? kSweepJson : kSweep;
  return kSingle;
}

CliOptions parseArgs(const std::vector<std::string>& args) {
  CliOptions options;
  // Each flag given, as typed, with its row: the mode check below.
  std::vector<std::pair<const Flag*, std::string>> given;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--help" || arg == "-h")
      help();
    const Flag* flag = findFlag(arg);
    if (flag == nullptr) {
      if (!arg.empty() && arg[0] == '-')
        usage("unknown option '" + arg + "'");
      if (!options.inputPath.empty())
        usage("multiple input files");
      options.inputPath = arg;
      continue;
    }
    std::string value;
    if (flag->arg == Arg::Value) {
      value = arg.substr(std::strlen(flag->name) + 1);
    } else if (flag->arg == Arg::File) {
      if (++i >= args.size())
        usage(arg + " requires a file name");
      value = args[i];
    }
    flag->read(options, value);
    given.emplace_back(flag, arg);
  }
  // Every mode's axes pass the one validator before anything expands
  // them: a bad key or value, a repeated key, or a space over
  // cfd::kMaxSpacePoints is a usage error.
  {
    cfd::DiagnosticList diagnostics;
    if (!cfd::validateTuneAxes(options.sweeps, diagnostics))
      usage(diagnostics[0].message);
  }
  // Two pairs of mode-selecting flags exclude each other outright.
  if (options.distribute > 0 && !options.workerSockets.empty())
    usage("--distribute and --workers are mutually exclusive (spawn fresh "
          "workers or use running ones, not both)");
  if (options.statusRequest && options.shutdownRequest)
    usage("--status and --shutdown are mutually exclusive");
  options.mode = selectMode(options);
  for (const auto& [flag, text] : given)
    if ((flag->modes & options.mode) == 0)
      usage(text + " does not apply in " +
            kModes[std::countr_zero(options.mode)].name +
            " mode (its modes: " + modeNames(flag->modes) + ")");

  // The rules that are not about modes.
  if (options.mode == kServe && options.socketPath.empty())
    usage("--serve requires --socket=PATH (the daemon needs a socket to "
          "listen on)");
  if ((options.mode & kDistributed) != 0 && options.sweeps.empty())
    usage("--distribute/--workers require --sweep axes (they shard a "
          "sweep's design points)");
  if (options.samples && options.strategy != cfd::SearchStrategy::Random)
    usage("--samples requires --strategy=random (only the random "
          "strategy draws samples)");
  if (options.maxSteps && options.strategy != cfd::SearchStrategy::HillClimb)
    usage("--max-steps requires --strategy=hillclimb (only the "
          "hill-climb strategy takes steps)");
  if (options.mode == kServe && !options.inputPath.empty())
    usage("--serve takes no input file (clients submit sources over the "
          "socket)");
  if (options.mode == kConnectControl && !options.inputPath.empty())
    usage("--status/--shutdown take no input file (they query the "
          "daemon, not a kernel)");
  if (options.mode == kConnect && options.inputPath.empty())
    usage("--connect needs an input file to compile (or --status / "
          "--shutdown)");
  if ((options.mode & (kServe | kConnect | kConnectControl)) == 0 &&
      options.inputPath.empty())
    usage("no input file");
  return options;
}

/// Applies --stage-cache-mb to the session the sweep/tune will compile
/// through.
void applyStageCacheBound(const CliOptions& options, cfd::Session& session) {
  if (!options.stageCacheMb)
    return;
  if (cfd::StageCache* cache = session.stageCache())
    cache->setCapacityBytes(static_cast<std::size_t>(*options.stageCacheMb)
                            << 20);
}
/// Session-level summary: request counters, pool state, both caches,
/// plus the cross-row stage-adoption count of this sweep/tune.
void printSessionSummary(const cfd::Session& session,
                         std::int64_t stagesAdopted) {
  std::cout << session.statsReport();
  std::cout << "  " << stagesAdopted
            << " stage artifacts adopted across rows\n";
}

/// Renders a failed request for humans (stderr) or tools
/// (--diagnostics=json on stdout); returns the exit code to use.
int reportDiagnostics(const cfd::DiagnosticList& diagnostics,
                      bool asJson) {
  if (asJson) {
    cfd::json::Value root = cfd::json::Value::object();
    root.set("schema", "cfd-diagnostics-v1");
    root.set("diagnostics", diagnostics.toJson());
    std::cout << root.dump(2) << "\n";
  } else {
    std::cerr << "cfdc: compile failed:\n";
    for (const cfd::Diagnostic& diagnostic : diagnostics)
      std::cerr << "  " << diagnostic.str() << "\n";
  }
  return kExitDiagnostics;
}

/// Waits for the one job a --sweep/--tune run submits. A failure prints
/// its diagnostics and returns the exit code: 3 when --deadline-ms
/// cancelled the job, 2 when the session rejected the request (e.g. an
/// unknown objective name). Returns 0 on success.
template <typename T> int awaitJob(const cfd::Job<T>& job) {
  const cfd::Expected<T>& result = job.wait();
  if (result)
    return 0;
  for (const cfd::Diagnostic& diagnostic : result.diagnostics())
    std::cerr << "cfdc: " << diagnostic.str() << "\n";
  return job.state() == cfd::JobState::Cancelled ? kExitDiagnostics : 2;
}

/// Writes the canonical sweep report (--emit=json) to -o or stdout;
/// nothing else may touch stdout on this path — the bytes are diffed
/// against distributed runs.
int writeSweepReport(const CliOptions& options,
                     const cfd::dist::DistSweepResult& result) {
  const std::string text = result.reportText();
  if (options.outputPath.empty()) {
    std::cout << text;
    return 0;
  }
  std::ofstream output(options.outputPath);
  if (!output) {
    std::cerr << "cfdc: cannot write '" << options.outputPath << "'\n";
    return kExitIo;
  }
  output << text;
  return 0;
}

int runSweep(const CliOptions& options, cfd::Session& session,
             const std::string& source) {
  using cfd::formatFixed;
  using cfd::padLeft;
  using cfd::padRight;

  applyStageCacheBound(options, session);
  cfd::SweepRequest request(source);
  request.options(options.flow)
      .workers(options.jobs.value_or(0))
      .simulateElements(options.simulateElements);
  for (const cfd::TuneAxis& axis : options.sweeps)
    request.axis(axis.key, axis.values);

  const cfd::Job<cfd::SweepResult> job = session.submitSweep(
      std::move(request),
      {.deadlineMillis = static_cast<double>(options.deadlineMs)});
  if (const int status = awaitJob(job))
    return status;
  const cfd::SweepResult& swept = *job.wait();
  if (options.mode == kSweepJson)
    return writeSweepReport(
        options, cfd::dist::SweepCoordinator::fromSweepResult(swept));
  const cfd::ExplorationResult& result = swept.exploration;
  const std::vector<std::string>& labels = swept.labels;

  std::size_t labelWidth = 12;
  for (const std::string& label : labels)
    labelWidth = std::max(labelWidth, label.size() + 2);

  std::cout << "  " << padRight("variant", labelWidth) << padLeft("m", 5)
            << padLeft("k", 5) << padLeft("BRAM/PLM", 10)
            << padLeft("kernel us", 11);
  if (options.simulateElements > 0)
    std::cout << padLeft("total ms", 10) << padLeft("elements/s", 12);
  std::cout << padLeft("cache", 7);
  if (options.explainCache)
    std::cout << padLeft("resumed", 12);
  std::cout << "\n";
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    const cfd::ExplorationRow& row = result.rows[i];
    std::cout << "  " << padRight(labels[i], labelWidth);
    if (!row.ok()) {
      std::cout << "infeasible: " << row.error << "\n";
      continue;
    }
    const auto& design = row.flow->systemDesign();
    std::cout << padLeft(std::to_string(design.m), 5)
              << padLeft(std::to_string(design.k), 5)
              << padLeft(std::to_string(design.plmBram36PerUnit), 10)
              << padLeft(formatFixed(row.flow->kernelReport().timeUs(), 1),
                         11);
    if (row.simulated) {
      const double elementsPerSecond =
          static_cast<double>(options.simulateElements) /
          (row.sim.totalTimeUs() / 1e6);
      std::cout << padLeft(formatFixed(row.sim.totalTimeUs() / 1e3, 1), 10)
                << padLeft(formatFixed(elementsPerSecond, 0), 12);
    }
    std::cout << padLeft(row.cacheHit ? "hit" : "miss", 7);
    if (options.explainCache)
      std::cout << padLeft(row.resumedFrom, 12);
    std::cout << "\n";
  }
  std::cout << "  " << result.rows.size() << " variants ("
            << result.feasibleCount() << " feasible, "
            << result.cacheHitCount() << " from cache) on " << result.workers
            << (result.workers == 1 ? " worker in " : " workers in ")
            << formatFixed(result.wallMillis, 1) << " ms\n";
  printSessionSummary(session, result.stagesAdoptedTotal());
  return 0;
}

int runTune(const CliOptions& options, cfd::Session& session,
            const std::string& source) {
  using cfd::formatFixed;
  using cfd::padLeft;
  using cfd::padRight;

  applyStageCacheBound(options, session);
  cfd::TuneRequest request(source);
  request.options(options.flow)
      .strategy(options.strategy)
      .seed(options.seed)
      .objectives(options.objectiveNames)
      .workers(options.jobs.value_or(0))
      .simulateElements(options.simulateElements);
  if (options.samples)
    request.samples(*options.samples);
  if (options.maxSteps)
    request.maxSteps(*options.maxSteps);
  for (const cfd::TuneAxis& axis : options.sweeps)
    request.axis(axis.key, axis.values);

  const cfd::Job<cfd::TuningReport> job = session.submitTune(
      std::move(request),
      {.deadlineMillis = static_cast<double>(options.deadlineMs)});
  if (const int status = awaitJob(job))
    return status;
  const cfd::TuningReport& report = *job.wait();
  const std::string json = report.jsonText();

  if (!options.outputPath.empty()) {
    std::ofstream out(options.outputPath);
    if (!out) {
      std::cerr << "cfdc: cannot write '" << options.outputPath << "'\n";
      return 1;
    }
    out << json;
  }
  if (options.mode == kTuneJson) {
    if (options.outputPath.empty())
      std::cout << json;
    return 0;
  }

  // Human-readable summary: every evaluated point, frontier marked.
  std::size_t labelWidth = 12;
  for (const cfd::TunedPoint& point : report.points)
    labelWidth = std::max(labelWidth, point.label().size() + 2);
  std::cout << "  " << padRight("point", labelWidth);
  for (const std::string& name : report.objectives)
    std::cout << padLeft(name, 12);
  std::cout << padLeft("pareto", 8);
  if (options.explainCache)
    std::cout << padLeft("resumed", 12);
  std::cout << "\n";
  for (const cfd::TunedPoint& point : report.points) {
    std::cout << "  " << padRight(point.label(), labelWidth);
    if (!point.row.ok()) {
      std::cout << "infeasible: " << point.row.error << "\n";
      continue;
    }
    for (double score : point.scores)
      std::cout << padLeft(formatFixed(score, 2), 12);
    std::cout << padLeft(point.onFrontier ? "*" : "", 8);
    if (options.explainCache)
      std::cout << padLeft(point.row.resumedFrom, 12);
    std::cout << "\n";
  }
  std::cout << "  strategy " << cfd::searchStrategyName(report.strategy)
            << " (seed " << report.seed << "): evaluated "
            << report.points.size() << "/" << report.spaceSize
            << " points (" << report.prunedCount << " pruned, "
            << report.feasibleCount << " feasible, " << report.cacheHitCount
            << " from cache) on " << report.workers
            << (report.workers == 1 ? " worker in " : " workers in ")
            << formatFixed(report.wallMillis, 1) << " ms\n";
  printSessionSummary(session, report.stagesAdoptedTotal);
  std::cout << "  Pareto frontier: " << report.frontier.size()
            << (report.frontier.size() == 1 ? " point" : " points");
  for (std::size_t index : report.frontier)
    std::cout << "\n    " << report.points[index].label();
  std::cout << "\n";
  if (!options.outputPath.empty())
    std::cout << "  JSON report written to " << options.outputPath << "\n";
  return 0;
}

int runSingleShot(const CliOptions& options, cfd::Session& session,
                  const std::string& source) {
  const cfd::ArtifactKind& kind = cfd::artifactKindByName(options.emit);
  cfd::CompileRequest request(source);
  request.options(options.flow).materialize(kind.flag);
  const cfd::Expected<cfd::CompileResult> compiled =
      session.compile(request);
  if (!compiled)
    return reportDiagnostics(compiled.diagnostics(),
                             options.diagnosticsJson);
  for (const cfd::Diagnostic& diagnostic : compiled.diagnostics())
    std::cerr << "cfdc: " << diagnostic.str() << "\n"; // warnings/notes
  const cfd::Flow& flow = compiled->flow();

  // IR dumps go to stderr so --emit output on stdout stays clean.
  if (options.printIrBefore)
    std::cerr << "== IR before optimize ==\n"
              << flow.loweredProgram().str() << "\n";
  if (options.printIrAfter)
    std::cerr << "== IR after optimize ==\n" << flow.program().str()
              << "\n" << flow.optimizeReport().str();

  const std::string artifact = cfd::artifactText(*compiled, kind);

  if (options.outputPath.empty()) {
    std::cout << artifact;
  } else {
    std::ofstream out(options.outputPath);
    if (!out) {
      std::cerr << "cfdc: cannot write '" << options.outputPath << "'\n";
      return kExitIo;
    }
    out << artifact;
  }

  if (options.validate) {
    const double error = flow.validate();
    std::cout << "validation max |error| = " << error << "\n";
    if (error > 1e-8)
      return 1;
  }
  if (options.simulateElements > 0) {
    const auto result =
        flow.simulate({.numElements = options.simulateElements});
    std::cout << result.str();
  }
  return 0;
}

/// Prints connection/transport failures (not compile diagnostics) the
/// way the rest of cfdc prints I/O errors, and returns kExitIo.
int reportServeFailure(const cfd::DiagnosticList& diagnostics) {
  for (const cfd::Diagnostic& diagnostic : diagnostics)
    std::cerr << "cfdc: " << diagnostic.str() << "\n";
  return kExitIo;
}

// --serve routes SIGINT/SIGTERM into the server's async-signal-safe
// requestStop(); the pointer is only set while runServe() is live.
cfd::serve::Server* gServer = nullptr;

void onStopSignal(int) {
  if (gServer != nullptr)
    gServer->requestStop();
}

int runServe(const CliOptions& options) {
  // One session for the daemon's whole lifetime: every client shares
  // its FlowCache, StageCache, and (with --cache-dir) ArtifactStore.
  cfd::Session session(cfd::SessionOptions{
      .workers = options.jobs.value_or(0), .cacheDir = options.cacheDir});
  applyStageCacheBound(options, session);

  cfd::serve::Server server(session,
                            {.socketPath = options.socketPath});
  const cfd::Expected<bool> started = server.start();
  if (!started)
    return reportServeFailure(started.diagnostics());

  gServer = &server;
  std::signal(SIGINT, onStopSignal);
  std::signal(SIGTERM, onStopSignal);
  std::cerr << "cfdc: serving on " << options.socketPath
            << " (SIGINT/SIGTERM or --connect=" << options.socketPath
            << " --shutdown to stop)\n";
  server.join();
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  gServer = nullptr;

  // The drain is done: report what the shared session did, like the
  // sweep/tune summaries, plus the server's own counters.
  const cfd::serve::Server::Stats stats = server.stats();
  std::cout << session.statsReport();
  std::cout << "  serve: " << stats.connectionsAccepted
            << " connections, " << stats.requestsReceived << " requests, "
            << stats.responsesSent << " responses, "
            << stats.cancelledOnDisconnect + stats.cancelledOnShutdown
            << " cancelled\n";
  return 0;
}

int runConnect(const CliOptions& options, const std::string& source) {
  cfd::Expected<cfd::serve::Client> client =
      cfd::serve::Client::connect(options.connectPath);
  if (!client)
    return reportServeFailure(client.diagnostics());

  cfd::serve::Request request;
  if (options.statusRequest || options.shutdownRequest) {
    request.kind = options.statusRequest ? cfd::serve::RequestKind::Status
                                         : cfd::serve::RequestKind::Shutdown;
    const cfd::Expected<cfd::serve::Response> response =
        client->call(std::move(request));
    if (!response)
      return reportServeFailure(response.diagnostics());
    if (!response->ok)
      return reportDiagnostics(response->diagnostics,
                               options.diagnosticsJson);
    if (options.statusRequest)
      std::cout << response->result.at("report").asString();
    else
      std::cout << "daemon on " << options.connectPath << " is draining\n";
    return 0;
  }

  // A --connect compile mirrors runSingleShot: the daemon materializes
  // exactly the --emit artifact.
  request.kind = cfd::serve::RequestKind::Compile;
  request.source = source;
  request.params = options.paramSpecs;
  request.artifacts = {options.emit};
  request.priority = options.priority;
  request.deadlineMillis = static_cast<double>(options.deadlineMs);

  const cfd::Expected<cfd::serve::Response> response =
      client->call(std::move(request));
  if (!response)
    return reportServeFailure(response.diagnostics());
  if (!response->ok)
    return reportDiagnostics(response->diagnostics,
                             options.diagnosticsJson);
  for (const cfd::Diagnostic& diagnostic : response->diagnostics)
    std::cerr << "cfdc: " << diagnostic.str() << "\n"; // warnings/notes

  const std::string& artifact =
      response->result.at("artifacts").at(options.emit).asString();
  if (options.outputPath.empty()) {
    std::cout << artifact;
  } else {
    std::ofstream out(options.outputPath);
    if (!out) {
      std::cerr << "cfdc: cannot write '" << options.outputPath << "'\n";
      return kExitIo;
    }
    out << artifact;
  }
  return 0;
}

/// --distribute=N / --workers=...: run the sweep through the dist
/// coordinator (DESIGN.md §16). Called before any Session exists —
/// spawning forks worker processes, and fork() must not happen in a
/// process that already started pool threads.
int runDistribute(const CliOptions& options, const std::string& source) {
  using cfd::formatFixed;
  using cfd::padLeft;
  using cfd::padRight;

  cfd::dist::DistSweepOptions dist;
  dist.source = source;
  dist.baseParams = options.paramSpecs;
  dist.axes = options.sweeps;
  dist.chunkDeadlineMillis = options.deadlineMs;
  dist.workerSockets = options.workerSockets;

  std::unique_ptr<cfd::dist::WorkerPoolSpawner> spawner;
  std::string socketDir;
  if (options.distribute > 0) {
    char dirTemplate[] = "/tmp/cfdc-dist-XXXXXX";
    if (::mkdtemp(dirTemplate) == nullptr) {
      std::cerr << "cfdc: cannot create a socket directory in /tmp\n";
      return kExitIo;
    }
    socketDir = dirTemplate;
    cfd::dist::SpawnOptions spawn;
    spawn.workers = options.distribute;
    spawn.sessionWorkers = options.jobs.value_or(1);
    spawn.socketDir = socketDir;
    spawner = std::make_unique<cfd::dist::WorkerPoolSpawner>(spawn);
    const cfd::Expected<bool> started = spawner->start();
    if (!started) {
      for (const cfd::Diagnostic& diagnostic : started.diagnostics())
        std::cerr << "cfdc: " << diagnostic.str() << "\n";
      ::rmdir(socketDir.c_str());
      return kExitIo;
    }
    dist.workerSockets = spawner->socketPaths();
  }

  cfd::dist::SweepCoordinator coordinator(std::move(dist));
  const cfd::Expected<cfd::dist::DistSweepResult> swept = coordinator.run();
  if (spawner != nullptr) {
    spawner->stopAll();
    ::rmdir(socketDir.c_str());
  }
  if (!swept) {
    // The coordinator states its own failures (no reachable worker, all
    // lost, a chunk out of attempts) in stage "dist": those are I/O.
    std::cerr << "cfdc: distributed sweep failed:\n";
    bool io = false;
    for (const cfd::Diagnostic& diagnostic : swept.diagnostics()) {
      std::cerr << "  " << diagnostic.str() << "\n";
      io = io || diagnostic.stage == "dist";
    }
    return io ? kExitIo : kExitDiagnostics;
  }

  if ((options.mode & kJsonReports) != 0)
    return writeSweepReport(options, *swept);

  std::size_t labelWidth = 12;
  for (const cfd::dist::DistRow& row : swept->rows)
    labelWidth = std::max(labelWidth, row.label.size() + 2);
  std::cout << "  " << padRight("variant", labelWidth) << padLeft("m", 5)
            << padLeft("k", 5) << padLeft("BRAM/PLM", 10)
            << padLeft("kernel us", 11) << "\n";
  for (const cfd::dist::DistRow& row : swept->rows) {
    std::cout << "  " << padRight(row.label, labelWidth);
    if (!row.feasible) {
      std::cout << "infeasible: " << row.error << "\n";
      continue;
    }
    std::cout << padLeft(std::to_string(row.m), 5)
              << padLeft(std::to_string(row.k), 5)
              << padLeft(std::to_string(row.bramPerPlm), 10)
              << padLeft(formatFixed(row.kernelUs, 1), 11) << "\n";
  }
  const cfd::dist::DistSweepStats& stats = swept->stats;
  std::cout << "  " << swept->rows.size() << " points ("
            << swept->frontier.size() << " on the frontier) over "
            << stats.workersConnected
            << (stats.workersConnected == 1 ? " worker in " : " workers in ")
            << formatFixed(stats.wallMillis, 1) << " ms\n";
  std::cout << "  dist: " << stats.chunksDispatched << " chunks ("
            << stats.chunksRetried << " retried), " << stats.workersLost
            << " workers lost, " << stats.workersDemoted << " demoted, "
            << stats.progressEvents << " progress events\n";
  return 0;
}

} // namespace

int main(int argc, char** argv) {
  const CliOptions options =
      parseArgs(std::vector<std::string>(argv + 1, argv + argc));

  // Daemon modes never read a local input file themselves: --serve has
  // none, and --connect --status/--shutdown query the daemon directly.
  if (options.mode == kServe)
    return runServe(options);
  if (options.mode == kConnectControl)
    return runConnect(options, "");

  std::ifstream input(options.inputPath);
  if (!input) {
    std::cerr << "cfdc: cannot open '" << options.inputPath << "'\n";
    return kExitIo;
  }
  std::stringstream source;
  source << input.rdbuf();

  if (options.mode == kConnect)
    return runConnect(options, source.str());

  // Distributed sweeps dispatch before the local Session exists:
  // --distribute forks worker processes, which is only safe while this
  // process has no pool threads yet.
  if ((options.mode & kDistributed) != 0)
    return runDistribute(options, source.str());

  // One session per invocation (DESIGN.md §10): --sweep/--tune and the
  // single-shot path all compile through the same caches and pool.
  // --jobs sizes the pool itself (0 = auto), so an explicit request
  // above hardware_concurrency is honored, not clamped.
  cfd::Session session(cfd::SessionOptions{
      .workers = options.jobs.value_or(0), .cacheDir = options.cacheDir});

  try {
    if ((options.mode & kTunes) != 0)
      return runTune(options, session, source.str());
    if ((options.mode & (kSweep | kSweepJson)) != 0)
      return runSweep(options, session, source.str());
    return runSingleShot(options, session, source.str());
  } catch (const cfd::FlowError& e) {
    // Post-compile failures (--validate / --simulate assertions).
    std::cerr << "cfdc: " << e.what() << "\n";
    return kExitIo;
  }
}
