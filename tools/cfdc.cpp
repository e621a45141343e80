// cfdc — command-line driver for the CFDlang-to-FPGA flow.
//
// The whole invocation runs against ONE cfd::Session (DESIGN.md §10),
// so every mode shares the same FlowCache/StageCache and worker pool
// and can print session-level statistics.
//
// Three modes (README.md "Using the CLI" has worked examples):
//
//  * single-shot: compile one configuration, print/write an artifact
//    (--emit), optionally --validate and --simulate;
//  * --sweep: explore the cross product of declared axes in parallel
//    through the session cache and print one row per variant
//    (DESIGN.md §3);
//  * --tune: search the axes with a strategy (exhaustive, seeded
//    random, hill-climb — DESIGN.md §7), score pluggable objectives,
//    and report the Pareto frontier as a table and/or a JSON report
//    (DESIGN.md §7-§8).
//
// A --sweep or --tune runs as one job on the session's queue
// (DESIGN.md §11), and --deadline-ms bounds that job's wall clock.
//
// Two service modes turn the session into a shared daemon
// (DESIGN.md §15):
//
//  * --serve --socket=PATH: run a long-lived compile daemon on a Unix
//    domain socket. Every client shares this ONE session (one
//    FlowCache/StageCache/ArtifactStore); SIGINT/SIGTERM or a client's
//    shutdown request drain it gracefully and unlink the socket;
//  * --connect=PATH: be a client — compile one kernel through the
//    daemon (--emit/-o/--priority/--deadline-ms apply), or query it
//    with --status (prints the daemon session's statsReport) or stop
//    it with --shutdown.
//
// Exit codes: 0 success, 1 I/O or validation failure, 2 usage error,
// 3 compile diagnostics (malformed DSL, infeasible constraints) — a
// sweep or tune cut off by --deadline-ms also exits 3, with the
// "job-queue" diagnostic reported the same way.
//
// Run `cfdc --help` for the full flag reference; a usage error prints
// one line and a pointer to it.
#include "core/Session.h"
#include "dist/Coordinator.h"
#include "dist/WorkerPoolSpawner.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/Error.h"
#include "support/Format.h"
#include "support/Json.h"

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

namespace {

constexpr int kExitIo = 1;
constexpr int kExitDiagnostics = 3;

struct CliOptions {
  std::string inputPath;
  std::string emit = "report";
  std::string outputPath;
  cfd::FlowOptions flow;
  std::int64_t simulateElements = 0;
  bool validate = false;
  bool printIrBefore = false;
  bool printIrAfter = false;
  bool emitExplicit = false;
  std::vector<cfd::TuneAxis> sweeps;
  bool jobsExplicit = false;
  int jobs = 0;
  bool deadlineMsExplicit = false;
  int deadlineMs = 0;
  bool explainCache = false;
  bool stageCacheMbExplicit = false;
  int stageCacheMb = 0;
  std::string cacheDir;
  bool tune = false;
  cfd::SearchStrategy strategy = cfd::SearchStrategy::Exhaustive;
  std::uint64_t seed = 1;
  bool samplesExplicit = false;
  std::size_t samples = 16;
  bool maxStepsExplicit = false;
  std::size_t maxSteps = 32;
  std::vector<std::string> objectiveNames;
  /// Name of the first --tune-only flag seen, for the without---tune
  /// diagnostic (these must never be silently ignored).
  std::string tuneOnlyFlag;
  bool diagnosticsJson = false;
  // Daemon modes (DESIGN.md §15).
  bool serve = false;
  std::string socketPath;
  std::string connectPath;
  bool statusRequest = false;
  bool shutdownRequest = false;
  std::string priority;
  // Distributed sweeps (DESIGN.md §16).
  bool distributeExplicit = false;
  int distribute = 0;
  std::vector<std::string> workerSockets;
  /// Option flags re-recorded as tune params (unroll, m, k, ...), so
  /// --connect can forward them over the wire instead of resolving
  /// them locally.
  std::vector<std::pair<std::string, std::string>> paramSpecs;
};

/// --help: the flag reference on stdout, exit 0.
[[noreturn]] void help() {
  std::cout <<
      R"(usage: cfdc [options] kernel.cfd

Single-shot compilation:
  --emit=c|mnemosyne|host|dot|report   artifact to print (default: report);
                                       --emit=json is valid with --tune only
  -o <file>                write the artifact (or the --tune JSON report)
                           to a file instead of stdout
  --no-sharing             disable PLM address-space sharing (paper Fig. 5)
  --coupled                keep temporaries inside the HLS accelerator
                           (no Mnemosyne decoupling)
  --m=N                    force the number of PLM units (0 = fit device)
  --k=N                    force the number of accelerators (0 = equal m)
  --unroll=N               innermost unroll factor / PLM banks
  --opt-level=N            IR optimizer level (default: 1): 0 =
                           canonicalize only, 1 = +cse/fold/dce,
                           2 = +copy/contraction fusion (DESIGN.md §12)
  --print-ir-before        dump the tensor IR before the optimizer ran
                           (stderr; single-shot only)
  --print-ir-after         dump the optimized tensor IR plus the
                           per-pass rewrite summary (stderr;
                           single-shot only)
  --objective=hw|sw        rescheduling objective (default: hw)
  --layout=rowmajor|colmajor  default tensor layout (default: rowmajor)
  --simulate=Ne            simulate Ne elements on the platform model
  --validate               compare the schedule against the Eq. 1
                           reference semantics (exit 1 above 1e-8)
  --diagnostics=json       on a compile failure, print the structured
                           diagnostics (severity, stage, line/column)
                           as JSON on stdout instead of text on stderr;
                           the exit code stays 3
  --cache-dir=DIR          root of the persistent artifact store
                           (DESIGN.md §13); defaults to $CFD_CACHE_DIR,
                           neither set = in-memory caches only. All
                           modes use it: stage prefixes published by
                           any earlier process are adopted from disk,
                           and this process publishes its own

Design-space search:
  --sweep=key=v1,v2,...    declare one axis (repeatable, one per key;
                           axes combine as a cross product of at most
                           65536 points). Keys: unroll|opt|m|k|
                           sharing|decoupled|objective|layout
  --jobs=N                 worker threads for --sweep/--tune (0 = auto);
                           an error without one of those modes
  --deadline-ms=N          deadline of the --sweep/--tune run, which is
                           one job on the session's queue (DESIGN.md
                           §11): at expiry the job is cancelled at the
                           next stage boundary, reported as a
                           "job-queue" diagnostic, and the run exits 3
                           without a table. An error on a single-shot
                           compile
  --explain-cache          add a per-row "resumed" column to --sweep/
                           --tune tables: the first pipeline stage that
                           actually ran for that point ("flow-cache" =
                           whole compile reused, "stage-cache" = all
                           stage artifacts adopted, "parse" = cold). An
                           error without one of those modes
  --stage-cache-mb=N       bound the stage-artifact cache behind
                           incremental compilation to ~N MB (0 =
                           unbounded; default 64). An error without
                           --sweep/--tune
  --tune[=STRATEGY]        search the declared axes (or a default
                           unroll x sharing x decoupled space when no
                           --sweep is given) instead of printing every
                           row. STRATEGY: exhaustive (default) | random
                           | hillclimb. Prints evaluated points and the
                           Pareto frontier; deterministic for a fixed
                           seed and space (DESIGN.md §7)
  --strategy=NAME          same as --tune=NAME; requires --tune
  --seed=N                 random-strategy seed (default: 1)
  --samples=N              random-strategy distinct points (default: 16);
                           requires --strategy=random
  --max-steps=N            hill-climb move cap (default: 32); requires
                           --strategy=hillclimb
  --objectives=a,b,...     scoring objectives, all minimized: latency|
                           bram|dsp|lut|compile_ms (default: latency,bram)

Compile daemon (DESIGN.md §15):
  --serve                  run a long-lived compile daemon: many clients
                           share this one session's caches over a Unix
                           domain socket. Combines with --jobs,
                           --stage-cache-mb, and --cache-dir only (no
                           input file; clients send sources). SIGINT/
                           SIGTERM or a shutdown request drain running
                           jobs, cancel queued ones, and remove the
                           socket; a stale socket file left by a crash
                           is replaced on startup
  --socket=PATH            the daemon's listening socket (required with
                           --serve, an error without it)
  --connect=PATH           compile KERNEL.cfd through the daemon at PATH
                           instead of in-process; --emit/-o (and the
                           option flags above) apply, and
                           --diagnostics=json renders remote failures
                           exactly like local ones
  --status                 with --connect: print the daemon session's
                           statsReport() (same text single-shot mode
                           prints) instead of compiling
  --shutdown               with --connect: ask the daemon to drain and
                           exit
  --priority=low|normal|high  queue priority of the submitted request
                           (requires --connect; default normal);
                           --deadline-ms also applies to --connect

Distributed sweeps (DESIGN.md §16):
  --distribute=N           shard the --sweep cross product across N
                           local worker daemons forked for the run (each
                           serves the --serve protocol with its own
                           session) and merge the results —
                           byte-identical to the single-process sweep.
                           --jobs=N sets each worker's session threads
                           (default 1); --deadline-ms becomes the
                           per-chunk straggler deadline
  --workers=S1,S2,...      like --distribute, but dispatch to already
                           running daemons on these sockets instead of
                           spawning any (mutually exclusive with
                           --distribute; worker sessions must run
                           default options for identical results)

With --tune, --emit=json prints the JSON report (DESIGN.md §8) on
stdout and -o writes it to a file; --simulate=Ne makes the latency
objective include AXI transfer costs. With --sweep, --emit=json prints
the canonical sweep report ({schema, points, rows, frontier}) instead
of the table — the byte-identity surface distributed runs are diffed
against — and excludes --simulate/--explain-cache, whose columns the
report deliberately omits.

Exit codes: 0 success; 1 I/O or validation failure; 2 usage error;
3 compile diagnostics (malformed DSL, infeasible constraints; also a
--sweep/--tune cut off by --deadline-ms).
)";
  std::exit(0);
}

/// A usage error: one line naming it and a pointer to --help, exit 2.
[[noreturn]] void usage(const std::string& error) {
  std::cerr << "cfdc: " << error << "\n"
            << "run 'cfdc --help' for the flag reference\n";
  std::exit(2);
}

bool consumeValue(const std::string& arg, const std::string& prefix,
                  std::string& value) {
  if (arg.rfind(prefix, 0) != 0)
    return false;
  value = arg.substr(prefix.size());
  return true;
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

/// Applies one key=value to a variant through the shared core parser,
/// converting FlowError into a CLI usage error.
void applySweepValue(cfd::FlowOptions& options, const std::string& key,
                     const std::string& value) {
  try {
    cfd::applyTuneParam(options, key, value);
  } catch (const cfd::FlowError& e) {
    usage(e.what());
  }
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

CliOptions parseArgs(const std::vector<std::string>& args) {
  CliOptions options;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      help();
    } else if (consumeValue(arg, "--emit=", value)) {
      options.emit = value;
      options.emitExplicit = true;
    } else if (arg == "-o") {
      if (++i >= args.size())
        usage("-o requires a file name");
      options.outputPath = args[i];
    } else if (arg == "--no-sharing") {
      options.flow.memory.enableSharing = false;
      options.paramSpecs.emplace_back("sharing", "0");
    } else if (arg == "--coupled") {
      options.flow.memory.decoupled = false;
      options.paramSpecs.emplace_back("decoupled", "0");
    } else if (consumeValue(arg, "--m=", value)) {
      options.flow.system.memories = parseInt(value, "--m");
      options.paramSpecs.emplace_back("m", value);
    } else if (consumeValue(arg, "--k=", value)) {
      options.flow.system.kernels = parseInt(value, "--k");
      options.paramSpecs.emplace_back("k", value);
    } else if (consumeValue(arg, "--unroll=", value)) {
      options.flow.hls.unrollFactor = parseInt(value, "--unroll");
      options.paramSpecs.emplace_back("unroll", value);
    } else if (consumeValue(arg, "--opt-level=", value)) {
      applySweepValue(options.flow, "opt", value);
      options.paramSpecs.emplace_back("opt", value);
    } else if (arg == "--print-ir-before") {
      options.printIrBefore = true;
    } else if (arg == "--print-ir-after") {
      options.printIrAfter = true;
    } else if (consumeValue(arg, "--objective=", value)) {
      applySweepValue(options.flow, "objective", value);
      options.paramSpecs.emplace_back("objective", value);
    } else if (consumeValue(arg, "--layout=", value)) {
      applySweepValue(options.flow, "layout", value);
      options.paramSpecs.emplace_back("layout", value);
    } else if (consumeValue(arg, "--simulate=", value)) {
      options.simulateElements = parseNonNegativeInt(value, "--simulate");
    } else if (consumeValue(arg, "--sweep=", value)) {
      options.sweeps.push_back(parseSweepAxis(value));
    } else if (consumeValue(arg, "--jobs=", value)) {
      options.jobs = parseNonNegativeInt(value, "--jobs");
      options.jobsExplicit = true;
    } else if (consumeValue(arg, "--deadline-ms=", value)) {
      options.deadlineMs = parseNonNegativeInt(value, "--deadline-ms");
      options.deadlineMsExplicit = true;
    } else if (arg == "--explain-cache") {
      options.explainCache = true;
    } else if (consumeValue(arg, "--stage-cache-mb=", value)) {
      options.stageCacheMb = parseNonNegativeInt(value, "--stage-cache-mb");
      options.stageCacheMbExplicit = true;
    } else if (consumeValue(arg, "--cache-dir=", value)) {
      if (value.empty())
        usage("--cache-dir expects a directory path");
      options.cacheDir = value;
    } else if (arg == "--tune") {
      options.tune = true;
    } else if (consumeValue(arg, "--tune=", value)) {
      options.tune = true;
      try {
        options.strategy = cfd::searchStrategyByName(value);
      } catch (const cfd::FlowError& e) {
        usage(e.what());
      }
    } else if (consumeValue(arg, "--strategy=", value)) {
      try {
        options.strategy = cfd::searchStrategyByName(value);
      } catch (const cfd::FlowError& e) {
        usage(e.what());
      }
      options.tuneOnlyFlag = "--strategy";
    } else if (consumeValue(arg, "--seed=", value)) {
      options.seed =
          static_cast<std::uint64_t>(parseNonNegativeInt(value, "--seed"));
      options.tuneOnlyFlag = "--seed";
    } else if (consumeValue(arg, "--samples=", value)) {
      options.samples = static_cast<std::size_t>(
          parseNonNegativeInt(value, "--samples"));
      options.samplesExplicit = true;
      options.tuneOnlyFlag = "--samples";
    } else if (consumeValue(arg, "--max-steps=", value)) {
      options.maxSteps = static_cast<std::size_t>(
          parseNonNegativeInt(value, "--max-steps"));
      options.maxStepsExplicit = true;
      options.tuneOnlyFlag = "--max-steps";
    } else if (consumeValue(arg, "--objectives=", value)) {
      options.objectiveNames = splitCsv(value);
      if (options.objectiveNames.empty())
        usage("--objectives has no values");
      options.tuneOnlyFlag = "--objectives";
    } else if (arg == "--serve") {
      options.serve = true;
    } else if (consumeValue(arg, "--socket=", value)) {
      if (value.empty())
        usage("--socket expects a socket path");
      options.socketPath = value;
    } else if (consumeValue(arg, "--connect=", value)) {
      if (value.empty())
        usage("--connect expects a socket path");
      options.connectPath = value;
    } else if (arg == "--status") {
      options.statusRequest = true;
    } else if (arg == "--shutdown") {
      options.shutdownRequest = true;
    } else if (consumeValue(arg, "--priority=", value)) {
      if (value != "low" && value != "normal" && value != "high")
        usage("--priority expects low|normal|high (got '" + value + "')");
      options.priority = value;
    } else if (consumeValue(arg, "--distribute=", value)) {
      options.distribute = parseInt(value, "--distribute");
      if (options.distribute <= 0)
        usage("--distribute expects a positive worker count (got '" + value +
              "')");
      options.distributeExplicit = true;
    } else if (consumeValue(arg, "--workers=", value)) {
      options.workerSockets = splitCsv(value);
      if (options.workerSockets.empty())
        usage("--workers expects a comma-separated socket list");
    } else if (arg == "--validate") {
      options.validate = true;
    } else if (consumeValue(arg, "--diagnostics=", value)) {
      if (value != "json")
        usage("--diagnostics only supports json (got '" + value + "')");
      options.diagnosticsJson = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage("unknown option '" + arg + "'");
    } else if (options.inputPath.empty()) {
      options.inputPath = arg;
    } else {
      usage("multiple input files");
    }
  }
  // Every mode's axes pass the one validator before anything expands
  // them: a bad key or value, a repeated key, or a space over
  // cfd::kMaxSpacePoints is a usage error.
  {
    cfd::DiagnosticList diagnostics;
    if (!cfd::validateTuneAxes(options.sweeps, diagnostics))
      usage(diagnostics[0].message);
  }
  // Daemon modes first (DESIGN.md §15): --serve and --connect reject
  // every flag they would otherwise silently ignore, exactly like the
  // --jobs / strategy-flag guards below.
  if (options.serve && !options.connectPath.empty())
    usage("--serve and --connect are mutually exclusive (one process is "
          "either the daemon or a client)");
  if (options.serve) {
    if (options.socketPath.empty())
      usage("--serve requires --socket=PATH (the daemon needs a socket to "
            "listen on)");
    if (!options.inputPath.empty())
      usage("--serve takes no input file (clients submit sources over the "
            "socket)");
    if (options.tune || !options.sweeps.empty() || !options.tuneOnlyFlag.empty())
      usage("--serve cannot be combined with --sweep/--tune flags (daemon "
            "clients choose per request)");
    if (options.emitExplicit || !options.outputPath.empty() ||
        options.validate || options.simulateElements > 0 ||
        options.printIrBefore || options.printIrAfter ||
        options.diagnosticsJson)
      usage("--serve cannot be combined with single-shot flags (--emit, -o, "
            "--validate, --simulate, --print-ir-*, --diagnostics; daemon "
            "clients choose per request)");
    if (options.deadlineMsExplicit || options.explainCache)
      usage("--serve cannot be combined with --deadline-ms or "
            "--explain-cache (every daemon request is already a job; "
            "clients set priorities and deadlines per request)");
    if (options.statusRequest || options.shutdownRequest ||
        !options.priority.empty())
      usage("--status/--shutdown/--priority are client flags and require "
            "--connect=PATH");
    if (options.distributeExplicit || !options.workerSockets.empty())
      usage("--serve cannot be combined with --distribute/--workers (a "
            "daemon is a worker; the coordinator is a separate process)");
    return options;
  }
  if (!options.socketPath.empty())
    usage("--socket requires --serve (it names the daemon's listening "
          "socket; clients use --connect=PATH)");
  if (!options.connectPath.empty()) {
    if (options.statusRequest && options.shutdownRequest)
      usage("--status and --shutdown are mutually exclusive");
    if ((options.statusRequest || options.shutdownRequest) &&
        !options.inputPath.empty())
      usage("--status/--shutdown take no input file (they query the "
            "daemon, not a kernel)");
    if (!options.statusRequest && !options.shutdownRequest &&
        options.inputPath.empty())
      usage("--connect needs an input file to compile (or --status / "
            "--shutdown)");
    if (options.tune || !options.sweeps.empty() ||
        !options.tuneOnlyFlag.empty())
      usage("--connect only submits single compiles (run sweeps/tunes "
            "in-process; --cache-dir at the daemon's store shares its "
            "compiles)");
    if (options.jobsExplicit || options.explainCache ||
        options.stageCacheMbExplicit || !options.cacheDir.empty())
      usage("--jobs/--explain-cache/--stage-cache-mb/--cache-dir configure "
            "a session and belong to the daemon (--serve), not to "
            "--connect clients");
    if (options.validate || options.simulateElements > 0 ||
        options.printIrBefore || options.printIrAfter)
      usage("--validate/--simulate/--print-ir-* need the flow in-process "
            "and cannot be combined with --connect");
    if (options.emitExplicit && options.emit == "json")
      usage("--emit=json requires --tune or --sweep");
    if (options.distributeExplicit || !options.workerSockets.empty())
      usage("--connect submits one compile to one daemon; distributed "
            "sweeps coordinate their own connections (--distribute or "
            "--workers without --connect)");
    return options;
  }
  if (options.statusRequest)
    usage("--status requires --connect=PATH (it queries a running daemon)");
  if (options.shutdownRequest)
    usage("--shutdown requires --connect=PATH (it stops a running daemon)");
  if (!options.priority.empty())
    usage("--priority requires --connect (only daemon requests carry a "
          "queue priority; local sweeps/tunes schedule themselves)");

  if (options.inputPath.empty())
    usage("no input file");

  // Distributed sweeps (DESIGN.md §16): one coordinator, N worker
  // daemons. Every flag that configures the in-process session or its
  // output columns is meaningless here — refuse, never ignore.
  const bool distMode =
      options.distributeExplicit || !options.workerSockets.empty();
  if (distMode) {
    if (options.distributeExplicit && !options.workerSockets.empty())
      usage("--distribute and --workers are mutually exclusive (spawn "
            "fresh workers or use running ones, not both)");
    if (options.sweeps.empty())
      usage("--distribute/--workers require --sweep axes (they shard a "
            "sweep's design points)");
    if (options.tune)
      usage("--distribute/--workers cannot be combined with --tune "
            "(only sweeps shard into independent points)");
    if (options.validate || options.simulateElements > 0 ||
        options.explainCache)
      usage("--validate/--simulate/--explain-cache need the flows "
            "in-process and cannot be combined with --distribute/--workers");
    if (!options.cacheDir.empty() || options.stageCacheMbExplicit)
      usage("--cache-dir/--stage-cache-mb configure a worker's session; "
            "set them on the daemons (--serve), not on the coordinator");
    if (options.jobsExplicit && !options.workerSockets.empty())
      usage("--jobs sizes the workers --distribute spawns; daemons given "
            "via --workers own their pools already");
    if (options.emitExplicit && options.emit != "json")
      usage("--distribute/--workers print a table or --emit=json (got "
            "--emit=" + options.emit + ")");
  }

  // Refuse flag combinations that would otherwise be silently ignored.
  if (options.tune) {
    if (options.validate)
      usage("--tune cannot be combined with --validate");
    if (options.emitExplicit && options.emit != "json")
      usage("--tune only supports --emit=json (got --emit=" + options.emit +
            ")");
    // Strategy-specific knobs on the wrong strategy would be silently
    // ignored — refuse them, like the mode-only flags below.
    if (options.samplesExplicit &&
        options.strategy != cfd::SearchStrategy::Random)
      usage("--samples requires --strategy=random (only the random "
            "strategy draws samples)");
    if (options.maxStepsExplicit &&
        options.strategy != cfd::SearchStrategy::HillClimb)
      usage("--max-steps requires --strategy=hillclimb (only the "
            "hill-climb strategy takes steps)");
  } else {
    if (!options.tuneOnlyFlag.empty())
      usage(options.tuneOnlyFlag + " requires --tune");
    if (options.emitExplicit && options.emit == "json" &&
        options.sweeps.empty())
      usage("--emit=json requires --tune or --sweep");
    const bool sweepJson = !options.sweeps.empty() &&
                           options.emitExplicit && options.emit == "json";
    if (!options.sweeps.empty() && options.validate)
      usage("--sweep cannot be combined with --validate");
    if (!options.sweeps.empty() && options.emitExplicit && !sweepJson)
      usage("--sweep only supports --emit=json (got --emit=" +
            options.emit + "); the default output is the table");
    if (!options.sweeps.empty() && !options.outputPath.empty() && !sweepJson)
      usage("-o with --sweep requires --emit=json (the table prints to "
            "stdout)");
    if (sweepJson && options.simulateElements > 0)
      usage("--emit=json sweep reports carry no simulation columns; drop "
            "--simulate or the json emit");
    if (sweepJson && options.explainCache)
      usage("--emit=json sweep reports carry no cache provenance; drop "
            "--explain-cache or the json emit");
    if (options.jobsExplicit && options.sweeps.empty())
      usage("--jobs only applies to --sweep/--tune (single-shot compiles "
            "run on one thread)");
    if (options.explainCache && options.sweeps.empty())
      usage("--explain-cache only applies to --sweep/--tune (a single-shot "
            "compile has no cache to explain)");
    if (options.stageCacheMbExplicit && options.sweeps.empty())
      usage("--stage-cache-mb only applies to --sweep/--tune (a "
            "single-shot compile does not populate the stage cache)");
  }
  if (options.diagnosticsJson && (options.tune || !options.sweeps.empty()))
    usage("--diagnostics=json only applies to single-shot compiles "
          "(sweep/tune report per-point errors in their own output)");
  if ((options.printIrBefore || options.printIrAfter) &&
      (options.tune || !options.sweeps.empty()))
    usage("--print-ir-before/--print-ir-after only apply to single-shot "
          "compiles (a sweep/tune has one IR dump per variant)");
  if (options.deadlineMsExplicit && !options.tune && options.sweeps.empty())
    usage("--deadline-ms applies to --sweep/--tune (the run's deadline), "
          "--connect (the request's), or a distributed sweep (the "
          "per-chunk straggler deadline)");
  return options;
}

/// Applies --stage-cache-mb to the session the sweep/tune will compile
/// through.
void applyStageCacheBound(const CliOptions& options, cfd::Session& session) {
  if (!options.stageCacheMbExplicit)
    return;
  if (cfd::StageCache* cache = session.stageCache())
    cache->setCapacityBytes(static_cast<std::size_t>(options.stageCacheMb)
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
      .workers(options.jobs)
      .simulateElements(options.simulateElements);
  for (const cfd::TuneAxis& axis : options.sweeps)
    request.axis(axis.key, axis.values);

  const cfd::Job<cfd::SweepResult> job = session.submitSweep(
      std::move(request),
      {.deadlineMillis = static_cast<double>(options.deadlineMs)});
  if (const int status = awaitJob(job))
    return status;
  const cfd::SweepResult& swept = *job.wait();
  if (options.emitExplicit && options.emit == "json")
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
      .samples(options.samples)
      .maxSteps(options.maxSteps)
      .objectives(options.objectiveNames)
      .workers(options.jobs)
      .simulateElements(options.simulateElements);
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
  if (options.emit == "json" && options.emitExplicit) {
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

std::string report(const cfd::Flow& flow) {
  std::ostringstream os;
  os << "== tensor IR ==\n" << flow.program().str();
  os << "\n== schedule ==\n" << flow.schedule().str();
  os << "\n== HLS ==\n" << flow.kernelReport().str();
  os << "\n== memory plan ==\n" << flow.memoryPlan().str(flow.program());
  os << "\n== system ==\n" << flow.systemDesign().str();
  return os.str();
}

/// One --emit kind: its Artifacts flag and the CompileResult accessor
/// that returns the materialized text ("report" is the null entry —
/// it is assembled from the flow instead).
struct EmitKind {
  const char* name;
  cfd::Artifacts artifact;
  const std::string& (cfd::CompileResult::*text)() const;
};

constexpr EmitKind kEmitKinds[] = {
    {"c", cfd::Artifacts::CCode, &cfd::CompileResult::cCode},
    {"mnemosyne", cfd::Artifacts::Mnemosyne,
     &cfd::CompileResult::mnemosyneConfig},
    {"host", cfd::Artifacts::HostCode, &cfd::CompileResult::hostCode},
    {"dot", cfd::Artifacts::CompatibilityDot,
     &cfd::CompileResult::compatibilityDot},
};

int runSingleShot(const CliOptions& options, cfd::Session& session,
                  const std::string& source) {
  // Validate --emit before compiling: an unknown artifact is a usage
  // error, not a compile failure.
  const EmitKind* emitKind = nullptr;
  for (const EmitKind& kind : kEmitKinds)
    if (options.emit == kind.name)
      emitKind = &kind;
  if (emitKind == nullptr && options.emit != "report")
    usage("unknown artifact '" + options.emit + "'");

  cfd::CompileRequest request(source);
  request.options(options.flow);
  if (emitKind != nullptr)
    request.materialize(emitKind->artifact);
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

  const std::string artifact = emitKind != nullptr
                                   ? ((*compiled).*(emitKind->text))()
                                   : report(flow);

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
  cfd::Session session(cfd::SessionOptions{.workers = options.jobs,
                                           .cacheDir = options.cacheDir});
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

  // A --connect compile mirrors runSingleShot: validate --emit up
  // front (usage error, not a daemon round-trip), then ask the daemon
  // to materialize exactly that artifact.
  bool knownEmit = options.emit == "report";
  for (const EmitKind& kind : kEmitKinds)
    if (options.emit == kind.name)
      knownEmit = true;
  if (!knownEmit)
    usage("unknown artifact '" + options.emit + "'");

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
  if (options.distributeExplicit) {
    char dirTemplate[] = "/tmp/cfdc-dist-XXXXXX";
    if (::mkdtemp(dirTemplate) == nullptr) {
      std::cerr << "cfdc: cannot create a socket directory in /tmp\n";
      return kExitIo;
    }
    socketDir = dirTemplate;
    cfd::dist::SpawnOptions spawn;
    spawn.workers = options.distribute;
    spawn.sessionWorkers = options.jobsExplicit ? options.jobs : 1;
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
    std::cerr << "cfdc: distributed sweep failed:\n";
    for (const cfd::Diagnostic& diagnostic : swept.diagnostics())
      std::cerr << "  " << diagnostic.str() << "\n";
    return kExitDiagnostics;
  }

  if (options.emitExplicit && options.emit == "json")
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
  if (options.serve)
    return runServe(options);
  if (!options.connectPath.empty() &&
      (options.statusRequest || options.shutdownRequest))
    return runConnect(options, "");

  std::ifstream input(options.inputPath);
  if (!input) {
    std::cerr << "cfdc: cannot open '" << options.inputPath << "'\n";
    return kExitIo;
  }
  std::stringstream source;
  source << input.rdbuf();

  if (!options.connectPath.empty())
    return runConnect(options, source.str());

  // Distributed sweeps dispatch before the local Session exists:
  // --distribute forks worker processes, which is only safe while this
  // process has no pool threads yet.
  if (options.distributeExplicit || !options.workerSockets.empty())
    return runDistribute(options, source.str());

  // One session per invocation (DESIGN.md §10): --sweep/--tune and the
  // single-shot path all compile through the same caches and pool.
  // --jobs sizes the pool itself (0 = auto), so an explicit request
  // above hardware_concurrency is honored, not clamped.
  cfd::Session session(cfd::SessionOptions{.workers = options.jobs,
                                           .cacheDir = options.cacheDir});

  try {
    if (options.tune)
      return runTune(options, session, source.str());
    if (!options.sweeps.empty())
      return runSweep(options, session, source.str());
    return runSingleShot(options, session, source.str());
  } catch (const cfd::FlowError& e) {
    // Post-compile failures (--validate / --simulate assertions).
    std::cerr << "cfdc: " << e.what() << "\n";
    return kExitIo;
  }
}
