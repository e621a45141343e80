// perfbench — the repository benchmark (perfbench/README.md).
//
// Drives one of four closed-loop workloads through the library's public
// entry points, checks every response against the recorded golden
// outcomes, and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones, measured with no
// span recording; with --trace 1 a traced run reports the per-layer
// ones and writes its spans as Chrome trace-event JSON.
//
//   perfbench --workload cold_compile|disk_restart|daemon_explore|dist_sweep
//             --seed N --seconds S --trace 0|1 [--golden FILE]
//             [--no-stage-cache] [--empty-cache] [--dist-workers W]
//   perfbench --record FILE    (re-records the golden outcomes)
#include "Inputs.h"
#include "Trace.h"

#include "core/Session.h"
#include "core/Tuner.h"
#include "dist/Coordinator.h"
#include "dist/WorkerPoolSpawner.h"
#include "eval/Evaluator.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "sim/PlatformSim.h"
#include "store/ArtifactStore.h"
#include "support/Error.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include <fcntl.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

// ---------------------------------------------------------------------
// Configuration and shared bookkeeping

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string golden = "perfbench/golden.tsv";
  std::string record;
  std::string runDir = ".bench_run"; // this run's files go to <runDir>/<pid>
  bool noStageCache = false; // FlowCache::setStageCache(nullptr)
  bool emptyCache = false;   // disk_restart without the pre-filled store
  int distWorkers = 0;       // 0 = one per core, at most 4
};

/// Client threads, worker processes and pool threads: one per core, at
/// most four.
int parallelism() {
  const unsigned cores = std::thread::hardware_concurrency();
  return static_cast<int>(std::clamp(cores, 1u, 4u));
}

/// daemon_explore's clients and the server's worker pool: two of each on
/// four cores (set-up spreads them over the cores, the timed phase runs
/// them on one core at a time: CoreRotation). Four and four, plus a reader
/// and a responder thread per connection, oversubscribed four cores (five
/// such runs spread by 28%).
int daemonHalf() { return std::max(1, parallelism() / 2); }

/// Runs every thread of this process, and every thread started from them
/// meanwhile, on one core at a time, moving them all on to the next core
/// every kCoreTurn, until destroyed. The timed phases of cold_compile,
/// disk_restart and daemon_explore (each one process) run this way, for
/// two reasons measured on a 4-core VM:
/// - daemon_explore hands each 0.2 ms request off client -> reader -> pool
///   worker -> responder -> client, and a handoff to a thread on another,
///   idle core waits for the host to wake that core. That wait, not the
///   program, decided unpinned runs (one client: 1,077 points/s idle and
///   3,197 with two busy loops keeping the other cores awake; ten-seed
///   spreads up to 70%). On one core each handoff is a context switch.
/// - The host's speed for each core drifts over seconds, independently
///   per core (a fixed loop on each core: per-core variation 0.09-0.13,
///   of the four together 0.06). Staying on one core, a run sees only its
///   drift; turning over all cores, it averages them (points_per_s spread
///   over five or six seeds on a fixed core and turning: daemon_explore
///   0.117 and 0.055, cold_compile 0.117 and 0.061).
/// Set-up stays unpinned: the daemon's warm-up requests are cold compiles
/// that two cores share out, and pinned it ran slower and spread more
/// (0.44-0.69 s against 0.35-0.40 s).
class CoreRotation {
public:
  /// Starts on the core the caller is running on.
  CoreRotation() {
    CPU_ZERO(&original_);
    const int cpu = ::sched_getcpu();
    if (cpu < 0 || ::sched_getaffinity(0, sizeof original_, &original_) != 0)
      return;
    for (int core = 0; core < CPU_SETSIZE; ++core)
      if (CPU_ISSET(core, &original_))
        cores_.push_back(core);
    const auto at = std::find(cores_.begin(), cores_.end(), cpu);
    at_ = at == cores_.end() ? 0 : static_cast<std::size_t>(at - cores_.begin());
    pinned_ = applyToEveryThread(cores_[at_]);
    if (!pinned_)
      applyToEveryThread(original_); // undo a partial pinning
    else if (cores_.size() > 1)
      rotator_ = std::thread([this] { rotate(); });
  }
  ~CoreRotation() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_one();
    if (rotator_.joinable())
      rotator_.join();
    if (pinned_)
      applyToEveryThread(original_);
  }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  /// One line for the run's notes.
  std::string describe() const {
    return pinned_ ? "timed phase on one core at a time, turning over " +
                         std::to_string(cores_.size()) + " cores"
                   : "timed phase NOT pinned: sched_setaffinity failed";
  }

private:
  void rotate() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!wake_.wait_for(lock, kCoreTurn, [this] { return stop_; })) {
      at_ = (at_ + 1) % cores_.size();
      applyToEveryThread(cores_[at_]);
    }
  }
  static bool applyToEveryThread(int core) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(core, &one);
    return applyToEveryThread(one);
  }
  /// Affinity is per thread, so each task of the process is set; one that
  /// exits meanwhile (ESRCH) needs none.
  static bool applyToEveryThread(const cpu_set_t& mask) {
    std::error_code error;
    bool applied = false;
    for (const fs::directory_entry& task :
         fs::directory_iterator("/proc/self/task", error)) {
      const pid_t tid = static_cast<pid_t>(
          std::strtol(task.path().filename().c_str(), nullptr, 10));
      if (::sched_setaffinity(tid, sizeof mask, &mask) == 0)
        applied = true;
      else if (errno != ESRCH)
        return false;
    }
    return applied && !error;
  }

  static constexpr std::chrono::milliseconds kCoreTurn{500};
  cpu_set_t original_;
  std::vector<int> cores_;
  std::size_t at_ = 0;
  bool pinned_ = false;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;
  std::thread rotator_;
};

constexpr int kSetupRepeats = 3;
/// Metric names and units come from here (run from the repository root).
constexpr const char* kSpecPath = "BENCHMARK.json";
constexpr std::int64_t kSimElements = 50000;
constexpr double kAnchorTolerance = 1e-12;

/// The traced run alternates traced and untraced requests, flipping the
/// parity every pass over the universe, so each point is traced in every
/// other pass and the two halves measure the same multiset of requests:
/// their latency difference is the tracing overhead.
bool tracedTurn(std::uint64_t request, std::uint64_t pass) {
  const std::uint64_t position = request - 1; // requests count from 1
  return (position + position / pass) % 2 == 1;
}

/// What one workload run measured.
struct Run {
  int clients = 1;
  std::vector<double> latencies;       // untraced requests, ms
  std::vector<double> tracedLatencies; // traced requests, ms
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t points = 0; // design points delivered with a verified outcome
  double wallMs = 0;       // timed phase
  double busyMs = 0;       // sum of every request's latency
  double cpuMs = 0;        // user+sys of this process and reaped children
  std::vector<double> setupSeconds;
  std::vector<Span> spans;
  std::map<std::string, double> layers; // per-layer metrics
  std::vector<std::string> failures;
  std::vector<const Point*> issued; // every point requested, in order
  std::int64_t infeasible = 0;
  std::vector<std::string> notes; // printed before the result line
};

/// Thread-local slice of a Run, merged after the clients join.
struct ClientLog {
  std::vector<double> latencies;
  std::vector<double> tracedLatencies;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::int64_t points = 0;
  std::int64_t infeasible = 0;
  double busyMs = 0;
  std::vector<std::string> failures;
  std::vector<const Point*> issued;

  void merge(Run& run) const {
    run.latencies.insert(run.latencies.end(), latencies.begin(),
                         latencies.end());
    run.tracedLatencies.insert(run.tracedLatencies.end(),
                               tracedLatencies.begin(), tracedLatencies.end());
    run.attempted += attempted;
    run.failed += failed;
    run.points += points;
    run.infeasible += infeasible;
    run.busyMs += busyMs;
    for (const std::string& failure : failures)
      if (run.failures.size() < 8)
        run.failures.push_back(failure);
    run.issued.insert(run.issued.end(), issued.begin(), issued.end());
  }
};

double cpuMillisNow() {
  double total = 0;
  for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage usage{};
    ::getrusage(who, &usage);
    total += usage.ru_utime.tv_sec * 1e3 + usage.ru_utime.tv_usec / 1e3 +
             usage.ru_stime.tv_sec * 1e3 + usage.ru_stime.tv_usec / 1e3;
  }
  return total;
}

/// Peak RSS of this process (VmHWM: unlike ru_maxrss it does not carry
/// over the launcher's peak across exec) or of its largest reaped child.
double peakRssMb() {
  long selfKb = 0;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      selfKb = std::strtol(line.c_str() + 6, nullptr, 10);
  rusage children{};
  ::getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(selfKb, children.ru_maxrss)) / 1024.0;
}

/// Checks one outcome against the golden file; a missing golden entry is
/// a failure too (the request cannot be verified).
bool verify(const Golden& golden, const std::string& key,
            const std::string& outcome, ClientLog& log) {
  ++log.attempted;
  const std::string* expected = golden.find(key);
  if (expected && *expected == outcome) {
    if (outcome.rfind("err ", 0) == 0)
      ++log.infeasible;
    return true;
  }
  ++log.failed;
  if (log.failures.size() < 4)
    log.failures.push_back(key + ": got '" + outcome.substr(0, 160) +
                           "' expected '" +
                           (expected ? expected->substr(0, 160) : "<none>") +
                           "'");
  return false;
}

const char* const kStageLayer[cfd::kStageCount] = {
    "dsl.parse",       "ir.lower",    "ir.optimize",
    "sched.schedule",  "sched.reschedule", "mem.liveness",
    "mem.memory_plan", "hls.analyze", "sysgen.generate"};

cfd::FlowOptions optionsFor(const Point& point) {
  cfd::FlowOptions options;
  for (const auto& [key, value] : point.params)
    cfd::applyTuneParam(options, key, value);
  cfd::normalizeOptions(options);
  return options;
}

cfd::CompileRequest compileRequestFor(const Point& point,
                                      bool artifacts = true) {
  cfd::CompileRequest request(point.source());
  for (const auto& [key, value] : point.params)
    request.set(key, value);
  if (artifacts)
    request.materialize(cfd::Artifacts::CCode | cfd::Artifacts::HostCode |
                        cfd::Artifacts::Mnemosyne);
  return request;
}

std::string outcomeOf(const cfd::Expected<cfd::CompileResult>& result) {
  if (!result.ok())
    return errOutcome(result.errorText());
  return okOutcome(artifactDigest(result->cCode(), result->hostCode(),
                                  result->mnemosyneConfig()));
}

// ---------------------------------------------------------------------
// cold_compile and disk_restart: one caller, one fresh Session per request

/// Stage-at-a-time replay of one request with a span per layer. With a
/// store, the entry is opened and loaded directly, then adopted.
std::string tracedCompile(const Point& point, const std::string& storeDir,
                          Tracer& tracer, Run& run) {
  std::unique_ptr<cfd::store::ArtifactStore> store;
  if (!storeDir.empty()) {
    ScopedSpan span(&tracer, "store.open");
    store = std::make_unique<cfd::store::ArtifactStore>(
        cfd::store::ArtifactStoreOptions{.root = storeDir,
                                         .capacityBytes = 0});
  }
  cfd::FlowOptions options;
  std::array<std::uint64_t, cfd::kStageCount> keys{};
  auto stageCache = std::make_unique<cfd::StageCache>();
  {
    ScopedSpan span(&tracer, "core.session");
    options = optionsFor(point);
    keys = cfd::computeStageKeys(point.source(), options);
  }
  std::shared_ptr<const cfd::StageCacheEntry> entry;
  if (store) {
    ScopedSpan span(&tracer, "store.load");
    for (int s = cfd::kStageCount - 1; s >= 0 && !entry; --s)
      entry = store->load(keys[s], static_cast<cfd::Stage>(s), point.source(),
                          options);
  }
  std::shared_ptr<cfd::Pipeline> pipeline;
  {
    ScopedSpan span(&tracer, "core.adopt");
    if (entry)
      stageCache->insert(keys[static_cast<int>(entry->stage)], entry->stage,
                         entry->artifacts, point.source(), options);
    pipeline = std::make_shared<cfd::Pipeline>(point.source(), options,
                                               stageCache.get());
    if (entry)
      pipeline->require(entry->stage);
  }
  if (entry) {
    run.layers["store.hits"] += 1;
    run.layers["store.entry_kb"] +=
        static_cast<double>(fs::file_size(
            store->entryPath(keys[static_cast<int>(entry->stage)]))) /
        1024.0;
  }
  if (store)
    run.layers["store.verify_failures"] +=
        static_cast<double>(store->stats().verifyFailures);
  std::string outcome;
  try {
    for (int s = 0; s < cfd::kStageCount; ++s) {
      ScopedSpan span(&tracer, kStageLayer[s]);
      pipeline->require(static_cast<cfd::Stage>(s));
    }
  } catch (const cfd::FlowError& error) {
    if (const auto* diagnosed = dynamic_cast<const cfd::DiagnosedError*>(&error))
      outcome = errOutcome(diagnosed->diagnostics().str());
    else
      outcome = errOutcome(error.what());
  }
  int ran = 0;
  for (int s = 0; s < cfd::kStageCount; ++s)
    ran += pipeline->provenance(static_cast<cfd::Stage>(s)) ==
                   cfd::StageProvenance::Ran
               ? 1
               : 0;
  run.layers["core.stages_run_per_point"] += ran;
  if (outcome.empty()) {
    std::string c, host, mnemosyne;
    {
      ScopedSpan span(&tracer, "codegen.emit");
      const cfd::Flow flow(pipeline);
      c = flow.cCode();
      host = flow.hostCode();
      mnemosyne = flow.mnemosyneConfig();
    }
    const cfd::ir::OptimizeReport& report = pipeline->optimizeReport();
    run.layers["ir.ops_removed"] += report.opsBefore - report.opsAfter;
    run.layers["mem.bram36"] += pipeline->memoryPlan().totalBram36();
    run.layers["codegen.artifact_kb"] +=
        static_cast<double>(c.size() + host.size() + mnemosyne.size()) /
        1024.0;
    outcome = okOutcome(artifactDigest(c, host, mnemosyne));
  }
  {
    ScopedSpan span(&tracer, "core.session");
    pipeline.reset();
    stageCache.reset();
    store.reset();
  }
  return outcome;
}

/// Publishes every point of the universe into `dir` through one Session
/// (the write path disk_restart's set-up pays). Returns publishes.
std::int64_t fillStore(const std::string& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  cfd::SessionOptions options;
  options.workers = parallelism();
  options.cacheDir = dir;
  options.artifactStoreBytes = 0;
  cfd::Session session(options);
  std::vector<cfd::CompileRequest> requests;
  for (const Point& point : compileUniverse())
    requests.push_back(compileRequestFor(point));
  for (auto& job : session.submitBatch(std::move(requests)))
    job.wait();
  return session.stats().artifactStore.publishes;
}

Run runCompileStream(const Config& config, const Golden& golden, bool disk) {
  Run run;
  const std::string storeDir = config.runDir + "/store";
  cfd::SessionOptions sessionOptions;
  sessionOptions.workers = 1;
  sessionOptions.artifactStoreBytes = 0;
  if (disk)
    sessionOptions.cacheDir = storeDir;

  auto oneRequest = [&](const Point& point) {
    cfd::Session session(sessionOptions);
    if (config.noStageCache)
      session.flowCache().setStageCache(nullptr);
    return outcomeOf(session.compile(compileRequestFor(point)));
  };

  // Set-up: fixed, seed-independent work, repeated; the median is
  // reported. disk_restart publishes the whole universe; cold_compile
  // warms the allocator and code with every 8th point of the universe.
  double publishMs = 0;
  std::int64_t publishes = 0;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const Clock::time_point start = Clock::now();
    if (disk) {
      if (config.emptyCache) {
        fs::remove_all(storeDir);
        fs::create_directories(storeDir);
      } else {
        publishes = fillStore(storeDir);
      }
      publishMs = millisSince(start);
    } else {
      for (std::size_t i = 0; i < compileUniverse().size(); i += 8)
        oneRequest(compileUniverse()[i]);
    }
    run.setupSeconds.push_back(millisSince(start) / 1000.0);
    if (disk) {
      // Write the store back (untimed) before the next fill or the timed
      // phase, so neither competes with the kernel flushing these writes.
      const int fd = ::open(storeDir.c_str(), O_RDONLY | O_DIRECTORY);
      if (fd >= 0) {
        ::syncfs(fd);
        ::close(fd);
      }
    }
  }
  if (disk) {
    const cfd::store::ArtifactStore store({.root = storeDir,
                                           .capacityBytes = 0});
    run.layers["store.disk_mb"] =
        static_cast<double>(store.diskBytes()) / (1024.0 * 1024.0);
    run.layers["input.store_entries"] =
        static_cast<double>(store.entryCount());
    run.layers["store.publish_ms"] =
        publishes > 0 ? publishMs / static_cast<double>(publishes) : 0.0;
  }

  ShuffledStream<Point> stream(compileUniverse(), config.seed);
  ClientLog log;
  Tracer tracer(0);
  std::optional<CoreRotation> rotation(std::in_place);
  run.notes.push_back(rotation->describe());
  const double cpuStart = cpuMillisNow();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  // Whole passes over the shuffled universe, so every run measures the
  // same multiset of requests and the seed only changes their order.
  const std::uint64_t pass = compileUniverse().size();
  std::uint64_t request = 0;
  while (Clock::now() < deadline || request % pass != 0) {
    const Point& point = stream.next();
    ++request;
    const bool traced = config.trace && tracedTurn(request, pass);
    if (disk && config.emptyCache) {
      // Every restart finds an empty cache dir.
      fs::remove_all(storeDir);
      fs::create_directories(storeDir);
    }
    std::string outcome;
    const Clock::time_point sent = Clock::now();
    if (traced) {
      tracer.setRequest(request);
      ScopedSpan span(&tracer, "request");
      outcome = tracedCompile(point, disk ? storeDir : std::string(), tracer,
                              run);
    } else {
      outcome = oneRequest(point);
    }
    const double latency = millisSince(sent);
    (traced ? log.tracedLatencies : log.latencies).push_back(latency);
    log.busyMs += latency;
    log.issued.push_back(&point);
    if (verify(golden, point.key(), outcome, log))
      ++log.points;
  }
  run.wallMs = millisSince(start);
  run.cpuMs = cpuMillisNow() - cpuStart;
  rotation.reset();
  log.merge(run);
  run.spans = tracer.spans();
  if (config.trace) {
    const double traced = static_cast<double>(run.tracedLatencies.size());
    for (const char* name :
         {"store.hits", "store.entry_kb", "store.verify_failures",
          "core.stages_run_per_point", "ir.ops_removed", "mem.bram36",
          "codegen.artifact_kb"})
      run.layers[name] = traced > 0 ? run.layers[name] / traced : 0.0;
    // store.entry_kb is per loaded entry, not per request.
    if (run.layers["store.hits"] > 0)
      run.layers["store.entry_kb"] /= run.layers["store.hits"];
  }
  return run;
}

// ---------------------------------------------------------------------
// daemon_explore: an in-process serve::Server over one Session, up to
// nproc client connections with Zipf-popular points

struct DaemonSample {
  std::string requestLine;
  std::string responseLine;
};

cfd::serve::Request daemonRequest(const Point& point, std::int64_t id) {
  cfd::serve::Request request;
  request.kind = cfd::serve::RequestKind::Compile;
  request.id = id;
  request.source = point.source();
  request.params = point.params;
  request.artifacts = {"c", "host", "mnemosyne"};
  return request;
}

std::string responseOutcome(const cfd::serve::Response& response) {
  if (!response.ok)
    return errOutcome(response.diagnostics.str());
  const cfd::json::Value& artifacts = response.result.at("artifacts");
  return okOutcome(artifactDigest(artifacts.at("c").asString(),
                                  artifacts.at("host").asString(),
                                  artifacts.at("mnemosyne").asString()));
}

struct Daemon {
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  std::unique_ptr<cfd::Session> session;
  std::unique_ptr<cfd::serve::Server> server;
  std::vector<cfd::serve::Client> clients;
  std::vector<std::unique_ptr<ZipfStream>> streams;

  ~Daemon() { stop(); }
  void stop() {
    clients.clear();
    if (server) {
      server->requestStop();
      server->join();
    }
    server.reset();
    session.reset();
  }
};

constexpr int kWarmupPerClient = 200;

bool startDaemon(const Config& config, const Golden& golden, Daemon& daemon,
                 std::string& error) {
  cfd::SessionOptions options;
  options.workers = daemonHalf();
  daemon.session = std::make_unique<cfd::Session>(options);
  if (config.noStageCache)
    daemon.session->flowCache().setStageCache(nullptr);
  const std::string socket = config.runDir + "/daemon.sock";
  daemon.server = std::make_unique<cfd::serve::Server>(
      *daemon.session, cfd::serve::ServerOptions{.socketPath = socket});
  const cfd::Expected<bool> started = daemon.server->start();
  if (!started.ok()) {
    error = started.errorText();
    return false;
  }
  const int clients = daemonHalf();
  for (int c = 0; c < clients; ++c) {
    cfd::Expected<cfd::serve::Client> client =
        cfd::serve::Client::connect(socket);
    if (!client.ok()) {
      error = client.errorText();
      return false;
    }
    daemon.clients.push_back(std::move(*client));
    daemon.streams.push_back(
        std::make_unique<ZipfStream>(daemonUniverse(), config.seed, c));
  }
  // Warm-up, concurrently and verified: every point of the universe once
  // (the same work for every seed), then each client's first requests so
  // the hot points of this seed sit in the flow cache.
  std::vector<std::thread> threads;
  std::vector<ClientLog> logs(clients);
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      auto call = [&](const Point& point) {
        const cfd::Expected<cfd::serve::Response> response =
            daemon.clients[c].call(
                daemonRequest(point, daemon.clients[c].nextId()));
        verify(golden, point.key(),
               response.ok() ? responseOutcome(*response)
                             : errOutcome(response.errorText()),
               logs[c]);
      };
      const std::vector<Point>& universe = daemonUniverse();
      for (std::size_t i = c; i < universe.size(); i += clients)
        call(universe[i]);
      for (int i = 0; i < kWarmupPerClient; ++i)
        call(daemon.streams[c]->next());
    });
  for (std::thread& thread : threads)
    thread.join();
  for (const ClientLog& log : logs)
    if (log.failed > 0) {
      error = "warm-up response mismatch: " + log.failures.front();
      return false;
    }
  return true;
}

Run runDaemon(const Config& config, const Golden& golden) {
  Run run;
  std::unique_ptr<Daemon> fresh;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    fresh.reset();
    fresh = std::make_unique<Daemon>();
    const Clock::time_point start = Clock::now();
    std::string error;
    if (!startDaemon(config, golden, *fresh, error)) {
      std::cerr << "perfbench: daemon set-up failed: " << error << "\n";
      std::exit(2);
    }
    run.setupSeconds.push_back(millisSince(start) / 1000.0);
  }
  Daemon& daemon = *fresh;
  const int clients = static_cast<int>(daemon.clients.size());
  run.clients = clients;
  // Until return, after the daemon has stopped; the post-run checks use
  // every core again.
  const CoreRotation rotation;
  run.notes.push_back(rotation.describe());

  struct TracedSample {
    double rttMs = 0;
    double compileMs = 0;
    double responseKb = 0;
    bool cacheHit = false;
  };
  std::vector<ClientLog> logs(clients);
  std::vector<std::unique_ptr<Tracer>> tracers;
  std::vector<std::vector<TracedSample>> samples(clients);
  std::vector<std::vector<DaemonSample>> lines(clients);
  for (int c = 0; c < clients; ++c)
    tracers.push_back(std::make_unique<Tracer>(c + 1));

  const cfd::Session::Stats before = daemon.session->stats();
  const double cpuStart = cpuMillisNow();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c)
    threads.emplace_back([&, c] {
      cfd::serve::Client& client = daemon.clients[c];
      Tracer& tracer = *tracers[c];
      ClientLog& log = logs[c];
      std::uint64_t request = 0;
      while (Clock::now() < deadline) {
        const Point& point = daemon.streams[c]->next();
        ++request;
        const bool traced = config.trace && request % 2 == 0;
        const Clock::time_point sent = Clock::now();
        cfd::serve::Request message = daemonRequest(point, client.nextId());
        std::optional<cfd::Expected<cfd::serve::Response>> response;
        std::string requestLine;
        double rttMs = 0;
        if (traced) {
          tracer.setRequest((static_cast<std::uint64_t>(c) << 32) | request);
          ScopedSpan span(&tracer, "request");
          {
            ScopedSpan encode(&tracer, "serve.encode");
            requestLine = message.encode();
          }
          ScopedSpan rtt(&tracer, "serve.rtt");
          const Clock::time_point call = Clock::now();
          response.emplace(client.call(std::move(message)));
          rttMs = millisSince(call);
        } else {
          response.emplace(client.call(std::move(message)));
        }
        const double latency = millisSince(sent);
        (traced ? log.tracedLatencies : log.latencies).push_back(latency);
        log.busyMs += latency;
        log.issued.push_back(&point);
        const std::string outcome = response->ok()
                                        ? responseOutcome(**response)
                                        : errOutcome(response->errorText());
        if (verify(golden, point.key(), outcome, log))
          ++log.points;
        if (traced && response->ok() && (*response)->ok) {
          const cfd::serve::Response& r = **response;
          std::string responseLine = r.encode();
          samples[c].push_back({rttMs, r.result.at("compile_ms").asDouble(),
                                static_cast<double>(responseLine.size()) /
                                    1024.0,
                                r.result.at("cache_hit").asBool()});
          if (lines[c].size() < 256)
            lines[c].push_back({std::move(requestLine),
                                std::move(responseLine)});
        }
      }
    });
  for (std::thread& thread : threads)
    thread.join();
  run.wallMs = millisSince(start);
  run.cpuMs = cpuMillisNow() - cpuStart;
  const cfd::Session::Stats after = daemon.session->stats();
  for (int c = 0; c < clients; ++c) {
    logs[c].merge(run);
    run.spans.insert(run.spans.end(), tracers[c]->spans().begin(),
                     tracers[c]->spans().end());
  }

  auto share = [](std::int64_t part, std::int64_t whole) {
    return whole > 0 ? static_cast<double>(part) / static_cast<double>(whole)
                     : 0.0;
  };
  const std::int64_t flowHits = after.flowCache.hits - before.flowCache.hits;
  const std::int64_t flowMisses =
      after.flowCache.misses - before.flowCache.misses;
  const std::int64_t stageHits =
      after.stageCache.hits - before.stageCache.hits;
  const std::int64_t stageMisses =
      after.stageCache.misses - before.stageCache.misses;
  run.layers["core.flowcache.hit_share"] =
      share(flowHits, flowHits + flowMisses);
  run.layers["core.flowcache.inflight_joins"] = static_cast<double>(
      after.flowCache.inFlightJoins - before.flowCache.inFlightJoins);
  run.layers["core.flowcache.evictions"] = static_cast<double>(
      after.flowCache.evictions - before.flowCache.evictions);
  run.layers["core.stagecache.hit_share"] =
      share(stageHits, stageHits + stageMisses);
  run.layers["core.stages_run_per_point"] =
      run.points > 0 ? static_cast<double>(stageMisses) /
                           static_cast<double>(run.points)
                     : 0.0;

  if (config.trace) {
    // Codec cost, replayed on this thread: the request and response
    // lines through parse and encode, as the two ends do them. The wire
    // form is canonical, so each line must encode back to itself.
    std::int64_t replays = 0;
    double codecMs = 0;
    for (const auto& clientLines : lines)
      for (const DaemonSample& sample : clientLines) {
        const Clock::time_point t0 = Clock::now();
        const cfd::Expected<cfd::serve::Request> request =
            cfd::serve::Request::parse(sample.requestLine);
        const cfd::Expected<cfd::serve::Response> response =
            cfd::serve::Response::parse(sample.responseLine);
        const bool canonical =
            request.ok() && response.ok() &&
            request->encode() == sample.requestLine &&
            response->encode() == sample.responseLine;
        codecMs += millisSince(t0);
        ++replays;
        ++run.attempted;
        if (!canonical) {
          ++run.failed;
          if (run.failures.size() < 8)
            run.failures.push_back("wire line does not round-trip: " +
                                   sample.requestLine.substr(0, 120));
        }
      }
    double rtt = 0, compile = 0, kb = 0, hitCompile = 0;
    std::int64_t n = 0, hits = 0;
    for (const auto& clientSamples : samples)
      for (const TracedSample& sample : clientSamples) {
        rtt += sample.rttMs;
        compile += sample.compileMs;
        kb += sample.responseKb;
        ++n;
        if (sample.cacheHit) {
          hitCompile += sample.compileMs;
          ++hits;
        }
      }
    const double count = std::max<double>(1, static_cast<double>(n));
    const double codec =
        replays > 0 ? codecMs / static_cast<double>(replays) : 0.0;
    // Over successful responses: an infeasible point's error response
    // carries no compile_ms to split its round trip by.
    run.layers["serve.rtt_ms"] = rtt / count;
    run.layers["serve.compile_ms"] = compile / count;
    run.layers["serve.overhead_ms"] = (rtt - compile) / count;
    run.layers["serve.codec_ms"] = codec;
    run.layers["serve.response_kb"] = kb / count;
    run.layers["core.jobs.wait_ms"] = (rtt - compile) / count - codec;
    // On a flow-cache hit the server-side compile_ms is the lookup plus
    // artifact emission, which the daemon repeats on every request.
    run.layers["codegen.emit_ms"] =
        hits > 0 ? hitCompile / static_cast<double>(hits) : 0.0;
  }
  daemon.stop();
  return run;
}

// ---------------------------------------------------------------------
// dist_sweep: spawn W single-threaded worker daemons, shard one sweep
// through SweepCoordinator, merge, stop — back to back

std::vector<cfd::TuneAxis> tuneAxes(const Sweep& sweep) {
  std::vector<cfd::TuneAxis> axes;
  for (auto& [key, values] : sweep.axes())
    axes.push_back(cfd::TuneAxis{key, values});
  return axes;
}

/// Stage computes a perfectly shared cache would do for this sweep:
/// distinct stage keys over its points (an infeasible point stops before
/// sysgen publishes).
std::int64_t distinctStageKeys(const Sweep& sweep,
                               const cfd::dist::DistSweepResult& result) {
  std::unordered_set<std::uint64_t> keys;
  for (const cfd::dist::DistRow& row : result.rows) {
    // A row's label is its assignments, "key=value key=value ...".
    Point point;
    point.kernel = sweep.kernel;
    std::istringstream label(row.label);
    for (std::string assignment; label >> assignment;) {
      const std::size_t eq = assignment.find('=');
      point.params.emplace_back(assignment.substr(0, eq),
                                assignment.substr(eq + 1));
    }
    const auto stageKeys =
        cfd::computeStageKeys(point.source(), optionsFor(point));
    const int stages = row.feasible ? cfd::kStageCount : cfd::kStageCount - 1;
    for (int s = 0; s < stages; ++s)
      keys.insert(stageKeys[s]);
  }
  return static_cast<std::int64_t>(keys.size());
}

/// A kernel of the family under default options (dist_sweep's anchor
/// candidates).
const Point& defaultPoint(int kernel) {
  static const std::vector<Point> points = [] {
    std::vector<Point> all(kernelFamily().size());
    for (std::size_t k = 0; k < all.size(); ++k)
      all[k].kernel = static_cast<int>(k);
    return all;
  }();
  return points[kernel];
}

struct SweepOutcome {
  std::string outcome;
  std::int64_t points = 0;
  std::int64_t infeasible = 0;
};

SweepOutcome runOneSweep(const Config& config, const Sweep& sweep,
                         Tracer* tracer, Run& run) {
  SweepOutcome out;
  const int workers =
      config.distWorkers > 0 ? config.distWorkers : parallelism();
  cfd::dist::SpawnOptions spawn;
  spawn.workers = workers;
  spawn.sessionWorkers = 1;
  spawn.socketDir = config.runDir;
  cfd::dist::WorkerPoolSpawner pool(spawn);
  const cfd::Expected<bool> started = [&] {
    ScopedSpan span(tracer, "dist.spawn");
    return pool.start();
  }();
  if (!started.ok()) {
    out.outcome = "spawn failed: " + started.errorText();
    return out;
  }
  cfd::dist::DistSweepOptions options;
  options.source = kernelFamily()[sweep.kernel].source;
  options.axes = tuneAxes(sweep);
  options.workerSockets = pool.socketPaths();
  std::atomic<bool> progressed{false};
  Clock::time_point coordinateStart = Clock::now();
  std::atomic<std::int64_t> firstProgressUs{-1};
  if (tracer)
    options.onProgress = [&](std::size_t, std::size_t) {
      if (!progressed.exchange(true))
        firstProgressUs = std::chrono::duration_cast<std::chrono::microseconds>(
                              Clock::now() - coordinateStart)
                              .count();
    };
  std::optional<cfd::Expected<cfd::dist::DistSweepResult>> result;
  {
    ScopedSpan span(tracer, "dist.coordinate");
    coordinateStart = Clock::now();
    result.emplace(cfd::dist::SweepCoordinator(options).run());
  }
  if (tracer && result->ok()) {
    // Stage computes across the fleet, read from each worker's status
    // before it stops.
    std::int64_t computes = 0;
    {
      ScopedSpan span(tracer, "dist.status");
      for (const std::string& socket : pool.socketPaths()) {
        cfd::Expected<cfd::serve::Client> client =
            cfd::serve::Client::connect(socket);
        if (!client.ok())
          continue;
        cfd::serve::Request status;
        status.kind = cfd::serve::RequestKind::Status;
        status.id = client->nextId();
        const cfd::Expected<cfd::serve::Response> response =
            client->call(status);
        if (response.ok() && response->ok)
          computes += response->result.at("stats")
                          .at("stage_cache")
                          .at("misses")
                          .asInt();
      }
    }
    const std::int64_t distinct = distinctStageKeys(sweep, **result);
    run.layers["dist.stage_computes"] += static_cast<double>(computes);
    run.layers["input.distinct_stage_keys"] += static_cast<double>(distinct);
    run.layers["dist.first_progress_ms"] +=
        static_cast<double>(firstProgressUs.load()) / 1000.0;
    run.layers["dist.chunks_dispatched"] +=
        static_cast<double>((*result)->stats.chunksDispatched);
    run.layers["dist.chunks_retried"] +=
        static_cast<double>((*result)->stats.chunksRetried);
    run.layers["input.sweep_points"] +=
        static_cast<double>((*result)->rows.size());
  }
  {
    ScopedSpan span(tracer, "dist.stop");
    pool.stopAll();
  }
  if (!result->ok()) {
    out.outcome = "sweep failed: " + result->errorText();
    return out;
  }
  out.outcome = okOutcome(textDigest((*result)->reportText()));
  out.points = static_cast<std::int64_t>((*result)->rows.size());
  for (const cfd::dist::DistRow& row : (*result)->rows)
    out.infeasible += row.feasible ? 0 : 1;
  return out;
}

Run runDist(const Config& config, const Golden& golden) {
  Run run;
  // Set-up: one fixed warm-up sweep, repeated.
  const Sweep warmup{kernelIndex("chain20"), 2};
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const Clock::time_point start = Clock::now();
    ClientLog log;
    const SweepOutcome out = runOneSweep(config, warmup, nullptr, run);
    if (!verify(golden, warmup.key(), out.outcome, log)) {
      std::cerr << "perfbench: warm-up sweep failed: " << log.failures.front()
                << "\n";
      std::exit(2);
    }
    run.setupSeconds.push_back(millisSince(start) / 1000.0);
  }

  ShuffledStream<Sweep> stream(sweepUniverse(), config.seed);
  ClientLog log;
  Tracer tracer(0);
  std::set<int> kernels;
  std::int64_t sweeps = 0, tracedSweeps = 0, repeats = 0;
  std::set<std::string> seen;
  const double cpuStart = cpuMillisNow();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(config.seconds));
  const std::uint64_t pass = sweepUniverse().size();
  std::uint64_t request = 0;
  while (Clock::now() < deadline || request % pass != 0) {
    const Sweep& sweep = stream.next();
    ++request;
    const bool traced = config.trace && tracedTurn(request, pass);
    const Clock::time_point sent = Clock::now();
    SweepOutcome out;
    if (traced) {
      tracer.setRequest(request);
      ScopedSpan span(&tracer, "request");
      out = runOneSweep(config, sweep, &tracer, run);
      ++tracedSweeps;
    } else {
      out = runOneSweep(config, sweep, nullptr, run);
    }
    const double latency = millisSince(sent);
    (traced ? log.tracedLatencies : log.latencies).push_back(latency);
    log.busyMs += latency;
    ++sweeps;
    kernels.insert(sweep.kernel);
    repeats += seen.insert(sweep.key()).second ? 0 : 1;
    if (verify(golden, sweep.key(), out.outcome, log)) {
      log.points += out.points;
      log.infeasible += out.infeasible;
    }
    log.issued.push_back(&defaultPoint(sweep.kernel));
  }
  run.wallMs = millisSince(start);
  run.cpuMs = cpuMillisNow() - cpuStart;
  log.merge(run);
  run.spans = tracer.spans();
  // Here run.infeasible counts design points, not requests.
  run.layers["input.infeasible_share"] =
      run.points > 0 ? static_cast<double>(run.infeasible) /
                           static_cast<double>(run.points)
                     : 0.0;
  run.layers["input.repeat_share"] =
      sweeps > 0 ? static_cast<double>(repeats) / static_cast<double>(sweeps)
                 : 0.0;
  run.layers["input.distinct_kernels"] = static_cast<double>(kernels.size());
  if (tracedSweeps > 0) {
    const double n = static_cast<double>(tracedSweeps);
    const double computes = run.layers["dist.stage_computes"];
    const double distinct = run.layers["input.distinct_stage_keys"];
    run.layers["dist.redundant_stage_share"] =
        computes > 0 ? 1.0 - distinct / computes : 0.0;
    for (const char* name :
         {"dist.stage_computes", "input.distinct_stage_keys",
          "dist.first_progress_ms", "dist.chunks_dispatched",
          "dist.chunks_retried", "input.sweep_points"})
      run.layers[name] /= n;
    run.layers["input.sweep_chunks"] = run.layers["dist.chunks_dispatched"];
  }
  return run;
}

// ---------------------------------------------------------------------
// Post-phase checks: input properties, the §5 anchor, the simulated
// speedup over the ARM reference

/// Repeat / resume / distinct-key properties of the issued point stream
/// (independent of timing and cache capacity: a request "resumes" from
/// the stage after the deepest stage key any earlier request had).
void inputProperties(Run& run) {
  std::unordered_set<std::string> seenPoints;
  std::unordered_set<std::uint64_t> seenKeys;
  std::set<int> kernels;
  std::int64_t repeats = 0, resumed = 0;
  std::map<int, std::int64_t> resumeStage; // first stage to run -> count
  for (const Point* issued : run.issued) {
    const Point& point = *issued;
    kernels.insert(point.kernel);
    if (!seenPoints.insert(point.key()).second) {
      ++repeats;
      continue;
    }
    const auto keys = cfd::computeStageKeys(point.source(), optionsFor(point));
    int deepest = -1;
    for (int s = 0; s < cfd::kStageCount; ++s)
      if (seenKeys.count(keys[s]))
        deepest = s;
    if (deepest >= 0) {
      ++resumed;
      ++resumeStage[deepest + 1];
    }
    for (std::uint64_t key : keys)
      seenKeys.insert(key);
  }
  const double n = std::max<double>(1, static_cast<double>(run.issued.size()));
  run.layers["input.repeat_share"] = static_cast<double>(repeats) / n;
  run.layers["input.resumed_share"] = static_cast<double>(resumed) / n;
  run.layers["input.infeasible_share"] =
      static_cast<double>(run.infeasible) /
      std::max<double>(1, static_cast<double>(run.attempted));
  run.layers["input.distinct_kernels"] = static_cast<double>(kernels.size());
  run.layers["input.distinct_stage_keys"] =
      static_cast<double>(seenKeys.size());
  std::ostringstream histogram;
  histogram << "resumed from:";
  for (const auto& [stage, count] : resumeStage)
    histogram << " "
              << (stage < cfd::kStageCount
                      ? cfd::stageName(static_cast<cfd::Stage>(stage))
                      : "emission")
              << "=" << count;
  run.notes.push_back(histogram.str());
}

/// Max |interpreted - reference| / max |reference| over the outputs: the
/// schedule interpreter against the direct reference semantics
/// (DESIGN.md §5). Relative, because deep chains reach 1e35.
double anchorRelativeError(const Point& point) {
  const cfd::Flow flow(
      std::make_shared<cfd::Pipeline>(point.source(), optionsFor(point)));
  const cfd::ir::Program& program = flow.program();
  std::map<std::string, cfd::eval::DenseTensor> reference;
  cfd::eval::TensorStore store(program, flow.schedule().layouts);
  std::uint64_t seed = 1;
  for (const auto& tensor : program.tensors()) {
    if (tensor.kind != cfd::ir::TensorKind::Input)
      continue;
    const cfd::eval::DenseTensor value =
        cfd::eval::makeTestInput(tensor.type.shape, seed++);
    reference[tensor.name] = value;
    store.import(tensor.id, value);
  }
  cfd::eval::evaluateReference(flow.ast(), reference);
  cfd::eval::execute(flow.schedule(), store);
  double maxDiff = 0, maxRef = 0;
  for (const auto& tensor : program.tensors()) {
    if (tensor.kind != cfd::ir::TensorKind::Output)
      continue;
    const cfd::eval::DenseTensor& expected = reference.at(tensor.name);
    maxDiff = std::max(maxDiff, cfd::eval::maxAbsDifference(
                                    store.exportTensor(tensor.id), expected));
    for (double v : expected.data)
      maxRef = std::max(maxRef, std::abs(v));
  }
  return maxRef > 0 ? maxDiff / maxRef : maxDiff;
}

/// Two seeded kernels of the issued stream, compiled under the first
/// feasible options seen for them.
void checkAnchors(const Config& config, const Golden& golden, Run& run) {
  std::vector<Point> candidates;
  std::set<int> kernels;
  for (const Point* point : run.issued) {
    const std::string* outcome = golden.find(point->key());
    const bool feasible =
        point->params.empty() || (outcome && outcome->rfind("ok ", 0) == 0);
    if (feasible && kernels.insert(point->kernel).second)
      candidates.push_back(*point);
  }
  std::mt19937_64 rng(config.seed * 31 + 5);
  std::shuffle(candidates.begin(), candidates.end(), rng);
  double worst = 0;
  for (std::size_t i = 0; i < std::min<std::size_t>(2, candidates.size());
       ++i) {
    const Point& point = candidates[i];
    const double error = anchorRelativeError(point);
    worst = std::max(worst, error);
    ++run.attempted;
    if (!(error <= kAnchorTolerance)) {
      ++run.failed;
      run.failures.push_back("anchor " + point.key() + ": relative error " +
                             std::to_string(error));
    }
  }
  run.layers["bench.anchor_rel_error"] = worst;
}

/// The points sim_speedup_vs_arm averages over: a fixed stratified
/// sample of the workload's universe (every k-th point, at most 96), so
/// the figure is independent of the seed and of how far the timed phase
/// got.
std::vector<Point> simSample(const std::string& workload) {
  std::vector<Point> universe;
  if (workload == "daemon_explore") {
    universe = daemonUniverse();
  } else if (workload == "dist_sweep") {
    for (const Sweep& sweep : sweepUniverse()) {
      const std::vector<Point> points = crossProduct(sweep.kernel, sweep.axes());
      universe.insert(universe.end(), points.begin(), points.end());
    }
  } else {
    universe = compileUniverse();
  }
  constexpr std::size_t kSample = 96;
  const std::size_t stride = std::max<std::size_t>(1, universe.size() / kSample);
  std::vector<Point> sample;
  for (std::size_t i = 0; i < universe.size() && sample.size() < kSample;
       i += stride)
    sample.push_back(universe[i]);
  return sample;
}

/// Geometric mean over the sample's feasible points of the A53 software
/// reference time over the accelerator's simulated total at 50,000
/// elements (the paper's Fig. 10 quantity; simulated, not host time).
double simSpeedupVsArm(const std::string& workload) {
  const std::vector<Point> sample = simSample(workload);
  cfd::SessionOptions options;
  options.workers = 1;
  cfd::Session session(options);
  std::mutex mutex;
  std::map<std::string, std::shared_future<double>> cpuReference;
  std::atomic<std::size_t> next{0};
  std::vector<double> logs(sample.size(), 0.0);
  std::vector<char> feasible(sample.size(), 0);
  auto worker = [&] {
    for (std::size_t i = next++; i < sample.size(); i = next++) {
      const cfd::Expected<cfd::CompileResult> result =
          session.compile(compileRequestFor(sample[i], false));
      if (!result.ok())
        continue;
      const cfd::Flow& flow = result->flow();
      // The ARM reference depends on the optimized program and on the
      // options the software schedule is derived under.
      cfd::FlowOptions software = flow.options();
      software.reschedule.objective = cfd::sched::ScheduleObjective::Software;
      const std::string program =
          flow.program().str() + "|" +
          std::to_string(
              cfd::stageOptionsFingerprint(cfd::Stage::Schedule, software)) +
          "|" +
          std::to_string(cfd::stageOptionsFingerprint(cfd::Stage::Reschedule,
                                                       software));
      std::shared_future<double> reference;
      std::promise<double> promise;
      bool mine = false;
      {
        std::lock_guard<std::mutex> lock(mutex);
        auto it = cpuReference.find(program);
        if (it == cpuReference.end()) {
          reference = promise.get_future().share();
          cpuReference.emplace(program, reference);
          mine = true;
        } else {
          reference = it->second;
        }
      }
      if (mine)
        promise.set_value(cfd::sim::cpuTotalTimeUs(
            flow.softwareCounts(cfd::sched::ScheduleObjective::Software),
            kSimElements));
      const double accelerator =
          flow.simulate({.numElements = kSimElements}).totalTimeUs();
      logs[i] = std::log(reference.get() / accelerator);
      feasible[i] = 1;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < parallelism(); ++t)
    threads.emplace_back(worker);
  for (std::thread& thread : threads)
    thread.join();
  double sum = 0;
  int count = 0;
  for (std::size_t i = 0; i < sample.size(); ++i)
    if (feasible[i]) {
      sum += logs[i];
      ++count;
    }
  return count > 0 ? std::exp(sum / count) : 0.0;
}

// ---------------------------------------------------------------------
// Record mode

int record(const std::string& path) {
  Golden golden;
  cfd::SessionOptions options;
  options.workers = parallelism();
  cfd::Session session(options);
  std::map<std::string, Point> points;
  for (const Point& point : compileUniverse())
    points.emplace(point.key(), point);
  for (const Point& point : daemonUniverse())
    points.emplace(point.key(), point);
  std::vector<std::string> keys;
  std::vector<cfd::Job<cfd::CompileResult>> jobs;
  for (const auto& [key, point] : points) {
    keys.push_back(key);
    jobs.push_back(session.submitCompile(compileRequestFor(point)));
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string outcome = outcomeOf(jobs[i].wait());
    golden.set(keys[i], outcome);
  }
  for (const auto& [name, universe] :
       {std::pair<const char*, const std::vector<Point>*>{
            "compile", &compileUniverse()},
        {"daemon", &daemonUniverse()}}) {
    int errors = 0;
    for (const Point& point : *universe)
      errors += golden.find(point.key())->rfind("err ", 0) == 0 ? 1 : 0;
    std::cout << name << " universe: " << universe->size() << " points, "
              << errors << " infeasible\n";
  }
  std::int64_t sweepPoints = 0, sweepInfeasible = 0;
  for (const Sweep& sweep : sweepUniverse()) {
    cfd::SweepRequest request(kernelFamily()[sweep.kernel].source);
    for (const cfd::TuneAxis& axis : tuneAxes(sweep))
      request.axis(axis.key, axis.values);
    const cfd::Expected<cfd::SweepResult> swept = session.sweep(request);
    if (!swept.ok()) {
      std::cerr << sweep.key() << ": " << swept.errorText();
      return 1;
    }
    const cfd::dist::DistSweepResult merged =
        cfd::dist::SweepCoordinator::fromSweepResult(*swept);
    golden.set(sweep.key(), okOutcome(textDigest(merged.reportText())));
    sweepPoints += static_cast<std::int64_t>(merged.rows.size());
    for (const cfd::dist::DistRow& row : merged.rows)
      sweepInfeasible += row.feasible ? 0 : 1;
  }
  std::cout << "sweep universe: " << sweepUniverse().size() << " sweeps, "
            << sweepPoints << " points, " << sweepInfeasible
            << " infeasible\n";
  if (!golden.save(path)) {
    std::cerr << "perfbench: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "recorded " << golden.size() << " outcomes to " << path << "\n";
  return 0;
}

// ---------------------------------------------------------------------
// Reporting

double percentile(std::vector<double> values, double q) {
  if (values.empty())
    return 0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values)
    sum += v;
  return values.empty() ? 0 : sum / static_cast<double>(values.size());
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// The metric names and units BENCHMARK.json lists under `section`
/// ("end_to_end" or "per_layer"), in its order.
std::vector<std::pair<std::string, std::string>>
specMetrics(const std::string& specPath, const std::string& section) {
  std::vector<std::pair<std::string, std::string>> metrics;
  std::ifstream in(specPath);
  if (!in)
    return metrics;
  std::stringstream text;
  text << in.rdbuf();
  const cfd::json::Value spec = cfd::json::Value::parse(text.str());
  const cfd::json::Value& list = spec.at(section);
  for (std::size_t i = 0; i < list.size(); ++i)
    metrics.emplace_back(list.at(i).at("name").asString(),
                         list.at(i).at("unit").asString());
  return metrics;
}

/// Span names whose self time is a layer metric.
const std::map<std::string, std::string>& spanLayers() {
  static const std::map<std::string, std::string> names = {
      {"dsl.parse", "dsl.parse_ms"},
      {"ir.lower", "ir.lower_ms"},
      {"ir.optimize", "ir.optimize_ms"},
      {"sched.schedule", "sched.schedule_ms"},
      {"sched.reschedule", "sched.reschedule_ms"},
      {"mem.liveness", "mem.liveness_ms"},
      {"mem.memory_plan", "mem.memory_plan_ms"},
      {"hls.analyze", "hls.analyze_ms"},
      {"sysgen.generate", "sysgen.generate_ms"},
      {"codegen.emit", "codegen.emit_ms"},
      {"core.session", "core.session_ms"},
      {"core.adopt", "core.session_ms"},
      {"store.open", "store.open_ms"},
      {"store.load", "store.load_ms"},
      {"dist.spawn", "dist.spawn_ms"},
      {"dist.coordinate", "dist.coordinate_ms"},
      {"dist.stop", "dist.stop_ms"},
      {"dist.status", "dist.status_ms"},
      {"serve.encode", "serve.encode_ms"},
      {"serve.rtt", "serve.call_ms"},
  };
  return names;
}

std::string formatNumber(double value) {
  if (!std::isfinite(value))
    return "0";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.10g", value);
  return buffer;
}

void printResult(bool correct, std::int64_t attempted, std::int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::cout << "\n";
  for (const Metric& metric : metrics)
    std::printf("  %-32s %14s %s\n", metric.name.c_str(),
                formatNumber(metric.value).c_str(), metric.unit.c_str());
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << formatNumber(metrics[i].value)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  std::cout << "}}" << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench --workload cold_compile|disk_restart|"
               "daemon_explore|dist_sweep --seed N --seconds S --trace 0|1\n"
               "                 [--golden FILE] [--no-stage-cache] "
               "[--empty-cache] [--dist-workers W]\n"
               "       perfbench --record FILE\n";
  return 2;
}

bool parseArgs(int argc, char** argv, Config& config) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--no-stage-cache") {
      config.noStageCache = true;
    } else if (arg == "--empty-cache") {
      config.emptyCache = true;
    } else if (!(v = value())) {
      return false;
    } else if (arg == "--workload") {
      config.workload = v;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      config.trace = std::string(v) == "1";
    } else if (arg == "--golden") {
      config.golden = v;
    } else if (arg == "--record") {
      config.record = v;
    } else if (arg == "--dist-workers") {
      config.distWorkers = std::atoi(v);
    } else {
      return false;
    }
  }
  return config.seconds > 0;
}

} // namespace

int main(int argc, char** argv) {
  Config config;
  if (!parseArgs(argc, argv, config))
    return usage();
  // Every Session here (and every forked worker's) runs without a disk
  // tier unless the workload configures one explicitly.
  ::unsetenv("CFD_CACHE_DIR");
  if (!config.record.empty())
    return record(config.record);

  static const std::set<std::string> workloads = {
      "cold_compile", "disk_restart", "daemon_explore", "dist_sweep"};
  if (!workloads.count(config.workload))
    return usage();
  Golden golden;
  if (!golden.load(config.golden)) {
    std::cerr << "perfbench: cannot read golden outcomes from "
              << config.golden << "\n";
    return 2;
  }
  const auto endToEnd = specMetrics(kSpecPath, "end_to_end");
  const auto perLayer = specMetrics(kSpecPath, "per_layer");
  if (endToEnd.empty() || perLayer.empty()) {
    std::cerr << "perfbench: cannot read the metric lists from " << kSpecPath
              << "\n";
    return 2;
  }
  // A private run directory (store, sockets), removed afterwards; the
  // trace file goes to the shared one.
  const std::string outDir = config.runDir;
  config.runDir += "/" + std::to_string(::getpid());
  fs::remove_all(config.runDir);
  fs::create_directories(config.runDir);

  Run run;
  if (config.workload == "cold_compile")
    run = runCompileStream(config, golden, false);
  else if (config.workload == "disk_restart")
    run = runCompileStream(config, golden, true);
  else if (config.workload == "daemon_explore")
    run = runDaemon(config, golden);
  else
    run = runDist(config, golden);
  const double rssMb = peakRssMb();
  fs::remove_all(config.runDir);

  const Clock::time_point checks = Clock::now();
  if (config.workload != "dist_sweep") // it reports per-sweep properties
    inputProperties(run);
  checkAnchors(config, golden, run);
  const double simSpeedup = simSpeedupVsArm(config.workload);
  run.notes.push_back("post-run checks took " +
                      formatNumber(millisSince(checks) / 1000.0) + " s");

  std::cout << "workload " << config.workload << " seed " << config.seed
            << " trace " << (config.trace ? 1 : 0) << ": " << run.attempted
            << " requests attempted, " << run.failed << " failed, "
            << run.points << " points in " << formatNumber(run.wallMs / 1e3)
            << " s, " << run.clients << " client(s)\n";
  for (const std::string& note : run.notes)
    std::cout << "  " << note << "\n";
  for (const std::string& failure : run.failures)
    std::cout << "  FAILED " << failure << "\n";
  std::cout << "  error_rate "
            << formatNumber(static_cast<double>(run.failed) /
                            static_cast<double>(std::max<std::int64_t>(
                                1, run.attempted)))
            << "; sim_speedup_vs_arm is simulated (checked only against the "
               "paper's Fig. 10 values in bench_fig10)\n";

  std::vector<double> all = run.latencies;
  all.insert(all.end(), run.tracedLatencies.begin(),
             run.tracedLatencies.end());
  const double seconds = run.wallMs / 1000.0;
  std::vector<Metric> metrics;
  if (!config.trace) {
    std::cout << "  latency samples " << run.latencies.size() << "\n";
    const std::map<std::string, double> values = {
        {"points_per_s", static_cast<double>(run.points) / seconds},
        {"latency_p50_ms", median(run.latencies)},
        {"latency_p90_ms", percentile(run.latencies, 0.9)},
        {"setup_s", median(run.setupSeconds)},
        {"cpu_ms_per_point",
         run.cpuMs /
             static_cast<double>(std::max<std::int64_t>(1, run.points))},
        {"peak_rss_mb", rssMb},
        {"sim_speedup_vs_arm", simSpeedup},
    };
    for (const auto& [name, unit] : endToEnd) {
      const auto it = values.find(name);
      if (it == values.end()) {
        std::cerr << "perfbench: " << kSpecPath << " names an unknown "
                  << "end-to-end metric " << name << "\n";
        return 2;
      }
      metrics.push_back({name, it->second, unit});
    }
  } else {
    const std::map<std::string, SpanTotals> totals = spanTotals(run.spans);
    const double traced = std::max<double>(
        1, static_cast<double>(run.tracedLatencies.size()));
    std::map<std::string, double> layerSelfMs;
    double attributed = 0, requestMs = 0;
    std::cout << "\n  self time per traced request (" << run.tracedLatencies.size()
              << " requests, trace file below)\n";
    std::printf("  %-20s %8s %12s %12s\n", "span", "count", "total_ms",
                "self_ms/req");
    for (const auto& [name, total] : totals) {
      std::printf("  %-20s %8lld %12.3f %12.4f\n", name.c_str(),
                  static_cast<long long>(total.count), total.totalMs,
                  total.selfMs / traced);
      const auto layer = spanLayers().find(name);
      if (layer != spanLayers().end()) {
        layerSelfMs[layer->second] += total.selfMs / traced;
        attributed += total.selfMs;
      }
      if (name == "request")
        requestMs = total.totalMs;
    }
    for (const auto& [name, value] : layerSelfMs)
      run.layers[name] = value;
    run.layers["bench.attributed_share"] =
        requestMs > 0 ? attributed / requestMs : 0.0;
    run.layers["bench.trace_overhead"] =
        mean(run.latencies) > 0
            ? mean(run.tracedLatencies) / mean(run.latencies) - 1.0
            : 0.0;
    run.layers["bench.harness_share"] =
        1.0 - run.busyMs / (run.wallMs * static_cast<double>(run.clients));
    run.layers["bench.error_rate"] =
        static_cast<double>(run.failed) /
        static_cast<double>(std::max<std::int64_t>(1, run.attempted));
    run.layers["bench.latency_samples"] = static_cast<double>(all.size());
    const std::string tracePath = outDir + "/trace-" + config.workload +
                                  "-" + std::to_string(config.seed) + ".json";
    writeChromeTrace(tracePath, run.spans);
    std::cout << "  trace: " << tracePath << " (" << run.spans.size()
              << " spans)\n";
    for (const auto& [name, unit] : perLayer) {
      const auto it = run.layers.find(name);
      metrics.push_back({name, it == run.layers.end() ? 0.0 : it->second,
                         unit});
    }
  }
  const bool correct = run.failed == 0 && run.attempted > 0 && run.points > 0;
  printResult(correct, run.attempted, run.failed, metrics);
  return 0;
}
