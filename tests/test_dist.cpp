// Tests for the distributed sweep coordinator (DESIGN.md §16): the
// byte-identity contract against a single-process sweep, fault
// injection (a worker SIGKILLed mid-chunk, a stopped straggler
// demoted by the inactivity deadline), failure modes (no reachable
// worker, every worker lost, bad params failing fast), the worker
// lifecycle (a worker that cannot bind fails start(), stopAll() reaps
// every child and unlinks every socket), and an EINTR-storm over an
// 8-client flood that exercises the retrying serve I/O loops under a
// ~1 ms interval timer. The TSan CI job runs this suite alongside
// test_serve and test_async.
#include "dist/Coordinator.h"
#include "dist/WorkerPoolSpawner.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

namespace cfd::dist {
namespace {

namespace fs = std::filesystem;

/// Per-test scratch dir with short socket paths (sun_path is ~107
/// bytes, so no test-name-derived paths).
class DistTest : public ::testing::Test {
protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("cfd_dist_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++)))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  /// The shared design space: 3 x 2 = 6 points, several chunks under
  /// any worker count, and fast to compile.
  static std::vector<TuneAxis> axes() {
    return {{"unroll", {"1", "2", "4"}}, {"m", {"2", "4"}}};
  }

  /// A single-process sweep over the same space, rendered through the
  /// same canonical report — the reference bytes.
  static std::string localReport(const std::string& source,
                                 const std::vector<TuneAxis>& space = axes()) {
    Session session(SessionOptions{.workers = 2});
    SweepRequest request(source);
    for (const TuneAxis& axis : space)
      request.axis(axis.key, axis.values);
    const Expected<SweepResult> swept = session.sweep(request);
    EXPECT_TRUE(swept.ok()) << swept.errorText();
    return SweepCoordinator::fromSweepResult(*swept).reportText();
  }

  DistSweepOptions optionsFor(const WorkerPoolSpawner& pool,
                              const std::string& source) {
    DistSweepOptions options;
    options.source = source;
    options.axes = axes();
    options.workerSockets = pool.socketPaths();
    return options;
  }

  std::string root_;
  static inline std::atomic<int> counter_{0};
};

TEST_F(DistTest, ShardedSweepIsByteIdenticalToLocal) {
  struct Case {
    std::string source;
    std::vector<TuneAxis> axes;
    int workers;
    std::size_t chunkSize; // 0: the coordinator's default
    std::size_t points;
    std::int64_t chunks;
  };
  // The 6-point space in chunks of 2 (3 chunks over 2 workers: real
  // stealing), and a 200-point space over a 40-deep contraction chain
  // in default chunks over 4 workers.
  const Case cases[] = {
      {test::kInverseHelmholtz, axes(), 2, 2, 6, 3},
      {test::contractionChainSource(40),
       {{"unroll", {"1", "2", "4", "8", "16"}},
        {"m", {"2", "4", "8", "16", "32"}},
        {"opt", {"0", "1"}},
        {"sharing", {"0", "1"}},
        {"objective", {"hw", "sw"}}},
       4,
       0,
       200,
       16},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.points) + " points");
    WorkerPoolSpawner pool({.workers = c.workers, .socketDir = root_});
    const Expected<bool> started = pool.start();
    ASSERT_TRUE(started.ok()) << started.errorText();

    DistSweepOptions options = optionsFor(pool, c.source);
    options.axes = c.axes;
    options.chunkSize = c.chunkSize;
    std::atomic<std::size_t> lastDone{0};
    options.onProgress = [&](std::size_t done, std::size_t total) {
      EXPECT_EQ(total, c.points);
      lastDone = done;
    };
    const Expected<DistSweepResult> result =
        SweepCoordinator(options).run();
    ASSERT_TRUE(result.ok()) << result.errorText();

    // The whole point: merged bytes == single-process bytes.
    EXPECT_EQ(result->reportText(), localReport(c.source, c.axes));
    EXPECT_EQ(lastDone.load(), c.points);
    EXPECT_EQ(result->stats.workersConnected, c.workers);
    EXPECT_EQ(result->stats.workersLost, 0);
    EXPECT_EQ(result->stats.chunksDispatched, c.chunks);
    EXPECT_EQ(result->stats.chunksRetried, 0);
    // One progress event per point.
    EXPECT_EQ(result->stats.progressEvents,
              static_cast<std::int64_t>(c.points));
    EXPECT_FALSE(result->frontier.empty());
  }
}

TEST_F(DistTest, SigkilledWorkerMidChunkStillCompletesIdentically) {
  const std::string source = test::kInverseHelmholtz;
  WorkerPoolSpawner pool({.workers = 3, .socketDir = root_});
  ASSERT_TRUE(pool.start().ok());
  // Workers 1 and 2 start stopped, so only worker 0 can report progress
  // and nobody else can drain the queue before the kill: however fast a
  // compile is, worker 0 dies holding a chunk (its first, or the next
  // one it pulls). The others resume once it is dead.
  pool.kill(1, SIGSTOP);
  pool.kill(2, SIGSTOP);

  DistSweepOptions options = optionsFor(pool, source);
  options.chunkSize = 1; // every point its own chunk: kill lands mid-sweep
  std::once_flag killed;
  std::promise<void> killDone;
  const auto killWorker0 = [&] {
    std::call_once(killed, [&] {
      pool.kill(0, SIGKILL);
      killDone.set_value();
    });
  };
  // First sign of life -> SIGKILL worker 0. Its chunk dies with it and
  // must be re-run elsewhere.
  options.onProgress = [&](std::size_t, std::size_t) { killWorker0(); };
  std::thread resume([&, dead = killDone.get_future()] {
    dead.wait();
    // Give the coordinator time to hit the dead connection first.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    pool.kill(1, SIGCONT);
    pool.kill(2, SIGCONT);
  });
  const Expected<DistSweepResult> result =
      SweepCoordinator(options).run();
  killWorker0(); // no-op after a normal run; never leaves `resume` waiting
  resume.join();
  ASSERT_TRUE(result.ok()) << result.errorText();

  // Full point count, identical frontier and bytes, and the loss is
  // visible in the stats.
  EXPECT_EQ(result->rows.size(), 6u);
  EXPECT_EQ(result->reportText(), localReport(source));
  EXPECT_GE(result->stats.workersLost, 1);
}

TEST_F(DistTest, StoppedStragglerIsDemotedAndSweepCompletes) {
  const std::string source = test::kInverseHelmholtz;
  WorkerPoolSpawner pool({.workers = 2, .socketDir = root_});
  ASSERT_TRUE(pool.start().ok());
  // SIGSTOP one worker: it keeps its listening socket (connects
  // succeed, sends buffer) but never answers — the canonical
  // straggler. The inactivity deadline must cut it off and move its
  // chunk to the live worker.
  pool.kill(0, SIGSTOP);
  // The live worker starts stopped too and resumes after a head start,
  // so the straggler is handed a chunk before the live worker could
  // finish the sweep alone, however fast it compiles. 100 ms leaves the
  // live worker most of the 400 ms deadline for its first chunk.
  pool.kill(1, SIGSTOP);
  std::thread resume([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    pool.kill(1, SIGCONT);
  });

  DistSweepOptions options = optionsFor(pool, source);
  options.chunkDeadlineMillis = 400;
  const Expected<DistSweepResult> result =
      SweepCoordinator(options).run();
  resume.join();
  // SIGKILL the stopped worker before stopAll so teardown never waits
  // out the graceful-drain window on a process that cannot drain.
  pool.kill(0, SIGKILL);
  ASSERT_TRUE(result.ok()) << result.errorText();

  EXPECT_EQ(result->reportText(), localReport(source));
  EXPECT_GE(result->stats.workersDemoted, 1);
  EXPECT_GE(result->stats.chunksRetried, 1);
}

TEST_F(DistTest, AllWorkersLostFailsWithDiagnostics) {
  WorkerPoolSpawner pool({.workers = 1, .socketDir = root_});
  ASSERT_TRUE(pool.start().ok());

  DistSweepOptions options = optionsFor(pool, test::kInverseHelmholtz);
  std::once_flag killed;
  options.onProgress = [&](std::size_t, std::size_t) {
    std::call_once(killed, [&] { pool.kill(0, SIGKILL); });
  };
  const Expected<DistSweepResult> result =
      SweepCoordinator(options).run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errorText().find("all workers were lost"),
            std::string::npos)
      << result.errorText();
}

/// True when this process has no child left, running or unreaped.
bool noChildLeft() {
  int status = 0;
  return ::waitpid(-1, &status, WNOHANG) < 0 && errno == ECHILD;
}

/// Socket files (directories do not count) under `dir`.
std::vector<std::string> socketFilesIn(const std::string& dir) {
  std::vector<std::string> found;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir))
    if (entry.is_socket())
      found.push_back(entry.path().string());
  return found;
}

TEST_F(DistTest, WorkerThatCannotBindFailsStartAndIsReaped) {
  // A directory where worker 1's socket goes: its bind fails and it
  // exits before serving, while workers 0 and 2 come up.
  const std::string blocked = root_ + "/worker1.sock";
  ASSERT_TRUE(fs::create_directory(blocked));
  WorkerPoolSpawner pool({.workers = 3, .socketDir = root_});
  const Expected<bool> started = pool.start();
  ASSERT_FALSE(started.ok());
  // The exit is seen at once: had a later worker inherited worker 1's
  // pipe, this would be the ready timeout's message instead.
  ASSERT_EQ(started.diagnostics().size(), 1u);
  EXPECT_EQ(started.diagnostics()[0].message,
            "worker 1 exited before serving on '" + blocked + "'");
  EXPECT_TRUE(noChildLeft());
  EXPECT_TRUE(socketFilesIn(root_).empty());
  EXPECT_TRUE(pool.socketPaths().empty());
}

TEST_F(DistTest, StopAllReapsEveryWorkerAndUnlinksSockets) {
  WorkerPoolSpawner pool({.workers = 3, .socketDir = root_});
  ASSERT_TRUE(pool.start().ok());
  const std::vector<std::string> sockets = pool.socketPaths();
  ASSERT_EQ(sockets.size(), 3u);
  for (const std::string& socket : sockets)
    EXPECT_TRUE(fs::is_socket(socket)) << socket;
  // A worker that died on its own is still reaped, and its socket
  // file, which the dead daemon never unlinked, still goes.
  pool.kill(1, SIGKILL);
  pool.stopAll();
  EXPECT_TRUE(noChildLeft());
  for (const std::string& socket : sockets)
    EXPECT_FALSE(fs::exists(socket)) << socket;
  EXPECT_TRUE(pool.socketPaths().empty());

  pool.stopAll(); // idempotent: nothing left to stop
  EXPECT_TRUE(noChildLeft());
  EXPECT_TRUE(socketFilesIn(root_).empty());
}

TEST_F(DistTest, UnreachableWorkersFailFast) {
  DistSweepOptions options;
  options.source = test::kInverseHelmholtz;
  options.axes = axes();
  options.workerSockets = {root_ + "/nobody.sock"};
  const Expected<DistSweepResult> result =
      SweepCoordinator(options).run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errorText().find("no worker is reachable"),
            std::string::npos)
      << result.errorText();
}

TEST_F(DistTest, BadAxisValuesFailBeforeAnySocketIsTouched) {
  DistSweepOptions options;
  options.source = test::kInverseHelmholtz;
  options.axes = {{"warp", {"1"}}};
  // Deliberately no daemon behind this path: validation must fail
  // before connecting, so the bad key is one error, not N refusals.
  options.workerSockets = {root_ + "/nobody.sock"};
  const Expected<DistSweepResult> result =
      SweepCoordinator(options).run();
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.errorText().find("unknown parameter 'warp'"),
            std::string::npos)
      << result.errorText();
}

// ---------------------------------------------------------------------
// EINTR storm: a ~1 ms interval timer with a no-op, no-SA_RESTART
// SIGALRM handler makes every blocking send/recv in the process fail
// with EINTR constantly — on the in-process server's threads and the
// flooding clients alike. The retrying I/O loops (serve/Io.h) must
// make all of it invisible.
// ---------------------------------------------------------------------

extern "C" void onAlarmNoop(int) {}

TEST_F(DistTest, EintrStormDoesNotDropAnyFloodResponses) {
  struct sigaction action{};
  action.sa_handler = onAlarmNoop; // deliberately NOT SA_RESTART
  ASSERT_EQ(::sigaction(SIGALRM, &action, nullptr), 0);
  itimerval storm{};
  storm.it_interval.tv_usec = 1000;
  storm.it_value.tv_usec = 1000;
  ASSERT_EQ(::setitimer(ITIMER_REAL, &storm, nullptr), 0);

  {
    Session session(SessionOptions{.workers = 2});
    serve::Server server(session, {.socketPath = root_ + "/d.sock"});
    ASSERT_TRUE(server.start().ok());

    constexpr int kClients = 8;
    constexpr int kCallsPerClient = 5;
    std::atomic<int> okCount{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kClients; ++i)
      threads.emplace_back([&, i] {
        Expected<serve::Client> client =
            serve::Client::connect(root_ + "/d.sock");
        ASSERT_TRUE(client.ok()) << client.errorText();
        for (int call = 0; call < kCallsPerClient; ++call) {
          serve::Request request;
          request.kind = serve::RequestKind::Compile;
          request.source = test::kInverseHelmholtz;
          request.params = {{"unroll", std::to_string(1 << (i % 4))}};
          const Expected<serve::Response> response =
              client->call(std::move(request));
          ASSERT_TRUE(response.ok()) << response.errorText();
          ASSERT_TRUE(response->ok) << response->encode();
          ++okCount;
        }
      });
    for (std::thread& thread : threads)
      thread.join();
    EXPECT_EQ(okCount.load(), kClients * kCallsPerClient);

    server.requestStop();
    server.join();
    const serve::Server::Stats stats = server.stats();
    EXPECT_EQ(stats.requestsReceived, stats.responsesSent);
    EXPECT_EQ(stats.requestsReceived, kClients * kCallsPerClient);
    EXPECT_EQ(stats.protocolErrors, 0);
  }

  itimerval off{};
  ASSERT_EQ(::setitimer(ITIMER_REAL, &off, nullptr), 0);
  ::signal(SIGALRM, SIG_DFL);
}

} // namespace
} // namespace cfd::dist
