// cfd::serve::Server — the multi-client compile daemon (DESIGN.md §15).
//
// A Server turns one long-lived cfd::Session into a service other
// processes can reach: it listens on a Unix domain socket, speaks the
// newline-delimited JSON protocol of serve/Protocol.h, and translates
// every compile/sweep/tune request into a Session job
// (submitCompile/submitSweep/submitTune) carrying the client's
// priority and deadline. All clients therefore share ONE FlowCache,
// ONE StageCache, and ONE ArtifactStore — the first client pays the
// cold compile, everyone after rides the warm caches, across
// connections and (with a cache dir) across daemon restarts.
//
// Threading: one accept thread (owned by the Server), plus a reader
// and a responder thread per connection. The reader parses requests
// and submits jobs; the responder resolves them in submission order
// and writes responses (so per-connection response order matches
// request order, while ids still allow out-of-order matching). status
// and cancel are answered inline by the reader — they must not queue
// behind a long compile.
//
// Lifecycle and shutdown (DESIGN.md §15):
//  * start() binds the socket. A stale socket file left by a crashed
//    daemon (nothing accepts a probe connection) is unlinked and
//    replaced; a live daemon on the path is a structured error.
//  * requestStop() is async-signal-safe (an atomic flag plus one
//    write() to a self-pipe), so SIGINT/SIGTERM handlers and the
//    `shutdown` RPC share one path: stop accepting, refuse new
//    requests on open connections, cancel still-queued jobs, drain
//    running ones to their responses for at most kShutdownDrainBound,
//    then close every connection and unlink the socket file.
//  * A client disconnect cancels that connection's outstanding jobs
//    cooperatively (core/Job.h) — a dead client cannot pin workers.
#pragma once

#include "core/Session.h"
#include "serve/Protocol.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace cfd::serve {

/// How long a shutdown waits for outstanding responses to be written.
/// A client that stops reading blocks its connection's send, and a long
/// job keeps its connection waiting; past this bound such a connection
/// is shut down, which fails the send and cancels its remaining jobs,
/// so the daemon stops whatever clients do. It stays under
/// WorkerPoolSpawner::stopAll's 10-s SIGKILL.
inline constexpr std::chrono::seconds kShutdownDrainBound{3};

struct ServerOptions {
  /// Filesystem path of the Unix domain socket to listen on.
  std::string socketPath;
  /// listen(2) backlog.
  int listenBacklog = 64;
};

class Server {
public:
  /// The session must outlive the server; the server never owns it, so
  /// tests, benches, and the CLI control SessionOptions (cache dir,
  /// worker count) directly and can inspect the session afterwards.
  Server(Session& session, ServerOptions options);
  /// requestStop() + join().
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept thread. Failure (path too
  /// long, a live daemon on the path, bind/listen errors) carries one
  /// stage-"serve" diagnostic; a stale socket file is replaced
  /// silently (counted in stats).
  Expected<bool> start();

  /// Initiates the graceful shutdown described above. Async-signal-safe
  /// and idempotent; returns immediately — join() observes completion.
  void requestStop();

  /// Waits until the accept thread has finished the shutdown sequence
  /// (all connections drained and closed, socket unlinked).
  void join();

  /// True between a successful start() and the end of shutdown.
  bool running() const;

  const std::string& socketPath() const { return options_.socketPath; }

  struct Stats {
    std::int64_t connectionsAccepted = 0;
    std::int64_t connectionsClosed = 0;
    std::int64_t requestsReceived = 0;
    std::int64_t responsesSent = 0;
    std::int64_t progressEvents = 0;       ///< streamed mid-job events
    std::int64_t protocolErrors = 0;       ///< unparseable requests
    std::int64_t cancelledOnDisconnect = 0;///< jobs cancelled by EOF
    std::int64_t cancelledOnShutdown = 0;  ///< queued jobs cut at drain
    std::int64_t staleSocketsReplaced = 0;
  };
  Stats stats() const;

private:
  struct Connection;
  struct PendingJob;

  void acceptLoop();
  void spawnConnection(int fd);
  /// Joins and forgets connections whose threads both exited.
  void reapFinished();
  /// The shutdown sequence (runs on the accept thread).
  void drainAndClose();

  void readerLoop(const std::shared_ptr<Connection>& connection);
  void responderLoop(const std::shared_ptr<Connection>& connection);
  void handleLine(Connection& connection, std::string_view line);
  void sendResponse(Connection& connection, const Response& response);
  /// Resolves one job (blocking) into its wire response.
  Response buildResponse(const PendingJob& pending);
  Response statusResponse(std::int64_t id) const;

  void bumpStat(std::int64_t Stats::*counter, std::int64_t delta = 1);

  Session& session_;
  const ServerOptions options_;

  int listenFd_ = -1;
  int stopPipe_[2] = {-1, -1}; ///< [read, write]; write end is the
                               ///< async-signal-safe wakeup
  std::atomic<bool> stopRequested_{false};
  std::atomic<bool> running_{false};
  std::thread acceptThread_;

  mutable std::mutex connectionsMutex_;
  std::vector<std::shared_ptr<Connection>> connections_;

  mutable std::mutex statsMutex_;
  Stats stats_;
};

} // namespace cfd::serve
