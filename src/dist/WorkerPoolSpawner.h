// cfd::dist::WorkerPoolSpawner — local worker daemons for distributed
// sweeps (DESIGN.md §16).
//
// Forks N worker processes, each serving the compile daemon protocol
// on its own Unix socket, and tears them down again. A worker is the
// forked child itself: it builds its own cfd::Session and
// serve::Server and never execs, so it needs no cfdc binary on disk,
// and a SIGKILL mid-chunk exercises the coordinator's failure path on
// a real process.
//
// Lifecycle: each worker gets one pipe, and only the child holds its
// write end (the parent closes it right after fork, so no later worker
// inherits it). The child writes one byte once its socket is bound and
// SIGTERM/SIGINT drain it, and keeps the write end open until it
// exits. So a byte means "serving", and EOF means "this worker has
// exited", however it died. start() and stopAll() block in poll(2) on
// those pipes; nothing sleeps on a timer.
//
// fork(2) safety: start() must run while the calling process is still
// single-threaded (or at least before Session/Server threads exist) —
// forking a multi-threaded process duplicates only the calling thread,
// leaving any mutex held by another thread locked forever in the
// child. The coordinator's threads come after start(), so the natural
// call order is safe; don't spawn after creating Sessions.
#pragma once

#include "support/Expected.h"

#include <string>
#include <vector>

#include <sys/types.h>

namespace cfd::dist {

struct SpawnOptions {
  /// Worker process count.
  int workers = 2;
  /// Session worker threads per worker process.
  int sessionWorkers = 1;
  /// Directory for the workers' socket files (must exist; keep it
  /// short — sun_path is ~100 bytes).
  std::string socketDir;
  /// How long start() waits for every worker to report that it serves.
  double readyTimeoutMillis = 15000;
};

class WorkerPoolSpawner {
public:
  explicit WorkerPoolSpawner(SpawnOptions options);
  /// stopAll().
  ~WorkerPoolSpawner();

  WorkerPoolSpawner(const WorkerPoolSpawner&) = delete;
  WorkerPoolSpawner& operator=(const WorkerPoolSpawner&) = delete;

  /// Forks the workers and blocks until each one has bound its socket
  /// (so a returned success means the coordinator can connect
  /// immediately). On failure every worker is stopped and reaped
  /// again.
  Expected<bool> start();

  /// Socket path per worker, valid after start().
  const std::vector<std::string>& socketPaths() const { return sockets_; }

  pid_t pid(std::size_t worker) const { return pids_[worker]; }

  /// Sends `signal` to one worker — SIGKILL is the fault-injection
  /// hammer the dist tests swing.
  void kill(std::size_t worker, int signal);

  /// SIGTERM (graceful drain), wait for every exit up to 10 s, then
  /// SIGKILL stragglers; reaps every child and unlinks leftover socket
  /// files. Idempotent.
  void stopAll();

private:
  /// Forks one worker whose pipe is `pipeFds` ([read, write]).
  pid_t spawnOne(const std::string& socketPath, const int pipeFds[2]);
  /// The forked child's body; never returns.
  [[noreturn]] void serveChild(const std::string& socketPath, int readyFd);
  /// Blocking waitpid on a worker whose pipe reached EOF (or that was
  /// SIGKILLed), then closes its pipe.
  void reap(std::size_t worker);

  SpawnOptions options_;
  std::vector<std::string> sockets_;
  std::vector<pid_t> pids_;   ///< -1 once reaped
  std::vector<int> pipes_;    ///< read end per worker; -1 once reaped
};

} // namespace cfd::dist
