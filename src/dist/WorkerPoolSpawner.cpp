#include "dist/WorkerPoolSpawner.h"

#include "core/Session.h"
#include "serve/Server.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstring>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

namespace cfd::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// The child's SIGTERM target: one server per worker process.
serve::Server* gChildServer = nullptr;

extern "C" void onChildStopSignal(int) {
  if (gChildServer != nullptr)
    gChildServer->requestStop(); // async-signal-safe by contract
}

/// Waits until an entry of `fds` is readable or hung up; false once
/// `deadline` passes first. Entries with a negative fd are skipped, as
/// poll(2) skips them.
bool waitAny(std::vector<pollfd>& fds, Clock::time_point deadline) {
  for (;;) {
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    const int timeout = static_cast<int>(
        std::clamp<std::chrono::milliseconds::rep>(left.count(), 0, INT_MAX));
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    if (ready > 0)
      return true;
    if (ready == 0 || errno != EINTR)
      return false;
  }
}

/// Reads one byte from a worker's pipe: true for the ready byte, false
/// at EOF (the worker has exited).
bool readByte(int fd) {
  char byte = 0;
  ssize_t got = 0;
  do
    got = ::read(fd, &byte, 1);
  while (got < 0 && errno == EINTR);
  return got == 1;
}

} // namespace

WorkerPoolSpawner::WorkerPoolSpawner(SpawnOptions options)
    : options_(std::move(options)) {}

WorkerPoolSpawner::~WorkerPoolSpawner() { stopAll(); }

void WorkerPoolSpawner::serveChild(const std::string& socketPath,
                                   int readyFd) {
  // A fresh session per worker: the whole point of the distributed
  // sweep is N independent processes with N worker pools. Defaults
  // only (no cache dir) so every worker derives options identically.
  Session session(SessionOptions{.workers = options_.sessionWorkers});
  serve::Server server(session, {.socketPath = socketPath});
  if (!server.start())
    ::_exit(1);
  gChildServer = &server;
  std::signal(SIGTERM, onChildStopSignal);
  std::signal(SIGINT, onChildStopSignal);
  // Bound, and SIGTERM now drains: tell the parent. readyFd stays open
  // until _exit, so its EOF tells the parent this process has ended.
  const char ready = 1;
  ssize_t sent = 0;
  do
    sent = ::write(readyFd, &ready, 1);
  while (sent < 0 && errno == EINTR);
  if (sent != 1)
    ::_exit(1); // nobody is waiting for this worker any more
  server.join();
  gChildServer = nullptr;
  // _exit, not exit: the child shares the parent's atexit list and
  // stdio buffers, and must not flush or tear down what it forked.
  ::_exit(0);
}

pid_t WorkerPoolSpawner::spawnOne(const std::string& socketPath,
                                  const int pipeFds[2]) {
  const pid_t pid = ::fork();
  if (pid != 0)
    return pid; // parent (or fork failure, pid < 0)
  // Child: it keeps only its own write end. With no read end left in
  // any worker, the ready byte fails (and the worker exits) if the
  // parent is already gone.
  ::close(pipeFds[0]);
  for (const int fd : pipes_)
    ::close(fd);
  // Workers are quiet: the coordinator owns the terminal.
  const int devNull = ::open("/dev/null", O_WRONLY);
  if (devNull >= 0) {
    ::dup2(devNull, STDOUT_FILENO);
    ::dup2(devNull, STDERR_FILENO);
    ::close(devNull);
  }
  serveChild(socketPath, pipeFds[1]);
}

Expected<bool> WorkerPoolSpawner::start() {
  if (!pids_.empty())
    return Expected<bool>::failure("workers already started", "dist");
  if (options_.workers <= 0)
    return Expected<bool>::failure("worker count must be positive", "dist");

  for (int i = 0; i < options_.workers; ++i) {
    const std::string socketPath =
        options_.socketDir + "/worker" + std::to_string(i) + ".sock";
    ::unlink(socketPath.c_str());
    int pipeFds[2] = {-1, -1};
    if (::pipe2(pipeFds, O_CLOEXEC) != 0) {
      const std::string reason = std::strerror(errno);
      stopAll();
      return Expected<bool>::failure(
          "cannot create a worker pipe: " + reason, "dist");
    }
    const pid_t pid = spawnOne(socketPath, pipeFds);
    const int forkError = errno;
    // Closed before the next fork, so only this worker ever holds the
    // write end and EOF on the pipe means exactly "it has exited".
    ::close(pipeFds[1]);
    if (pid < 0) {
      ::close(pipeFds[0]);
      stopAll();
      return Expected<bool>::failure(
          std::string("cannot fork worker: ") + std::strerror(forkError),
          "dist");
    }
    sockets_.push_back(socketPath);
    pids_.push_back(pid);
    pipes_.push_back(pipeFds[0]);
  }

  // Readiness: every pipe is polled together until each worker has
  // written its byte, so run() never races the children's bind/listen.
  // EOF before the byte means the worker exited without serving.
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(
                             options_.readyTimeoutMillis));
  std::vector<pollfd> waiting;
  for (const int fd : pipes_)
    waiting.push_back({fd, POLLIN, 0});
  for (std::size_t ready = 0; ready < waiting.size();) {
    if (!waitAny(waiting, deadline)) {
      std::size_t late = 0;
      while (waiting[late].fd < 0)
        ++late;
      // Built before stopAll(), which clears sockets_.
      const std::string message =
          "worker " + std::to_string(late) + " did not serve on '" +
          sockets_[late] + "' within " +
          std::to_string(static_cast<int>(options_.readyTimeoutMillis)) +
          " ms";
      stopAll();
      return Expected<bool>::failure(message, "dist");
    }
    for (std::size_t i = 0; i < waiting.size(); ++i) {
      if (waiting[i].fd < 0 || waiting[i].revents == 0)
        continue;
      if (readByte(pipes_[i])) {
        waiting[i].fd = -1; // serving; the pipe stays open for stopAll()
        ++ready;
        continue;
      }
      const std::string message = "worker " + std::to_string(i) +
                                  " exited before serving on '" +
                                  sockets_[i] + "'";
      reap(i);
      stopAll();
      return Expected<bool>::failure(message, "dist");
    }
  }
  return true;
}

void WorkerPoolSpawner::kill(std::size_t worker, int signal) {
  if (worker < pids_.size() && pids_[worker] > 0)
    ::kill(pids_[worker], signal);
}

void WorkerPoolSpawner::reap(std::size_t worker) {
  int status = 0;
  while (::waitpid(pids_[worker], &status, 0) < 0 && errno == EINTR) {
  }
  pids_[worker] = -1;
  ::close(pipes_[worker]);
  pipes_[worker] = -1;
}

void WorkerPoolSpawner::stopAll() {
  for (const pid_t pid : pids_)
    if (pid > 0)
      ::kill(pid, SIGTERM);
  // Graceful drain first: the daemons answer SIGTERM by draining
  // in-flight responses, and each pipe reaches EOF when its worker
  // exits.
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  std::vector<pollfd> running;
  std::size_t left = 0;
  for (const int fd : pipes_) {
    running.push_back({fd, POLLIN, 0});
    left += fd >= 0 ? 1 : 0;
  }
  while (left > 0 && waitAny(running, deadline)) {
    for (std::size_t i = 0; i < running.size(); ++i) {
      if (running[i].fd < 0 || running[i].revents == 0)
        continue;
      if (readByte(pipes_[i]))
        continue; // an unread ready byte; EOF comes after it
      running[i].fd = -1;
      reap(i);
      --left;
    }
  }
  // SIGKILL whatever ignored SIGTERM (or is stopped) past the deadline.
  for (std::size_t i = 0; i < pids_.size(); ++i) {
    if (pids_[i] <= 0)
      continue;
    ::kill(pids_[i], SIGKILL);
    reap(i);
  }
  pids_.clear();
  pipes_.clear();
  for (const std::string& socketPath : sockets_)
    ::unlink(socketPath.c_str());
  sockets_.clear();
}

} // namespace cfd::dist
