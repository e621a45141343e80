#include "serve/Server.h"

#include "core/Tuner.h"
#include "serve/Io.h"

#include <cerrno>
#include <cstring>
#include <deque>
#include <sstream>
#include <utility>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace cfd::serve {

namespace {

/// One compile artifact the protocol can materialize ("report" is
/// assembled from the flow instead — see flowReportText).
struct ArtifactKind {
  const char* name;
  Artifacts flag;
  const std::string& (CompileResult::*text)() const;
};

constexpr ArtifactKind kArtifactKinds[] = {
    {"c", Artifacts::CCode, &CompileResult::cCode},
    {"mnemosyne", Artifacts::Mnemosyne, &CompileResult::mnemosyneConfig},
    {"host", Artifacts::HostCode, &CompileResult::hostCode},
    {"dot", Artifacts::CompatibilityDot, &CompileResult::compatibilityDot},
};

const ArtifactKind* findArtifactKind(const std::string& name) {
  for (const ArtifactKind& kind : kArtifactKinds)
    if (name == kind.name)
      return &kind;
  return nullptr;
}

/// The same multi-section summary cfdc prints for --emit=report, so a
/// remote compile and a local one render identically.
std::string flowReportText(const Flow& flow) {
  std::ostringstream os;
  os << "== tensor IR ==\n" << flow.program().str();
  os << "\n== schedule ==\n" << flow.schedule().str();
  os << "\n== HLS ==\n" << flow.kernelReport().str();
  os << "\n== memory plan ==\n" << flow.memoryPlan().str(flow.program());
  os << "\n== system ==\n" << flow.systemDesign().str();
  return os.str();
}

JobPriority priorityFromName(const std::string& name) {
  if (name == "low")
    return JobPriority::Low;
  if (name == "high")
    return JobPriority::High;
  return JobPriority::Normal;
}

DiagnosticList serveError(std::string message) {
  DiagnosticList diagnostics;
  diagnostics.error({}, std::move(message), "serve");
  return diagnostics;
}

/// Base options for a sweep/tune request: the session defaults with
/// the request's params applied. FlowError (unknown key, bad value)
/// converts into an "options" diagnostic like the Session's own param
/// handling.
Expected<FlowOptions> resolveBaseOptions(
    Session& session,
    const std::vector<std::pair<std::string, std::string>>& params) {
  FlowOptions options = session.defaultOptions();
  for (const auto& [key, value] : params) {
    try {
      applyTuneParam(options, key, value);
    } catch (const FlowError& e) {
      DiagnosticList diagnostics;
      diagnostics.error({}, e.what(), "options");
      return Expected<FlowOptions>::failure(std::move(diagnostics));
    }
  }
  return options;
}

json::Value sessionStatsJson(const Session::Stats& stats) {
  json::Value object = json::Value::object();
  object.set("compile_requests", stats.compileRequests);
  object.set("sweep_requests", stats.sweepRequests);
  object.set("tune_requests", stats.tuneRequests);
  object.set("failed_requests", stats.failedRequests);
  object.set("jobs_submitted", stats.jobsSubmitted);
  object.set("jobs_completed", stats.jobsCompleted);
  object.set("jobs_cancelled", stats.jobsCancelled);
  object.set("job_queue_depth", stats.jobQueueDepth);
  object.set("jobs_running", stats.jobsRunning);
  json::Value flow = json::Value::object();
  flow.set("hits", stats.flowCache.hits);
  flow.set("misses", stats.flowCache.misses);
  flow.set("entries", stats.flowCache.entries);
  object.set("flow_cache", std::move(flow));
  json::Value stage = json::Value::object();
  stage.set("hits", stats.stageCache.hits);
  stage.set("misses", stats.stageCache.misses);
  stage.set("entries", stats.stageCache.entries);
  object.set("stage_cache", std::move(stage));
  json::Value store = json::Value::object();
  store.set("enabled", stats.artifactStoreEnabled);
  store.set("hits", stats.artifactStore.hits);
  store.set("misses", stats.artifactStore.misses);
  store.set("publishes", stats.artifactStore.publishes);
  object.set("artifact_store", std::move(store));
  object.set("worker_threads", stats.workerThreads);
  return object;
}

} // namespace

/// One job awaiting its response. The typed Job handles are cheap
/// shared references; exactly the member matching `kind` is valid.
struct Server::PendingJob {
  std::int64_t id = 0;
  RequestKind kind = RequestKind::Compile;
  std::vector<std::string> artifacts; // compile: texts to include
  /// sweep_chunk: the global design-point index of each sweep row, so
  /// the response rows carry coordinates the coordinator can merge on.
  std::vector<std::int64_t> pointIndexes;
  Job<CompileResult> compile;
  Job<SweepResult> sweep; // also carries sweep_chunk (explicit points)
  Job<TuningReport> tune;

  JobState state() const {
    switch (kind) {
    case RequestKind::Compile: return compile.state();
    case RequestKind::Sweep:
    case RequestKind::SweepChunk: return sweep.state();
    default: return tune.state();
    }
  }
  bool cancel() const {
    switch (kind) {
    case RequestKind::Compile: return compile.cancel();
    case RequestKind::Sweep:
    case RequestKind::SweepChunk: return sweep.cancel();
    default: return tune.cancel();
    }
  }
};

/// Per-client connection state. The reader thread appends to
/// `pending`; the responder consumes it FIFO; `mutex`/`cv` coordinate
/// them and the shutdown drain. Writes to the socket serialize on
/// `writeMutex` because the reader (status/cancel/errors) and the
/// responder (job results) both send.
struct Server::Connection {
  int fd = -1;
  std::thread reader;
  std::thread responder;

  std::mutex mutex;
  std::condition_variable cv;
  std::deque<PendingJob> pending;
  bool closing = false;  ///< no more requests will arrive
  bool draining = false; ///< shutdown: refuse new submissions

  std::mutex writeMutex;

  std::atomic<bool> readerDone{false};
  std::atomic<bool> responderDone{false};
};

Server::Server(Session& session, ServerOptions options)
    : session_(session), options_(std::move(options)) {}

Server::~Server() {
  requestStop();
  join();
  // Only now is nobody left to write the stop pipe (requestStop
  // callers must not outlive the server).
  for (int& fd : stopPipe_) {
    if (fd >= 0)
      ::close(fd);
    fd = -1;
  }
}

void Server::bumpStat(std::int64_t Stats::*counter, std::int64_t delta) {
  std::lock_guard<std::mutex> lock(statsMutex_);
  stats_.*counter += delta;
}

Server::Stats Server::stats() const {
  std::lock_guard<std::mutex> lock(statsMutex_);
  return stats_;
}

bool Server::running() const { return running_.load(); }

Expected<bool> Server::start() {
  if (running_.load())
    return Expected<bool>::failure("server already started", "serve");
  // Restarting a stopped server reuses this object: retire the
  // previous run's accept thread and stop pipe first.
  join();
  for (int& fd : stopPipe_) {
    if (fd >= 0)
      ::close(fd);
    fd = -1;
  }

  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (options_.socketPath.empty() ||
      options_.socketPath.size() >= sizeof(address.sun_path))
    return Expected<bool>::failure(
        "socket path '" + options_.socketPath +
            "' is empty or too long for a Unix domain socket",
        "serve");
  std::memcpy(address.sun_path, options_.socketPath.c_str(),
              options_.socketPath.size() + 1);

  // A socket file already on the path is either a live daemon (a probe
  // connect succeeds — refuse to double-bind) or the residue of a
  // crashed one (nobody accepts — replace it).
  if (::access(options_.socketPath.c_str(), F_OK) == 0) {
    const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (probe < 0)
      return Expected<bool>::failure(
          std::string("cannot create probe socket: ") + std::strerror(errno),
          "serve");
    const bool alive =
        ::connect(probe, reinterpret_cast<const sockaddr*>(&address),
                  sizeof(address)) == 0;
    ::close(probe);
    if (alive)
      return Expected<bool>::failure("another daemon is already serving on '" +
                                         options_.socketPath + "'",
                                     "serve");
    ::unlink(options_.socketPath.c_str());
    bumpStat(&Stats::staleSocketsReplaced);
  }

  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0)
    return Expected<bool>::failure(
        std::string("cannot create socket: ") + std::strerror(errno),
        "serve");
  if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listenFd_, options_.listenBacklog) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    return Expected<bool>::failure("cannot listen on '" +
                                       options_.socketPath + "': " + reason,
                                   "serve");
  }
  if (::pipe(stopPipe_) != 0) {
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(options_.socketPath.c_str());
    return Expected<bool>::failure(
        std::string("cannot create stop pipe: ") + std::strerror(errno),
        "serve");
  }
  // The write end must never block a signal handler.
  ::fcntl(stopPipe_[1], F_SETFL, O_NONBLOCK);

  stopRequested_.store(false);
  running_.store(true);
  acceptThread_ = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::requestStop() {
  // Async-signal-safe: one atomic store and one write(2). Everything
  // else happens on the accept thread.
  stopRequested_.store(true);
  if (stopPipe_[1] >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(stopPipe_[1], &byte, 1);
  }
}

void Server::join() {
  if (acceptThread_.joinable())
    acceptThread_.join();
}

void Server::acceptLoop() {
  while (!stopRequested_.load()) {
    pollfd fds[2] = {{listenFd_, POLLIN, 0}, {stopPipe_[0], POLLIN, 0}};
    // The timeout only bounds how often finished connections are
    // reaped; stop wakes the poll through the pipe immediately.
    const int ready = ::poll(fds, 2, 200);
    if (stopRequested_.load())
      break;
    if (ready > 0 && (fds[0].revents & POLLIN) != 0) {
      const int fd = ::accept(listenFd_, nullptr, nullptr);
      if (fd >= 0)
        spawnConnection(fd);
    }
    reapFinished();
  }
  drainAndClose();
  running_.store(false);
}

void Server::spawnConnection(int fd) {
  auto connection = std::make_shared<Connection>();
  connection->fd = fd;
  {
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    connections_.push_back(connection);
  }
  bumpStat(&Stats::connectionsAccepted);
  connection->reader = std::thread([this, connection] {
    readerLoop(connection);
  });
  connection->responder = std::thread([this, connection] {
    responderLoop(connection);
  });
}

void Server::reapFinished() {
  std::vector<std::shared_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->readerDone.load() && (*it)->responderDone.load()) {
        finished.push_back(*it);
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& connection : finished) {
    connection->reader.join();
    connection->responder.join();
    ::close(connection->fd);
    bumpStat(&Stats::connectionsClosed);
  }
}

void Server::drainAndClose() {
  // 1. Stop accepting: close the listen socket and remove the name, so
  //    new clients fail fast instead of queueing on a dying daemon.
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }
  ::unlink(options_.socketPath.c_str());

  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    connections = connections_;
  }

  // 2. Refuse new submissions and cancel jobs that never started;
  //    running jobs keep going (the drain below waits for them).
  for (const auto& connection : connections) {
    std::lock_guard<std::mutex> lock(connection->mutex);
    connection->draining = true;
    for (const PendingJob& pending : connection->pending)
      if (pending.state() == JobState::Queued && pending.cancel())
        bumpStat(&Stats::cancelledOnShutdown);
  }

  // 3. Drain: every outstanding job resolves and its response is
  //    written before the connection is torn down.
  for (const auto& connection : connections) {
    std::unique_lock<std::mutex> lock(connection->mutex);
    connection->cv.wait(lock, [&] { return connection->pending.empty(); });
  }

  // 4. Wake readers blocked in recv and let both threads exit.
  for (const auto& connection : connections) {
    ::shutdown(connection->fd, SHUT_RDWR);
    std::lock_guard<std::mutex> lock(connection->mutex);
    connection->closing = true;
    connection->cv.notify_all();
  }
  for (const auto& connection : connections) {
    if (connection->reader.joinable())
      connection->reader.join();
    if (connection->responder.joinable())
      connection->responder.join();
    ::close(connection->fd);
    bumpStat(&Stats::connectionsClosed);
  }
  {
    std::lock_guard<std::mutex> lock(connectionsMutex_);
    connections_.clear();
  }
  // The stop pipe stays open: requestStop() may race this drain from
  // a signal handler or another thread, and a write to a closed fd
  // would be the exact use-after-close TSan flags. The destructor
  // closes it once the accept thread is joined.
}

void Server::readerLoop(const std::shared_ptr<Connection>& connection) {
  // The stream's unterminated tail: each read handles the lines it
  // completes, scanning only the bytes it appended for their newline.
  std::string buffer;
  char chunk[4096];
  for (;;) {
    const ssize_t n = recvSome(connection->fd, chunk, sizeof(chunk));
    if (n <= 0) {
      // Mirror the client-side leftover rule: an unterminated final
      // request before an orderly EOF is still a request.
      if (n == 0 && !buffer.empty())
        handleLine(*connection, buffer);
      break;
    }
    std::size_t scanFrom = buffer.size();
    buffer.append(chunk, static_cast<std::size_t>(n));
    std::size_t lineStart = 0;
    for (std::size_t newline;
         (newline = buffer.find('\n', scanFrom)) != std::string::npos &&
         newline - lineStart <= kMaxRequestBytes;
         lineStart = scanFrom = newline + 1)
      if (newline > lineStart)
        handleLine(*connection, std::string_view(buffer).substr(
                                    lineStart, newline - lineStart));
    // Only the unterminated tail, if any, stays for the next read.
    buffer.erase(0, lineStart);
    if (buffer.size() > kMaxRequestBytes) {
      // The line is over the bound (whether or not its newline has
      // arrived): one error, then the connection closes instead of
      // buffering on.
      bumpStat(&Stats::requestsReceived);
      bumpStat(&Stats::protocolErrors);
      sendResponse(*connection,
                   errorResponse(0, RequestKind::Invalid,
                                 serveError("request line longer than " +
                                            std::to_string(kMaxRequestBytes) +
                                            " bytes")));
      break;
    }
  }
  // EOF or error: the client is gone. Cancel whatever it still had in
  // flight — cooperatively, so a running compile stops at its next
  // stage boundary instead of pinning a worker for a dead peer.
  {
    std::lock_guard<std::mutex> lock(connection->mutex);
    if (!connection->closing)
      for (const PendingJob& pending : connection->pending)
        if (pending.cancel())
          bumpStat(&Stats::cancelledOnDisconnect);
    connection->closing = true;
    connection->cv.notify_all();
  }
  connection->readerDone.store(true);
}

void Server::responderLoop(const std::shared_ptr<Connection>& connection) {
  for (;;) {
    PendingJob pending;
    {
      std::unique_lock<std::mutex> lock(connection->mutex);
      connection->cv.wait(lock, [&] {
        return !connection->pending.empty() || connection->closing;
      });
      if (connection->pending.empty())
        break; // closing and nothing left to answer
      pending = connection->pending.front();
    }
    // Blocks until the job resolves; cancellation (disconnect,
    // deadline, shutdown) resolves it too, so this always returns.
    const Response response = buildResponse(pending);
    sendResponse(*connection, response);
    {
      std::lock_guard<std::mutex> lock(connection->mutex);
      connection->pending.pop_front();
      connection->cv.notify_all(); // wakes the shutdown drain
    }
  }
  connection->responderDone.store(true);
}

void Server::sendResponse(Connection& connection, const Response& response) {
  std::string line = response.encode();
  line += '\n';
  std::lock_guard<std::mutex> lock(connection.writeMutex);
  if (!sendAll(connection.fd, line.data(), line.size()))
    return; // peer gone; the reader notices and cleans up
  // Streamed events are extra messages, not answers: counting them as
  // responses would break the requestsReceived == responsesSent
  // steady-state invariant the status report exposes.
  bumpStat(response.event.empty() ? &Stats::responsesSent
                                  : &Stats::progressEvents);
}

void Server::handleLine(Connection& connection, std::string_view line) {
  bumpStat(&Stats::requestsReceived);
  std::int64_t echoId = 0;
  const Expected<Request> parsed = Request::parse(line, &echoId);
  if (!parsed) {
    bumpStat(&Stats::protocolErrors);
    sendResponse(connection, errorResponse(echoId, RequestKind::Invalid,
                                           parsed.diagnostics()));
    return;
  }
  const Request& request = *parsed;

  // Control requests are answered inline: they must not queue behind a
  // long compile, and cancel has to reach a job that is still pending.
  switch (request.kind) {
  case RequestKind::Status:
    sendResponse(connection, statusResponse(request.id));
    return;
  case RequestKind::Cancel: {
    bool cancelled = false;
    {
      std::lock_guard<std::mutex> lock(connection.mutex);
      for (const PendingJob& pending : connection.pending)
        if (pending.id == request.target) {
          cancelled = pending.cancel();
          break;
        }
    }
    Response response;
    response.id = request.id;
    response.kind = RequestKind::Cancel;
    response.ok = true;
    response.result = json::Value::object();
    response.result.set("cancelled", cancelled);
    sendResponse(connection, response);
    return;
  }
  case RequestKind::Shutdown: {
    Response response;
    response.id = request.id;
    response.kind = RequestKind::Shutdown;
    response.ok = true;
    response.result = json::Value::object();
    response.result.set("draining", true);
    sendResponse(connection, response);
    requestStop();
    return;
  }
  default:
    break;
  }

  JobConfig config;
  config.priority = priorityFromName(request.priority);
  config.deadlineMillis = request.deadlineMillis;

  PendingJob pending;
  pending.id = request.id;
  pending.kind = request.kind;

  {
    // Submission happens under the connection mutex so a concurrent
    // shutdown cannot slip between the draining check and the queue
    // push (it would drain without seeing this job).
    std::lock_guard<std::mutex> lock(connection.mutex);
    if (connection.draining || stopRequested_.load()) {
      sendResponse(connection,
                   errorResponse(request.id, request.kind,
                                 serveError("daemon is shutting down"),
                                 /*cancelled=*/true));
      return;
    }
    switch (request.kind) {
    case RequestKind::Compile: {
      CompileRequest compile(request.source);
      for (const auto& [key, value] : request.params)
        compile.set(key, value);
      for (const std::string& name : request.artifacts) {
        if (name == "report")
          continue; // assembled from the flow on response
        const ArtifactKind* kind = findArtifactKind(name);
        if (kind == nullptr) {
          sendResponse(connection,
                       errorResponse(request.id, request.kind,
                                     serveError("unknown artifact '" + name +
                                                "' (valid: c, mnemosyne, "
                                                "host, dot, report)")));
          return;
        }
        compile.materialize(kind->flag);
      }
      pending.artifacts = request.artifacts;
      pending.compile = session_.submitCompile(std::move(compile), config);
      break;
    }
    case RequestKind::Sweep: {
      Expected<FlowOptions> base =
          resolveBaseOptions(session_, request.params);
      if (!base) {
        sendResponse(connection, errorResponse(request.id, request.kind,
                                               base.diagnostics()));
        return;
      }
      SweepRequest sweep(request.source);
      sweep.options(std::move(*base));
      for (const AxisSpec& axis : request.axes)
        sweep.axis(axis.key, axis.values);
      pending.sweep = session_.submitSweep(std::move(sweep), config);
      break;
    }
    case RequestKind::SweepChunk: {
      Expected<FlowOptions> base =
          resolveBaseOptions(session_, request.params);
      if (!base) {
        sendResponse(connection, errorResponse(request.id, request.kind,
                                               base.diagnostics()));
        return;
      }
      SweepRequest sweep(request.source);
      sweep.options(std::move(*base));
      std::vector<SweepPoint> points;
      points.reserve(request.points.size());
      for (const ChunkPoint& point : request.points) {
        pending.pointIndexes.push_back(point.index);
        points.push_back(SweepPoint{point.label, point.params});
      }
      sweep.points(std::move(points));
      // Stream one progress event per completed point so the
      // coordinator can tell a slow chunk from a dead worker
      // (DESIGN.md §16). Safe to capture the connection by pointer:
      // every callback returns before the sweep job resolves, and the
      // connection outlives its last pending response.
      sweep.onProgress([this, connection = &connection,
                        id = request.id](std::size_t done,
                                         std::size_t total) {
        Response event;
        event.id = id;
        event.kind = RequestKind::SweepChunk;
        event.ok = true;
        event.event = "progress";
        event.result = json::Value::object();
        event.result.set("done", done);
        event.result.set("total", total);
        sendResponse(*connection, event);
      });
      pending.sweep = session_.submitSweep(std::move(sweep), config);
      break;
    }
    case RequestKind::Tune: {
      Expected<FlowOptions> base =
          resolveBaseOptions(session_, request.params);
      if (!base) {
        sendResponse(connection, errorResponse(request.id, request.kind,
                                               base.diagnostics()));
        return;
      }
      TuneRequest tune(request.source);
      tune.options(std::move(*base));
      if (!request.strategy.empty()) {
        try {
          tune.strategy(searchStrategyByName(request.strategy));
        } catch (const FlowError& e) {
          sendResponse(connection, errorResponse(request.id, request.kind,
                                                 serveError(e.what())));
          return;
        }
      }
      tune.seed(request.seed)
          .samples(request.samples)
          .maxSteps(request.maxSteps)
          .objectives(request.objectives);
      for (const AxisSpec& axis : request.axes)
        tune.axis(axis.key, axis.values);
      pending.tune = session_.submitTune(std::move(tune), config);
      break;
    }
    default:
      break;
    }
    connection.pending.push_back(std::move(pending));
    connection.cv.notify_all();
  }
}

Response Server::buildResponse(const PendingJob& pending) {
  Response response;
  response.id = pending.id;
  response.kind = pending.kind;
  switch (pending.kind) {
  case RequestKind::Compile: {
    const Expected<CompileResult>& result = pending.compile.wait();
    if (!result.ok())
      return errorResponse(pending.id, pending.kind, result.diagnostics(),
                           pending.compile.state() == JobState::Cancelled);
    response.ok = true;
    response.result = json::Value::object();
    response.result.set("cache_hit", result->cacheHit());
    response.result.set("compile_ms", result->compileMillis());
    json::Value artifacts = json::Value::object();
    for (const std::string& name : pending.artifacts) {
      if (name == "report") {
        artifacts.set(name, flowReportText(result->flow()));
        continue;
      }
      if (const ArtifactKind* kind = findArtifactKind(name))
        artifacts.set(name, ((*result).*(kind->text))());
    }
    if (!pending.artifacts.empty())
      response.result.set("artifacts", std::move(artifacts));
    break;
  }
  case RequestKind::Sweep: {
    const Expected<SweepResult>& result = pending.sweep.wait();
    if (!result.ok())
      return errorResponse(pending.id, pending.kind, result.diagnostics(),
                           pending.sweep.state() == JobState::Cancelled);
    response.ok = true;
    response.result = json::Value::object();
    json::Value rows = json::Value::array();
    for (std::size_t i = 0; i < result->rows().size(); ++i) {
      const ExplorationRow& row = result->rows()[i];
      json::Value entry = json::Value::object();
      entry.set("label", result->labels[i]);
      entry.set("feasible", row.ok());
      if (!row.ok()) {
        entry.set("error", row.error);
      } else {
        entry.set("m", row.flow->systemDesign().m);
        entry.set("k", row.flow->systemDesign().k);
        entry.set("bram_per_plm", row.flow->systemDesign().plmBram36PerUnit);
        entry.set("kernel_us", row.flow->kernelReport().timeUs());
        entry.set("cache_hit", row.cacheHit);
        entry.set("resumed", row.resumedFrom);
      }
      rows.push(std::move(entry));
    }
    response.result.set("rows", std::move(rows));
    response.result.set("workers", result->exploration.workers);
    response.result.set("wall_ms", result->exploration.wallMillis);
    break;
  }
  case RequestKind::SweepChunk: {
    const Expected<SweepResult>& result = pending.sweep.wait();
    if (!result.ok())
      return errorResponse(pending.id, pending.kind, result.diagnostics(),
                           pending.sweep.state() == JobState::Cancelled);
    response.ok = true;
    response.result = json::Value::object();
    // Only deterministic row members go on the wire: the coordinator
    // merges chunks into a report that must be byte-identical to a
    // single-process sweep, so run-dependent fields (cache_hit,
    // compile_ms) stay out.
    json::Value rows = json::Value::array();
    for (std::size_t i = 0; i < result->rows().size(); ++i) {
      const ExplorationRow& row = result->rows()[i];
      json::Value entry = json::Value::object();
      entry.set("index", pending.pointIndexes[i]);
      entry.set("label", result->labels[i]);
      entry.set("feasible", row.ok());
      if (!row.ok()) {
        entry.set("error", row.error);
      } else {
        entry.set("m", row.flow->systemDesign().m);
        entry.set("k", row.flow->systemDesign().k);
        entry.set("bram_per_plm", row.flow->systemDesign().plmBram36PerUnit);
        entry.set("kernel_us", row.flow->kernelReport().timeUs());
      }
      rows.push(std::move(entry));
    }
    response.result.set("rows", std::move(rows));
    response.result.set("points", result->rows().size());
    break;
  }
  default: { // Tune
    const Expected<TuningReport>& result = pending.tune.wait();
    if (!result.ok())
      return errorResponse(pending.id, pending.kind, result.diagnostics(),
                           pending.tune.state() == JobState::Cancelled);
    response.ok = true;
    response.result = result->toJson();
    break;
  }
  }
  return response;
}

Response Server::statusResponse(std::int64_t id) const {
  Response response;
  response.id = id;
  response.kind = RequestKind::Status;
  response.ok = true;
  response.result = json::Value::object();
  response.result.set("stats", sessionStatsJson(session_.stats()));
  const Stats server = stats();
  json::Value serverStats = json::Value::object();
  serverStats.set("connections_accepted", server.connectionsAccepted);
  serverStats.set("requests_received", server.requestsReceived);
  serverStats.set("responses_sent", server.responsesSent);
  serverStats.set("progress_events", server.progressEvents);
  serverStats.set("protocol_errors", server.protocolErrors);
  serverStats.set("cancelled_on_disconnect", server.cancelledOnDisconnect);
  serverStats.set("cancelled_on_shutdown", server.cancelledOnShutdown);
  serverStats.set("stale_sockets_replaced", server.staleSocketsReplaced);
  response.result.set("server", std::move(serverStats));
  // The exact statsReport() text a single-shot cfdc run prints, so a
  // live daemon is observable with the same eyes.
  response.result.set("report", session_.statsReport());
  return response;
}

} // namespace cfd::serve
