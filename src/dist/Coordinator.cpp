#include "dist/Coordinator.h"

#include "core/Pareto.h"
#include "serve/Client.h"
#include "serve/Protocol.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>

#include <poll.h>

namespace cfd::dist {

namespace {

using Clock = std::chrono::steady_clock;

double millisSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// One expanded design point, already carrying everything a worker
/// needs (serve::ChunkPoint is the identical wire shape).
struct Point {
  std::int64_t index = 0;
  std::string label;
  std::vector<std::pair<std::string, std::string>> params;
};

/// A contiguous range of points plus its dispatch history.
struct Chunk {
  std::size_t first = 0;
  std::size_t count = 0;
  int attempts = 0; ///< completed dispatch attempts so far
};

/// Expands the axis cross product in exactly the tuner's order and
/// label grammar (core/Tuner.cpp expandAxisVariantsInto), but into
/// (index, label, params) instead of FlowOptions — the wire shape.
/// Determinism across processes hinges on this mirror staying exact.
void expandPointsInto(const std::vector<TuneAxis>& axes,
                      std::size_t axisIndex, const std::string& label,
                      std::vector<std::pair<std::string, std::string>>& params,
                      std::vector<Point>& out) {
  if (axisIndex == axes.size()) {
    out.push_back(Point{static_cast<std::int64_t>(out.size()),
                        label.empty() ? "base" : label, params});
    return;
  }
  const TuneAxis& axis = axes[axisIndex];
  for (const std::string& value : axis.values) {
    params.emplace_back(axis.key, value);
    expandPointsInto(axes, axisIndex + 1,
                     label.empty() ? axis.key + "=" + value
                                   : label + " " + axis.key + "=" + value,
                     params, out);
    params.pop_back();
  }
}

/// All coordination state shared by the per-worker threads.
struct RunState {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Chunk> queue;
  std::size_t chunksOutstanding = 0; ///< queued + in flight
  int liveWorkers = 0;
  bool failed = false;
  DiagnosticList failure;

  std::vector<DistRow> rows;
  std::vector<bool> have;
  std::size_t pointsDone = 0; ///< merged progress across chunks

  DistSweepStats stats;

  /// Both mark the sweep failed exactly once and wake everyone.
  void fail(DiagnosticList diagnostics) {
    if (!failed) {
      failed = true;
      failure = std::move(diagnostics);
    }
    cv.notify_all();
  }
  void fail(std::string message) {
    DiagnosticList diagnostics;
    diagnostics.error({}, std::move(message), "dist");
    fail(std::move(diagnostics));
  }
};

/// Why runChunk returned without a merged result.
enum class ChunkOutcome {
  Done,    ///< rows merged
  Lost,    ///< EOF/error on the socket — the worker is gone
  Demoted, ///< no progress within the deadline — cut the worker off
  Refused, ///< structured error response; the worker itself is healthy
};

DiagnosticList refusalFor(const serve::Response& response) {
  DiagnosticList diagnostics = response.diagnostics;
  if (!diagnostics.hasErrors())
    diagnostics.error({}, "worker refused the chunk without diagnostics",
                      "dist");
  return diagnostics;
}

} // namespace

std::vector<std::size_t> distFrontier(const std::vector<DistRow>& rows) {
  std::vector<std::size_t> feasible;
  std::vector<std::vector<double>> objectives;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].feasible)
      continue;
    feasible.push_back(i);
    objectives.push_back(
        {rows[i].kernelUs,
         static_cast<double>(rows[i].m * rows[i].bramPerPlm)});
  }
  std::vector<std::size_t> frontier;
  for (std::size_t j : paretoFrontier(objectives))
    frontier.push_back(feasible[j]);
  return frontier;
}

json::Value DistSweepResult::reportJson() const {
  json::Value report = json::Value::object();
  report.set("schema", "cfd-sweep-v1");
  report.set("points", static_cast<std::int64_t>(rows.size()));
  json::Value rowArray = json::Value::array();
  for (const DistRow& row : rows) {
    json::Value entry = json::Value::object();
    entry.set("index", row.index);
    entry.set("label", row.label);
    entry.set("feasible", row.feasible);
    if (!row.feasible) {
      entry.set("error", row.error);
    } else {
      entry.set("m", row.m);
      entry.set("k", row.k);
      entry.set("bram_per_plm", row.bramPerPlm);
      entry.set("kernel_us", row.kernelUs);
    }
    rowArray.push(std::move(entry));
  }
  report.set("rows", std::move(rowArray));
  json::Value frontierArray = json::Value::array();
  for (std::size_t i : frontier)
    frontierArray.push(rows[i].label);
  report.set("frontier", std::move(frontierArray));
  return report;
}

std::string DistSweepResult::reportText() const {
  return reportJson().dump(2) + "\n";
}

DistSweepResult SweepCoordinator::fromSweepResult(const SweepResult& sweep) {
  DistSweepResult result;
  result.rows.reserve(sweep.rows().size());
  for (std::size_t i = 0; i < sweep.rows().size(); ++i) {
    const ExplorationRow& row = sweep.rows()[i];
    DistRow out;
    out.index = static_cast<std::int64_t>(i);
    out.label = sweep.labels[i];
    out.feasible = row.ok();
    if (!row.ok()) {
      out.error = row.error;
    } else {
      out.m = row.flow->systemDesign().m;
      out.k = row.flow->systemDesign().k;
      out.bramPerPlm = row.flow->systemDesign().plmBram36PerUnit;
      out.kernelUs = row.flow->kernelReport().timeUs();
    }
    result.rows.push_back(std::move(out));
  }
  result.frontier = distFrontier(result.rows);
  return result;
}

SweepCoordinator::SweepCoordinator(DistSweepOptions options)
    : options_(std::move(options)) {}

namespace {

/// Runs one chunk on one worker connection. Merging happens here (under
/// the state mutex) so a Done return leaves nothing else to do.
ChunkOutcome runChunk(serve::Client& client, const Chunk& chunk,
                      const std::vector<Point>& points,
                      const DistSweepOptions& options, RunState& state,
                      DiagnosticList* refusal) {
  serve::Request request;
  request.kind = serve::RequestKind::SweepChunk;
  request.id = client.nextId();
  request.source = options.source;
  request.params = options.baseParams;
  request.points.reserve(chunk.count);
  for (std::size_t i = chunk.first; i < chunk.first + chunk.count; ++i)
    request.points.push_back(
        serve::ChunkPoint{points[i].index, points[i].label,
                          points[i].params});
  if (!client.send(request))
    return ChunkOutcome::Lost;

  // Drain progress events until the final response. The straggler
  // deadline is an *inactivity* deadline: every progress event resets
  // it, so a big chunk on a healthy worker is never punished for
  // being big.
  std::size_t localDone = 0; ///< points this attempt has reported
  auto uncount = [&] {
    std::lock_guard<std::mutex> lock(state.mutex);
    state.pointsDone -= localDone;
  };
  Clock::time_point lastActivity = Clock::now();
  for (;;) {
    if (options.chunkDeadlineMillis > 0 && !client.hasBufferedLine()) {
      const double remaining =
          options.chunkDeadlineMillis - millisSince(lastActivity);
      if (remaining <= 0) {
        uncount();
        return ChunkOutcome::Demoted;
      }
      pollfd pfd{client.fd(), POLLIN, 0};
      const int ready =
          ::poll(&pfd, 1, std::max(1, static_cast<int>(remaining)));
      if (ready == 0)
        continue; // timed out: re-check the deadline
      if (ready < 0 && errno == EINTR)
        continue;
      if (ready < 0) {
        uncount();
        return ChunkOutcome::Lost;
      }
    }
    Expected<serve::Response> message = client.receiveAny();
    if (!message) {
      uncount();
      return ChunkOutcome::Lost;
    }
    if (message->event == "progress") {
      lastActivity = Clock::now();
      const std::int64_t done = message->result.contains("done")
                                    ? message->result.at("done").asInt()
                                    : 0;
      std::size_t totalDone = 0;
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        ++state.stats.progressEvents;
        if (done > 0 && static_cast<std::size_t>(done) > localDone) {
          state.pointsDone += static_cast<std::size_t>(done) - localDone;
          localDone = static_cast<std::size_t>(done);
        }
        totalDone = state.pointsDone;
      }
      if (options.onProgress)
        options.onProgress(totalDone, state.rows.size());
      continue;
    }
    if (message->id != request.id)
      continue; // not ours (cannot happen with one request in flight)
    if (!message->ok) {
      uncount();
      *refusal = refusalFor(*message);
      return ChunkOutcome::Refused;
    }
    // Final response: merge rows by global index, first arrival wins
    // (identical by construction — every worker compiles the same
    // (source, options) through the same pipeline).
    try {
      // Row strings move out of the parsed response.
      json::Value& rows = message->result.at("rows");
      std::lock_guard<std::mutex> lock(state.mutex);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        json::Value& entry = rows.at(i);
        const std::int64_t index = entry.at("index").asInt();
        if (index < 0 ||
            static_cast<std::size_t>(index) >= state.rows.size() ||
            state.have[static_cast<std::size_t>(index)])
          continue;
        DistRow row;
        row.index = index;
        row.label = std::move(entry.at("label")).asString();
        row.feasible = entry.at("feasible").asBool();
        if (!row.feasible) {
          row.error = std::move(entry.at("error")).asString();
        } else {
          row.m = entry.at("m").asInt();
          row.k = entry.at("k").asInt();
          row.bramPerPlm = entry.at("bram_per_plm").asInt();
          row.kernelUs = entry.at("kernel_us").asDouble();
        }
        state.rows[static_cast<std::size_t>(index)] = std::move(row);
        state.have[static_cast<std::size_t>(index)] = true;
      }
      // Progress events and the final response are both in-order on
      // the same stream, so localDone == chunk.count here unless the
      // daemon predates progress events; top up either way.
      state.pointsDone += chunk.count - localDone;
    } catch (const FlowError&) {
      // A result shape we cannot read is as bad as a dead worker.
      uncount();
      return ChunkOutcome::Lost;
    }
    if (options.onProgress) {
      std::size_t totalDone = 0;
      {
        std::lock_guard<std::mutex> lock(state.mutex);
        totalDone = state.pointsDone;
      }
      options.onProgress(totalDone, state.rows.size());
    }
    return ChunkOutcome::Done;
  }
}

/// Requeues `chunk` after a failed attempt, or fails the sweep when
/// its attempts are spent. Caller holds the state mutex.
void requeueLocked(RunState& state, Chunk chunk, int maxAttempts,
                   const std::string& reason,
                   DiagnosticList refusal = {}) {
  ++chunk.attempts;
  if (chunk.attempts >= maxAttempts) {
    if (refusal.hasErrors()) {
      refusal.error({},
                    "chunk covering points " + std::to_string(chunk.first) +
                        ".." + std::to_string(chunk.first + chunk.count - 1) +
                        " failed after " + std::to_string(chunk.attempts) +
                        " attempts",
                    "dist");
      state.fail(std::move(refusal));
    } else {
      state.fail("chunk covering points " + std::to_string(chunk.first) +
                 ".." + std::to_string(chunk.first + chunk.count - 1) +
                 " failed after " + std::to_string(chunk.attempts) +
                 " attempts (last: " + reason + ")");
    }
    return;
  }
  ++state.stats.chunksRetried;
  state.queue.push_back(chunk);
  state.cv.notify_all();
}

} // namespace

Expected<DistSweepResult> SweepCoordinator::run() {
  const auto start = Clock::now();

  // 1. Validate the request with the same rules a local sweep applies,
  //    before any socket is touched: bad keys/values must fail fast at
  //    the coordinator, not as N identical worker refusals.
  DiagnosticList diagnostics;
  if (options_.workerSockets.empty())
    diagnostics.error({}, "distributed sweep needs at least one worker",
                      "dist");
  FlowOptions scratch;
  for (const auto& [key, value] : options_.baseParams) {
    try {
      applyTuneParam(scratch, key, value);
    } catch (const FlowError& e) {
      diagnostics.error({}, e.what(), "options");
    }
  }
  for (const TuneAxis& axis : options_.axes) {
    if (axis.values.empty())
      diagnostics.error({}, "axis '" + axis.key + "' has no values",
                        "options");
    for (const std::string& value : axis.values) {
      try {
        FlowOptions probe = scratch;
        applyTuneParam(probe, axis.key, value);
      } catch (const FlowError& e) {
        diagnostics.error({}, e.what(), "options");
      }
    }
  }
  if (diagnostics.hasErrors())
    return Expected<DistSweepResult>::failure(std::move(diagnostics));

  // 2. Expand the design space (tuner order) and cut it into chunks.
  std::vector<Point> points;
  {
    std::vector<std::pair<std::string, std::string>> scratchParams;
    expandPointsInto(options_.axes, 0, "", scratchParams, points);
  }

  RunState state;
  state.rows.resize(points.size());
  state.have.assign(points.size(), false);
  state.stats.workersRequested =
      static_cast<int>(options_.workerSockets.size());

  std::size_t chunkSize = options_.chunkSize;
  if (chunkSize == 0) {
    // ~4 chunks per worker: enough slack for stealing, few enough
    // round trips that the protocol never dominates.
    const std::size_t lanes = options_.workerSockets.size() * 4;
    chunkSize = std::max<std::size_t>(1, (points.size() + lanes - 1) / lanes);
  }
  for (std::size_t first = 0; first < points.size(); first += chunkSize)
    state.queue.push_back(
        Chunk{first, std::min(chunkSize, points.size() - first), 0});
  state.chunksOutstanding = state.queue.size();

  // 3. One thread per worker: connect, then pull chunks until the
  //    sweep completes or fails. Pulling from a shared queue IS the
  //    work-stealing policy — a fast worker simply comes back sooner.
  auto workerMain = [&](const std::string& socketPath) {
    Expected<serve::Client> connected = serve::Client::connect(socketPath);
    if (!connected) {
      std::lock_guard<std::mutex> lock(state.mutex);
      if (--state.liveWorkers == 0 && state.chunksOutstanding > 0)
        state.fail("no worker is reachable (last: '" + socketPath + "')");
      return;
    }
    serve::Client client = std::move(*connected);
    {
      std::lock_guard<std::mutex> lock(state.mutex);
      ++state.stats.workersConnected;
    }
    for (;;) {
      Chunk chunk;
      {
        std::unique_lock<std::mutex> lock(state.mutex);
        state.cv.wait(lock, [&] {
          return !state.queue.empty() || state.failed ||
                 state.chunksOutstanding == 0;
        });
        if (state.failed || state.chunksOutstanding == 0) {
          --state.liveWorkers;
          return;
        }
        chunk = state.queue.front();
        state.queue.pop_front();
        ++state.stats.chunksDispatched;
      }
      DiagnosticList refusal;
      const ChunkOutcome outcome =
          runChunk(client, chunk, points, options_, state, &refusal);
      std::lock_guard<std::mutex> lock(state.mutex);
      switch (outcome) {
      case ChunkOutcome::Done:
        if (--state.chunksOutstanding == 0)
          state.cv.notify_all();
        break;
      case ChunkOutcome::Refused:
        // The worker is healthy; the chunk was rejected (bad request,
        // daemon draining, job cancelled). Retry elsewhere, keep
        // pulling.
        requeueLocked(state, chunk, options_.maxChunkAttempts,
                      "worker refused the chunk", std::move(refusal));
        break;
      case ChunkOutcome::Lost:
      case ChunkOutcome::Demoted: {
        // Cut the connection first: for a straggler this triggers the
        // daemon's disconnect-cancel, so the abandoned compile stops
        // instead of burning the worker's pool for a result nobody
        // will read.
        client.closeConnection();
        if (outcome == ChunkOutcome::Lost)
          ++state.stats.workersLost;
        else
          ++state.stats.workersDemoted;
        requeueLocked(state, chunk, options_.maxChunkAttempts,
                      outcome == ChunkOutcome::Lost
                          ? "connection to the worker was lost"
                          : "worker exceeded the per-chunk deadline");
        if (--state.liveWorkers == 0 && state.chunksOutstanding > 0)
          state.fail("all workers were lost with " +
                     std::to_string(state.chunksOutstanding) +
                     " chunk(s) unfinished");
        return;
      }
      }
    }
  };

  state.liveWorkers = static_cast<int>(options_.workerSockets.size());
  std::vector<std::thread> threads;
  threads.reserve(options_.workerSockets.size());
  for (const std::string& socketPath : options_.workerSockets)
    threads.emplace_back(workerMain, socketPath);
  for (std::thread& thread : threads)
    thread.join();

  if (state.failed)
    return Expected<DistSweepResult>::failure(std::move(state.failure));
  for (std::size_t i = 0; i < state.have.size(); ++i)
    if (!state.have[i])
      return Expected<DistSweepResult>::failure(
          "internal error: design point " + std::to_string(i) +
              " was never merged",
          "dist");

  DistSweepResult result;
  result.rows = std::move(state.rows);
  result.frontier = distFrontier(result.rows);
  result.stats = state.stats;
  result.stats.wallMillis = millisSince(start);
  return result;
}

} // namespace cfd::dist
