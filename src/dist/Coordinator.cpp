#include "dist/Coordinator.h"

#include "core/Pareto.h"
#include "serve/Client.h"
#include "serve/Protocol.h"

#include <algorithm>
#include <array>
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

/// A slice of the plan's order plus its dispatch history.
struct Chunk {
  std::size_t first = 0; ///< position in DispatchPlan::order
  std::size_t count = 0;
  std::size_t home = 0; ///< the worker whose block it belongs to
  int attempts = 0;     ///< completed dispatch attempts so far
};

/// All coordination state shared by the per-worker threads.
struct RunState {
  std::mutex mutex;
  std::condition_variable cv;
  /// Each worker's home block, in plan order.
  std::vector<std::deque<Chunk>> blocks;
  std::size_t chunksQueued = 0;      ///< in some block
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

  /// The next chunk for `worker`: the front of its own block or, once
  /// that is empty, the back of the block with the most chunks left —
  /// the chunk farthest from where that block's owner is working.
  /// Caller holds the mutex, and a chunk is queued.
  Chunk takeLocked(std::size_t worker) {
    std::deque<Chunk>& own = blocks[worker];
    Chunk chunk;
    if (!own.empty()) {
      chunk = own.front();
      own.pop_front();
    } else {
      std::deque<Chunk>& fullest = *std::max_element(
          blocks.begin(), blocks.end(),
          [](const auto& a, const auto& b) { return a.size() < b.size(); });
      chunk = fullest.back();
      fullest.pop_back();
    }
    --chunksQueued;
    return chunk;
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

DispatchPlan planDispatch(const std::string& source, const FlowOptions& base,
                          const std::vector<SweepPoint>& points,
                          std::size_t workers, std::size_t chunkSize) {
  const std::uint64_t digest = stageSourceDigest(source);
  std::vector<std::pair<std::array<std::uint64_t, kStageCount>, std::size_t>>
      keyed;
  keyed.reserve(points.size());
  for (std::size_t rank = 0; rank < points.size(); ++rank) {
    FlowOptions options = optionsFor(base, points[rank]);
    normalizeOptions(options);
    keyed.emplace_back(computeStageKeys(digest, options), rank);
  }
  // A stage key chains the keys of every stage before it, so equal keys
  // at one stage mean equal key tuples up to it: sorted tuples put each
  // shared prefix in one run.
  std::sort(keyed.begin(), keyed.end());

  DispatchPlan plan;
  plan.order.reserve(keyed.size());
  for (const auto& entry : keyed)
    plan.order.push_back(entry.second);
  plan.chunkSize = chunkSize;
  if (plan.chunkSize == 0) {
    // ~4 chunks per worker: enough slack for stealing, few enough
    // round trips that the protocol never dominates.
    const std::size_t lanes = std::max<std::size_t>(workers, 1) * 4;
    plan.chunkSize =
        std::max<std::size_t>(1, (points.size() + lanes - 1) / lanes);
  }
  // Consecutive chunks per worker: a block boundary splits at most one
  // run of equal keys per stage between two workers.
  const std::size_t chunks =
      (points.size() + plan.chunkSize - 1) / plan.chunkSize;
  plan.home.reserve(chunks);
  for (std::size_t j = 0; j < chunks; ++j)
    plan.home.push_back(j * workers / chunks);
  return plan;
}

SweepCoordinator::SweepCoordinator(DistSweepOptions options)
    : options_(std::move(options)) {}

namespace {

/// Runs one chunk on one worker connection. Merging happens here (under
/// the state mutex) so a Done return leaves nothing else to do.
ChunkOutcome runChunk(serve::Client& client, const Chunk& chunk,
                      const std::vector<SweepPoint>& points,
                      const std::vector<std::size_t>& order,
                      const DistSweepOptions& options, RunState& state,
                      DiagnosticList* refusal) {
  serve::Request request;
  request.kind = serve::RequestKind::SweepChunk;
  request.id = client.nextId();
  request.source = options.source;
  request.params = options.baseParams;
  request.points.reserve(chunk.count);
  for (std::size_t at = chunk.first; at < chunk.first + chunk.count; ++at) {
    const std::size_t rank = order[at];
    request.points.push_back(serve::ChunkPoint{static_cast<std::int64_t>(rank),
                                               points[rank].label,
                                               points[rank].params});
  }
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

/// Requeues `chunk` at the back of its home block after a failed
/// attempt, or fails the sweep when its attempts are spent. Caller
/// holds the state mutex.
void requeueLocked(RunState& state, Chunk chunk,
                   const std::vector<std::size_t>& order, int maxAttempts,
                   const std::string& reason,
                   DiagnosticList refusal = {}) {
  ++chunk.attempts;
  if (chunk.attempts >= maxAttempts) {
    const std::string failed =
        "chunk of " + std::to_string(chunk.count) + " point(s) from point " +
        std::to_string(order[chunk.first]) + " failed after " +
        std::to_string(chunk.attempts) + " attempts";
    if (refusal.hasErrors()) {
      refusal.error({}, failed, "dist");
      state.fail(std::move(refusal));
    } else {
      state.fail(failed + " (last: " + reason + ")");
    }
    return;
  }
  ++state.stats.chunksRetried;
  state.blocks[chunk.home].push_back(chunk);
  ++state.chunksQueued;
  state.cv.notify_all();
}

} // namespace

Expected<DistSweepResult> SweepCoordinator::run() {
  const auto start = Clock::now();

  // 1. Validate the request with the same rules a local sweep applies,
  //    before any socket is touched: bad keys/values or an oversized
  //    space must fail fast at the coordinator, not as N identical
  //    worker refusals.
  DiagnosticList diagnostics;
  if (options_.workerSockets.empty())
    diagnostics.error({}, "distributed sweep needs at least one worker",
                      "dist");
  FlowOptions base;
  for (const auto& [key, value] : options_.baseParams) {
    try {
      applyTuneParam(base, key, value);
    } catch (const FlowError& e) {
      diagnostics.error({}, e.what(), "options");
    }
  }
  validateTuneAxes(options_.axes, diagnostics);
  if (diagnostics.hasErrors())
    return Expected<DistSweepResult>::failure(std::move(diagnostics));

  // 2. Expand the design space (TuneSpace rank order, index == rank)
  //    and plan its dispatch: chunks in stage-key order, one home block
  //    of consecutive chunks per worker.
  const std::vector<SweepPoint> points = TuneSpace{options_.axes}.points();
  const std::size_t workers = options_.workerSockets.size();
  const DispatchPlan plan = planDispatch(options_.source, base, points,
                                         workers, options_.chunkSize);

  RunState state;
  state.rows.resize(points.size());
  state.have.assign(points.size(), false);
  state.stats.workersRequested = static_cast<int>(workers);
  state.blocks.resize(workers);
  for (std::size_t j = 0; j < plan.home.size(); ++j) {
    const std::size_t first = j * plan.chunkSize;
    state.blocks[plan.home[j]].push_back(
        Chunk{first, std::min(plan.chunkSize, points.size() - first),
              plan.home[j], 0});
  }
  state.chunksQueued = state.chunksOutstanding = plan.home.size();

  // 3. One thread per worker: connect, then drain its home block, then
  //    steal, until the sweep completes or fails. An unreachable or
  //    lost worker's block is left to the others' stealing.
  auto workerMain = [&](std::size_t worker) {
    const std::string& socketPath = options_.workerSockets[worker];
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
          return state.chunksQueued > 0 || state.failed ||
                 state.chunksOutstanding == 0;
        });
        if (state.failed || state.chunksOutstanding == 0) {
          --state.liveWorkers;
          return;
        }
        chunk = state.takeLocked(worker);
        ++state.stats.chunksDispatched;
      }
      DiagnosticList refusal;
      const ChunkOutcome outcome = runChunk(client, chunk, points, plan.order,
                                            options_, state, &refusal);
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
        requeueLocked(state, chunk, plan.order, options_.maxChunkAttempts,
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
        requeueLocked(state, chunk, plan.order, options_.maxChunkAttempts,
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

  state.liveWorkers = static_cast<int>(workers);
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (std::size_t worker = 0; worker < workers; ++worker)
    threads.emplace_back(workerMain, worker);
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
