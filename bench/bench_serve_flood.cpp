// Daemon flood: 8 concurrent clients hammer one compile daemon
// (DESIGN.md §15) over its Unix socket in two waves.
//
// Wave 1 (cold): every client compiles its own slice of distinct
// variants — a client-specific polynomial degree crossed with unroll
// factors — so the daemon's shared Session pays each flow once and the
// unroll variants resume from shared stage prefixes. Wave 2 (warm)
// repeats the identical requests: all of them ride the shared
// FlowCache, so the warm wave must add exactly one flow-cache hit per
// request and no stage-cache lookup, and the daemon-wide cache hit rate
// must rise. The warm/cold wall-clock ratio is reported, not gated: it
// falls whenever compiles get cheaper.
//
// How the cold wave's stage lookups split into hits and misses depends
// on thread timing: two clients can both miss the same stage prefix,
// since StageCache does not deduplicate in-flight computes. Their sum
// does not, so the lookup count is the gated figure.
//
// The bench is also the response-accounting stress: every client
// pipelines its whole slice (send all, then receive by id), and the
// run fails if any response is lost, duplicated, or misaddressed.
//
//   $ ./bench_serve_flood [clients] [variants-per-client]
//
// Emits BENCH_serve_flood.json (schema cfd-serve-flood-v1) for the
// regression gate (scripts/check_bench_regression.py).
#include "BenchCommon.h"

#include "serve/Client.h"
#include "serve/Server.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

namespace {

double millisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

constexpr const char* kPriorities[] = {"high", "normal", "low"};

/// One client's whole wave, pipelined: send every request in the
/// slice, then collect each response by id. Returns the number of
/// correct (ok, well-addressed) responses; any loss or duplication
/// shows up as a shortfall.
int floodClient(const std::string& socketPath, int clientIndex,
                int variants) {
  cfd::Expected<cfd::serve::Client> client =
      cfd::serve::Client::connect(socketPath);
  if (!client.ok()) {
    std::cerr << "client " << clientIndex << ": " << client.errorText();
    return 0;
  }
  const std::string source =
      cfd::bench::inverseHelmholtzSource(5 + clientIndex);
  std::vector<std::int64_t> ids;
  for (int v = 0; v < variants; ++v) {
    cfd::serve::Request request;
    request.kind = cfd::serve::RequestKind::Compile;
    request.id = client->nextId();
    request.source = source;
    request.params = {{"unroll", std::to_string(1 << (v % 3))}};
    request.priority = kPriorities[clientIndex % 3];
    if (!client->send(request)) {
      std::cerr << "client " << clientIndex << ": send failed\n";
      return 0;
    }
    ids.push_back(request.id);
  }
  int correct = 0;
  for (const std::int64_t id : ids) {
    const cfd::Expected<cfd::serve::Response> response =
        client->receive(id);
    if (!response.ok()) {
      std::cerr << "client " << clientIndex << ": "
                << response.errorText();
      continue;
    }
    if (response->id == id && response->ok &&
        response->result.contains("cache_hit"))
      ++correct;
    else
      std::cerr << "client " << clientIndex << ": bad response "
                << response->encode() << "\n";
  }
  return correct;
}

struct CacheSnapshot {
  std::int64_t flowHits = 0;
  std::int64_t flowMisses = 0;
  std::int64_t stageHits = 0;
  std::int64_t stageMisses = 0;

  std::int64_t stageLookups() const { return stageHits + stageMisses; }

  /// Hit rate across both shared caches (every lookup counted once).
  double hitRate() const {
    const double lookups = static_cast<double>(flowHits + flowMisses +
                                               stageHits + stageMisses);
    return lookups > 0
               ? static_cast<double>(flowHits + stageHits) / lookups
               : 0.0;
  }
};

CacheSnapshot snapshot(const cfd::Session& session) {
  const cfd::Session::Stats stats = session.stats();
  return {stats.flowCache.hits, stats.flowCache.misses,
          stats.stageCache.hits, stats.stageCache.misses};
}

} // namespace

int main(int argc, char** argv) {
  const int clients = argc > 1 ? std::atoi(argv[1]) : 8;
  const int variants = argc > 2 ? std::atoi(argv[2]) : 3;
  const int perWave = clients * variants;

  cfd::bench::printHeader(
      "serve flood: concurrent clients on one compile daemon");
  std::cout << "  " << clients << " clients x " << variants
            << " variants, cold wave (distinct) then warm wave "
               "(identical)\n\n";

  const std::string socketPath =
      "/tmp/cfd_serve_flood_" + std::to_string(::getpid()) + ".sock";
  cfd::Session session(cfd::SessionOptions{.workers = 4});
  cfd::serve::Server server(session, {.socketPath = socketPath});
  const cfd::Expected<bool> started = server.start();
  if (!started.ok()) {
    std::cerr << started.errorText();
    return 1;
  }

  auto wave = [&] {
    std::atomic<int> correct{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < clients; ++i)
      threads.emplace_back([&, i] {
        correct += floodClient(socketPath, i, variants);
      });
    for (std::thread& thread : threads)
      thread.join();
    return correct.load();
  };

  const auto coldStart = std::chrono::steady_clock::now();
  const int coldCorrect = wave();
  const double coldMs = millisSince(coldStart);
  const CacheSnapshot cold = snapshot(session);

  const auto warmStart = std::chrono::steady_clock::now();
  const int warmCorrect = wave();
  const double warmMs = millisSince(warmStart);
  const CacheSnapshot warm = snapshot(session);

  server.requestStop();
  server.join();

  const cfd::serve::Server::Stats stats = server.stats();
  const double speedup = warmMs > 0.0 ? coldMs / warmMs : 0.0;
  const std::int64_t warmFlowHits = warm.flowHits - cold.flowHits;
  const std::int64_t warmStageLookups =
      warm.stageLookups() - cold.stageLookups();

  std::cout << "  cold wave       "
            << cfd::padLeft(cfd::formatFixed(coldMs, 1), 9) << " ms   ("
            << coldCorrect << "/" << perWave << " responses, hit rate "
            << cfd::formatFixed(100.0 * cold.hitRate(), 1) << "%)\n";
  std::cout << "  warm wave       "
            << cfd::padLeft(cfd::formatFixed(warmMs, 1), 9) << " ms   ("
            << warmCorrect << "/" << perWave << " responses, hit rate "
            << cfd::formatFixed(100.0 * warm.hitRate(), 1) << "%)\n";
  std::cout << "  speedup         "
            << cfd::padLeft(cfd::formatFixed(speedup, 1), 9) << " x\n\n";
  std::cout << session.statsReport();
  std::cout << "  serve: " << stats.connectionsAccepted
            << " connections, " << stats.requestsReceived
            << " requests, " << stats.responsesSent << " responses\n";

  cfd::json::Value report = cfd::json::Value::object();
  report.set("schema", "cfd-serve-flood-v1");
  report.set("clients", clients);
  report.set("variants_per_client", variants);
  cfd::json::Value timing = cfd::json::Value::object();
  timing.set("cold_ms", coldMs);
  timing.set("warm_ms", warmMs);
  timing.set("speedup", speedup);
  report.set("timing", std::move(timing));
  cfd::json::Value cache = cfd::json::Value::object();
  cache.set("cold_flow_hits", cold.flowHits);
  cache.set("warm_flow_hits", warmFlowHits);
  cache.set("stage_lookups", warm.stageLookups());
  cache.set("warm_stage_lookups", warmStageLookups);
  cache.set("stage_hits", warm.stageHits);
  cache.set("stage_misses", warm.stageMisses);
  cache.set("hit_rate_cold", cold.hitRate());
  cache.set("hit_rate_warm", warm.hitRate());
  report.set("cache", std::move(cache));
  cfd::json::Value serve = cfd::json::Value::object();
  serve.set("requests", stats.requestsReceived);
  serve.set("responses", stats.responsesSent);
  serve.set("protocol_errors", stats.protocolErrors);
  report.set("server", std::move(serve));
  cfd::bench::maybeWriteJsonReport(report);
  cfd::bench::writeBenchReport("serve_flood", report);

  // Hard gates: every request answered exactly once, the warm wave
  // exactly one flow hit per request and no stage lookup, and the
  // daemon-wide hit rate strictly rising.
  bool ok = true;
  if (coldCorrect != perWave || warmCorrect != perWave) {
    std::cerr << "lost/duplicate responses: cold " << coldCorrect
              << ", warm " << warmCorrect << " of " << perWave << "\n";
    ok = false;
  }
  if (stats.requestsReceived != stats.responsesSent) {
    std::cerr << "server answered " << stats.responsesSent << " of "
              << stats.requestsReceived << " requests\n";
    ok = false;
  }
  if (warmFlowHits != perWave) {
    std::cerr << "warm wave made " << warmFlowHits
              << " flow-cache hits, expected " << perWave << "\n";
    ok = false;
  }
  if (warmStageLookups != 0) {
    std::cerr << "warm wave looked up the stage cache " << warmStageLookups
              << " times, expected 0\n";
    ok = false;
  }
  if (warm.hitRate() <= cold.hitRate()) {
    std::cerr << "cache hit rate did not rise (" << cold.hitRate()
              << " -> " << warm.hitRate() << ")\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
