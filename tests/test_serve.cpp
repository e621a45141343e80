// Tests for the compile daemon (DESIGN.md §15): pinned wire goldens
// for every request kind plus the malformed-request and
// version-mismatch error shapes, concurrent clients sharing one
// Session's caches through a live server, disconnect- and
// shutdown-driven cancellation, stale-socket replacement, and daemon
// restart warmth through a shared --cache-dir. The TSan CI job runs
// this suite alongside test_async.
#include "serve/Client.h"
#include "serve/Io.h"
#include "serve/Server.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

namespace cfd::serve {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------
// Protocol goldens: the exact one-line wire form of each message kind
// is pinned, so shape drift — which breaks clients built against the
// documented protocol — fails a test instead of shipping silently
// (same contract style as test_diagnostics_golden.cpp).
// ---------------------------------------------------------------------

TEST(ServeProtocolGolden, CompileRequestWire) {
  Request request;
  request.kind = RequestKind::Compile;
  request.id = 7;
  request.source = "v = u\n";
  request.params = {{"unroll", "2"}, {"opt", "1"}};
  request.artifacts = {"c", "report"};
  request.priority = "high";
  request.deadlineMillis = 250;
  EXPECT_EQ(request.encode(),
            R"({"cfd_serve":1,"id":7,"kind":"compile","source":"v = u\n",)"
            R"("params":{"unroll":"2","opt":"1"},)"
            R"("artifacts":["c","report"],)"
            R"("priority":"high","deadline_ms":250})");
}

TEST(ServeProtocolGolden, MinimalRequestsOmitDefaultedMembers) {
  Request status;
  status.kind = RequestKind::Status;
  status.id = 3;
  EXPECT_EQ(status.encode(), R"({"cfd_serve":1,"id":3,"kind":"status"})");

  Request shutdown;
  shutdown.kind = RequestKind::Shutdown;
  shutdown.id = 4;
  EXPECT_EQ(shutdown.encode(),
            R"({"cfd_serve":1,"id":4,"kind":"shutdown"})");

  Request cancel;
  cancel.kind = RequestKind::Cancel;
  cancel.id = 9;
  cancel.target = 4;
  EXPECT_EQ(cancel.encode(),
            R"({"cfd_serve":1,"id":9,"kind":"cancel","target":4})");
}

TEST(ServeProtocolGolden, SweepRequestWire) {
  Request request;
  request.kind = RequestKind::Sweep;
  request.id = 2;
  request.source = "v = u\n";
  request.axes = {{"unroll", {"1", "2"}}, {"opt", {"0", "1"}}};
  EXPECT_EQ(request.encode(),
            R"({"cfd_serve":1,"id":2,"kind":"sweep","source":"v = u\n",)"
            R"("axes":[{"key":"unroll","values":["1","2"]},)"
            R"({"key":"opt","values":["0","1"]}]})");
}

TEST(ServeProtocolGolden, SweepChunkRequestWire) {
  Request request;
  request.kind = RequestKind::SweepChunk;
  request.id = 11;
  request.source = "v = u\n";
  request.params = {{"opt", "2"}};
  request.points = {{4, "unroll=1 m=2", {{"unroll", "1"}, {"m", "2"}}},
                    {5, "unroll=1 m=4", {{"unroll", "1"}, {"m", "4"}}}};
  EXPECT_EQ(
      request.encode(),
      R"({"cfd_serve":1,"id":11,"kind":"sweep_chunk","source":"v = u\n",)"
      R"("params":{"opt":"2"},)"
      R"("points":[{"index":4,"label":"unroll=1 m=2",)"
      R"("params":{"unroll":"1","m":"2"}},)"
      R"({"index":5,"label":"unroll=1 m=4",)"
      R"("params":{"unroll":"1","m":"4"}}]})");
  // And it round-trips: chunk points survive parse exactly.
  const Expected<Request> parsed = Request::parse(request.encode());
  ASSERT_TRUE(parsed.ok()) << parsed.errorText();
  EXPECT_EQ(*parsed, request);
}

TEST(ServeProtocolGolden, ProgressEventWire) {
  Response event;
  event.id = 11;
  event.kind = RequestKind::SweepChunk;
  event.ok = true;
  event.event = "progress";
  event.result = json::Value::object();
  event.result.set("done", std::int64_t{3});
  event.result.set("total", std::int64_t{8});
  EXPECT_EQ(event.encode(),
            R"({"cfd_serve":1,"id":11,"kind":"sweep_chunk","ok":true,)"
            R"("event":"progress","result":{"done":3,"total":8}})");
  const Expected<Response> parsed = Response::parse(event.encode());
  ASSERT_TRUE(parsed.ok()) << parsed.errorText();
  EXPECT_EQ(parsed->event, "progress");
  EXPECT_EQ(parsed->result.at("done").asInt(), 3);
}

TEST(ServeProtocolGolden, TuneRequestWireSerializesNonDefaultsOnly) {
  Request request;
  request.kind = RequestKind::Tune;
  request.id = 5;
  request.source = "v = u\n";
  request.axes = {{"unroll", {"1", "2"}}};
  request.strategy = "random";
  request.seed = 42;
  request.samples = 8;
  // maxSteps stays 32 (default) and must not appear on the wire.
  EXPECT_EQ(request.encode(),
            R"({"cfd_serve":1,"id":5,"kind":"tune","source":"v = u\n",)"
            R"("axes":[{"key":"unroll","values":["1","2"]}],)"
            R"("strategy":"random","seed":42,"samples":8})");
}

TEST(ServeProtocolGolden, RequestsRoundTripThroughParse) {
  Request compile;
  compile.kind = RequestKind::Compile;
  compile.id = 7;
  compile.source = "v = u\n";
  compile.params = {{"unroll", "2"}};
  compile.artifacts = {"c"};
  compile.priority = "low";
  compile.deadlineMillis = 125.5;

  Request tune;
  tune.kind = RequestKind::Tune;
  tune.id = 8;
  tune.source = "v = u\n";
  tune.axes = {{"m", {"4", "8"}}};
  tune.strategy = "hillclimb";
  tune.maxSteps = 5;
  tune.objectives = {"latency", "bram"};

  Request cancel;
  cancel.kind = RequestKind::Cancel;
  cancel.id = 9;
  cancel.target = 7;

  for (const Request& original : {compile, tune, cancel}) {
    const Expected<Request> parsed = Request::parse(original.encode());
    ASSERT_TRUE(parsed.ok()) << parsed.errorText();
    EXPECT_EQ(*parsed, original);
  }
}

TEST(ServeProtocolGolden, ErrorResponseWire) {
  DiagnosticList diagnostics;
  diagnostics.error({}, "malformed request: unexpected end of input",
                    "serve");
  const Response response =
      errorResponse(0, RequestKind::Invalid, std::move(diagnostics));
  EXPECT_EQ(response.encode(),
            R"({"cfd_serve":1,"id":0,"kind":"error","ok":false,)"
            R"("diagnostics":[{"severity":"error",)"
            R"("message":"malformed request: unexpected end of input",)"
            R"("stage":"serve"}]})");
}

TEST(ServeProtocolGolden, CancelledResponseWire) {
  DiagnosticList diagnostics;
  diagnostics.error({}, "cancelled: client disconnected", "serve");
  const Response response = errorResponse(12, RequestKind::Compile,
                                          std::move(diagnostics),
                                          /*cancelled=*/true);
  EXPECT_EQ(response.encode(),
            R"({"cfd_serve":1,"id":12,"kind":"compile","ok":false,)"
            R"("cancelled":true,)"
            R"("diagnostics":[{"severity":"error",)"
            R"("message":"cancelled: client disconnected",)"
            R"("stage":"serve"}]})");
}

TEST(ServeProtocolGolden, ResponseRoundTripsDiagnostics) {
  DiagnosticList diagnostics;
  diagnostics.error(SourceLocation{2, 5}, "undefined tensor 'w'", "sema");
  diagnostics.warning({}, "unused input 'S'", "sema");
  const Response original =
      errorResponse(4, RequestKind::Compile, std::move(diagnostics));
  const Expected<Response> parsed = Response::parse(original.encode());
  ASSERT_TRUE(parsed.ok()) << parsed.errorText();
  EXPECT_EQ(parsed->id, 4);
  EXPECT_EQ(parsed->kind, RequestKind::Compile);
  EXPECT_FALSE(parsed->ok);
  ASSERT_EQ(parsed->diagnostics.size(), 2u);
  const Diagnostic& error = parsed->diagnostics.all()[0];
  EXPECT_EQ(error.severity, Severity::Error);
  EXPECT_EQ(error.message, "undefined tensor 'w'");
  EXPECT_EQ(error.stage, "sema");
  EXPECT_EQ(error.location.line, 2);
  EXPECT_EQ(error.location.column, 5);
  EXPECT_EQ(parsed->diagnostics.all()[1].severity, Severity::Warning);
}

/// Parses `line` expecting a failure; returns the single error message.
std::string parseError(const std::string& line,
                       std::int64_t* echoId = nullptr) {
  const Expected<Request> parsed = Request::parse(line, echoId);
  EXPECT_FALSE(parsed.ok()) << "parsed: " << line;
  if (parsed.ok())
    return {};
  EXPECT_EQ(parsed.diagnostics().size(), 1u);
  EXPECT_EQ(parsed.diagnostics().all()[0].stage, "serve");
  return parsed.diagnostics().all()[0].message;
}

TEST(ServeProtocolGolden, MalformedAndMismatchedRequestsPinnedErrors) {
  EXPECT_EQ(parseError("this is not json"),
            "malformed request: JSON parse error at offset 0: "
            "invalid literal");
  EXPECT_EQ(parseError("[1,2]"),
            "malformed request: expected a JSON object");
  EXPECT_EQ(parseError(R"({"id":1,"kind":"status"})"),
            "not a cfd-serve message (missing 'cfd_serve' version member)");
  EXPECT_EQ(parseError(R"({"cfd_serve":2,"id":1,"kind":"status"})"),
            "protocol version mismatch: peer speaks v2, this build "
            "speaks v1");
  EXPECT_EQ(parseError(R"({"cfd_serve":1,"id":1,"kind":"frobnicate"})"),
            "unknown request kind 'frobnicate' (valid: compile, sweep, "
            "tune, sweep_chunk, status, cancel, shutdown)");
  EXPECT_EQ(parseError(R"({"cfd_serve":1,"kind":"status"})"),
            "request needs a positive 'id' to address the response");
  EXPECT_EQ(parseError(R"({"cfd_serve":1,"id":1,"kind":"compile"})"),
            "'compile' request has no 'source'");
  EXPECT_EQ(parseError(R"({"cfd_serve":1,"id":1,"kind":"cancel"})"),
            "'cancel' request has no 'target' request id");
  EXPECT_EQ(parseError(R"({"cfd_serve":1,"id":1,"kind":"sweep_chunk",)"
                       R"("source":"v = u"})"),
            "'sweep_chunk' request has no 'points'");
  EXPECT_EQ(parseError(R"({"cfd_serve":1,"id":1,"kind":"compile",)"
                       R"("source":"v = u","priority":"urgent"})"),
            "unknown priority 'urgent' (valid: low, normal, high)");
}

TEST(ServeProtocolGolden, RepeatedParamKeysKeepTheLastValueInPlace) {
  // A repeated sweep key (two --sweep=unroll axes) writes one member:
  // the last value, where the key first appeared.
  Request request;
  request.kind = RequestKind::SweepChunk;
  request.id = 6;
  request.source = "v = u\n";
  request.points = {
      {0, "unroll=1 opt=2 unroll=4",
       {{"unroll", "1"}, {"opt", "2"}, {"unroll", "4"}}}};
  EXPECT_EQ(request.encode(),
            R"({"cfd_serve":1,"id":6,"kind":"sweep_chunk",)"
            R"("source":"v = u\n","points":[{"index":0,)"
            R"("label":"unroll=1 opt=2 unroll=4",)"
            R"("params":{"unroll":"4","opt":"2"}}]})");
}

TEST(ServeProtocolGolden, MembersOfTheWrongKindAreMalformedRequests) {
  // Each of these used to leave parse as an InternalError, which
  // aborted the daemon (a request) or the client (a response).
  EXPECT_EQ(parseError(R"({"cfd_serve":1,"id":1,"kind":"compile",)"
                       R"("source":5})"),
            "malformed request: JSON value is not a string");
  EXPECT_EQ(parseError(R"({"cfd_serve":"1","id":1,"kind":"status"})"),
            "malformed request: JSON value is not a number");
  EXPECT_EQ(parseError(R"({"cfd_serve":1,"id":1,"kind":"sweep_chunk",)"
                       R"("source":"v = u","points":[{"label":"x"}]})"),
            "malformed request: JSON object has no member 'index'");
  const Expected<Response> response = Response::parse(
      R"({"cfd_serve":1,"id":1,"kind":"compile","ok":"yes"})");
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.diagnostics().all()[0].message,
            "malformed response: JSON value is not a bool");
}

TEST(ServeProtocolGolden, ErrorParseStillEchoesTheRequestId) {
  std::int64_t echoId = -1;
  parseError(R"({"cfd_serve":1,"id":41,"kind":"frobnicate"})", &echoId);
  EXPECT_EQ(echoId, 41); // readable id survives a kind error
  parseError("this is not json", &echoId);
  EXPECT_EQ(echoId, 0); // unreadable id resets to the reserved 0
}

TEST(ServeProtocolGolden, CompileResponseWire) {
  // The hot message: an artifact text with every byte class the writer
  // treats differently. The seven two-character escapes, \u00xx for the
  // other control bytes, and DEL, UTF-8 and '/' written raw.
  Response hit;
  hit.id = 21;
  hit.kind = RequestKind::Compile;
  hit.ok = true;
  hit.result = json::Value::object();
  hit.result.set("cache_hit", true);
  hit.result.set("compile_ms", 0.125);
  json::Value artifacts = json::Value::object();
  artifacts.set("c", "x\"y\\z\n\r\t\b\f\x01\x1f\x7f\xc2\xb5\xe2\x86\x92/end");
  hit.result.set("artifacts", std::move(artifacts));

  Response miss;
  miss.id = 22;
  miss.kind = RequestKind::Compile;
  miss.ok = true;
  miss.result = json::Value::object();
  miss.result.set("cache_hit", false);
  miss.result.set("compile_ms", 2.0); // an integral double prints as 2

  const std::string hitLine =
      R"({"cfd_serve":1,"id":21,"kind":"compile","ok":true,)"
      R"("result":{"cache_hit":true,"compile_ms":0.125,)"
      R"("artifacts":{"c":"x\"y\\z\n\r\t\b\f\u0001\u001f)"
      "\x7f\xc2\xb5\xe2\x86\x92"
      R"(/end"}}})";
  const std::string missLine =
      R"({"cfd_serve":1,"id":22,"kind":"compile","ok":true,)"
      R"("result":{"cache_hit":false,"compile_ms":2}})";
  EXPECT_EQ(hit.encode(), hitLine);
  EXPECT_EQ(miss.encode(), missLine);
  for (const std::string& line : {hitLine, missLine}) {
    const Expected<Response> parsed = Response::parse(line);
    ASSERT_TRUE(parsed.ok()) << parsed.errorText();
    EXPECT_EQ(parsed->encode(), line);
  }
}

// ---------------------------------------------------------------------
// Seeded mutation driver for the wire parsers: hostile bytes end in a
// parsed message or exactly one stage-"serve" diagnostic, never a
// crash or a hang. The ASan+UBSan CI job runs it with the rest of the
// suite.
// ---------------------------------------------------------------------

/// The golden wire lines pinned above, requests and responses.
const char* const kGoldenWireLines[] = {
    R"({"cfd_serve":1,"id":7,"kind":"compile","source":"v = u\n",)"
    R"("params":{"unroll":"2","opt":"1"},"artifacts":["c","report"],)"
    R"("priority":"high","deadline_ms":250})",
    R"({"cfd_serve":1,"id":3,"kind":"status"})",
    R"({"cfd_serve":1,"id":4,"kind":"shutdown"})",
    R"({"cfd_serve":1,"id":9,"kind":"cancel","target":4})",
    R"({"cfd_serve":1,"id":2,"kind":"sweep","source":"v = u\n",)"
    R"("axes":[{"key":"unroll","values":["1","2"]},)"
    R"({"key":"opt","values":["0","1"]}]})",
    R"({"cfd_serve":1,"id":11,"kind":"sweep_chunk","source":"v = u\n",)"
    R"("params":{"opt":"2"},"points":[{"index":4,"label":"unroll=1 m=2",)"
    R"("params":{"unroll":"1","m":"2"}},{"index":5,"label":"unroll=1 m=4",)"
    R"("params":{"unroll":"1","m":"4"}}]})",
    R"({"cfd_serve":1,"id":11,"kind":"sweep_chunk","ok":true,)"
    R"("event":"progress","result":{"done":3,"total":8}})",
    R"({"cfd_serve":1,"id":5,"kind":"tune","source":"v = u\n",)"
    R"("axes":[{"key":"unroll","values":["1","2"]}],)"
    R"("strategy":"random","seed":42,"samples":8})",
    R"({"cfd_serve":1,"id":0,"kind":"error","ok":false,)"
    R"("diagnostics":[{"severity":"error",)"
    R"("message":"malformed request: unexpected end of input",)"
    R"("stage":"serve"}]})",
    R"({"cfd_serve":1,"id":12,"kind":"compile","ok":false,)"
    R"("cancelled":true,"diagnostics":[{"severity":"error",)"
    R"("message":"cancelled: client disconnected","stage":"serve"}]})",
    R"({"cfd_serve":1,"id":21,"kind":"compile","ok":true,)"
    R"("result":{"cache_hit":true,"compile_ms":0.125,)"
    R"("artifacts":{"c":"x\"y\\z\n\r\t\b\f\u0001\u001f)"
    "\x7f\xc2\xb5\xe2\x86\x92"
    R"(/end"}}})",
    R"({"cfd_serve":1,"id":22,"kind":"compile","ok":true,)"
    R"("result":{"cache_hit":false,"compile_ms":2}})",
};

/// splitmix64: the same sequence on every platform, which the standard
/// distributions do not promise.
std::uint64_t nextRandom(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One to three edits: a byte flip, a truncation, or an inserted '"',
/// '\', '{' or '['.
std::string mutate(std::string line, std::uint64_t& state) {
  const int edits = 1 + static_cast<int>(nextRandom(state) % 3);
  for (int edit = 0; edit < edits && !line.empty(); ++edit) {
    const std::size_t at = nextRandom(state) % line.size();
    switch (nextRandom(state) % 3) {
    case 0:
      line[at] = static_cast<char>(line[at] ^ (1 + nextRandom(state) % 255));
      break;
    case 1: line.resize(at); break;
    default: line.insert(at, 1, "\"\\{["[nextRandom(state) % 4]); break;
    }
  }
  return line;
}

/// True when `parsed` is a message; otherwise it must carry exactly one
/// stage-"serve" diagnostic.
template <typename Message>
bool parsedOrOneServeDiagnostic(const Expected<Message>& parsed,
                                const std::string& line) {
  if (parsed.ok())
    return true;
  EXPECT_EQ(parsed.diagnostics().size(), 1u) << line;
  if (!parsed.diagnostics().all().empty())
    EXPECT_EQ(parsed.diagnostics().all()[0].stage, "serve") << line;
  return false;
}

TEST(ServeProtocolFuzz, SeededMutationsParseOrFailWithOneServeDiagnostic) {
  // Each string-scanner failure keeps its message and offset.
  const std::string prefix =
      R"({"cfd_serve":1,"id":1,"kind":"compile","source":")";
  const std::pair<std::string, std::string> scannerFailures[] = {
      {prefix + "v = u", "offset 54: unterminated string"},
      {prefix + "v\\", "offset 51: unterminated escape"},
      {prefix + "\\u00", "offset 51: truncated \\u escape"},
      {prefix + "\\u00g1\"}", "offset 54: invalid \\u escape"},
      {prefix + "\\q\"}", "offset 51: unknown escape"},
      {R"({"cfd_serve":1,"id":1,"kind)", "offset 27: unterminated string"},
  };
  for (const auto& [line, failure] : scannerFailures)
    EXPECT_EQ(parseError(line),
              "malformed request: JSON parse error at " + failure);
  // And the accepted set: '\/', \u in either case (decoded to UTF-8),
  // and a raw control byte.
  const Expected<Request> accepted =
      Request::parse(prefix + R"(\/\u00e9\u20AC)" + "\x01\"}");
  ASSERT_TRUE(accepted.ok()) << accepted.errorText();
  EXPECT_EQ(accepted->source, "/\xc3\xa9\xe2\x82\xac\x01");

  constexpr int kMutantsPerLine = 128;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t state = 22;
  int parsed = 0;
  int rejected = 0;
  for (const char* golden : kGoldenWireLines) {
    const bool isRequest = Request::parse(golden).ok();
    ASSERT_TRUE(isRequest || Response::parse(golden).ok()) << golden;
    for (int i = 0; i < kMutantsPerLine; ++i) {
      const std::string line = mutate(golden, state);
      const bool request =
          parsedOrOneServeDiagnostic(Request::parse(line), line);
      const bool response =
          parsedOrOneServeDiagnostic(Response::parse(line), line);
      (isRequest ? request : response) ? ++parsed : ++rejected;
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  // Both outcomes occur, so the mutations neither all miss the parser
  // nor all break the line.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

// ---------------------------------------------------------------------
// Live-server tests: a real daemon on a per-test socket path.
// ---------------------------------------------------------------------

/// Occupies every pool worker until release() is called, so jobs
/// submitted meanwhile stay deterministically queued (same helper
/// shape as test_async.cpp).
class PoolBlocker {
public:
  PoolBlocker(Session& session, int workers = 1)
      : gate_(release_.get_future().share()) {
    // Each task holds its own reference to the gate: a worker woken by
    // release() may still be inside wait() when the blocker is gone.
    for (int i = 0; i < workers; ++i)
      session.workerPool().post(
          [this, gate = gate_] {
            ++running_;
            gate.wait();
          },
          WorkerPool::kPriorityHigh);
    while (running_.load() < workers)
      std::this_thread::yield();
  }
  ~PoolBlocker() { release(); }

  void release() {
    if (!released_) {
      released_ = true;
      release_.set_value();
    }
  }

private:
  std::promise<void> release_;
  std::shared_future<void> gate_;
  std::atomic<int> running_{0};
  bool released_ = false;
};

/// A per-test socket path (and scratch dir) under the system temp
/// root. Unix socket paths are limited to ~107 bytes, so the fixture
/// keeps names short instead of deriving them from the test name.
class ServeTest : public ::testing::Test {
protected:
  void SetUp() override {
    root_ = (fs::temp_directory_path() /
             ("cfd_serve_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++)))
                .string();
    fs::remove_all(root_);
    fs::create_directories(root_);
    socketPath_ = root_ + "/d.sock";
  }
  void TearDown() override { fs::remove_all(root_); }

  Request compileRequest(const std::string& source,
                         std::vector<std::pair<std::string, std::string>>
                             params = {}) {
    Request request;
    request.kind = RequestKind::Compile;
    request.source = source;
    request.params = std::move(params);
    return request;
  }

  /// Sends a status request and returns the response's result object.
  json::Value statusOf(Client& client) {
    Request request;
    request.kind = RequestKind::Status;
    const Expected<Response> response = client.call(std::move(request));
    EXPECT_TRUE(response.ok() && response->ok);
    return response->result;
  }

  std::string root_;
  std::string socketPath_;
  static inline std::atomic<int> counter_{0};
};

TEST_F(ServeTest, EightClientsShareOneStageCacheAcrossWaves) {
  Session session(SessionOptions{.workers = 4});
  Server server(session, {.socketPath = socketPath_});
  const Expected<bool> started = server.start();
  ASSERT_TRUE(started.ok()) << started.errorText();

  constexpr int kClients = 8;
  constexpr int kVariants = 3;
  constexpr const char* kPriorities[] = {"high", "normal", "low"};

  // One wave = 8 concurrent clients, each pipelining its own slice (a
  // client-specific extent at 3 unroll factors): send all, then receive
  // each response by id. A client's variants share per-stage artifacts
  // through the one StageCache (stage-prefix adoption, DESIGN.md §9).
  auto wave = [&] {
    std::vector<std::thread> threads;
    std::atomic<int> okCount{0};
    for (int i = 0; i < kClients; ++i)
      threads.emplace_back([&, i] {
        Expected<Client> client = Client::connect(socketPath_);
        ASSERT_TRUE(client.ok()) << client.errorText();
        // A lost response fails the wave after 10 s instead of hanging.
        const timeval timeout{10, 0};
        ::setsockopt(client->fd(), SOL_SOCKET, SO_RCVTIMEO, &timeout,
                     sizeof(timeout));
        std::vector<std::int64_t> ids;
        for (int v = 0; v < kVariants; ++v) {
          Request request = compileRequest(
              test::inverseHelmholtzSource(5 + i),
              {{"unroll", std::to_string(1 << v)}});
          request.id = client->nextId();
          request.priority = kPriorities[i % 3];
          ASSERT_TRUE(client->send(request));
          ids.push_back(request.id);
        }
        for (const std::int64_t id : ids) {
          const Expected<Response> response = client->receive(id);
          ASSERT_TRUE(response.ok()) << response.errorText();
          EXPECT_EQ(response->id, id);
          ASSERT_TRUE(response->ok) << response->encode();
          EXPECT_TRUE(response->result.contains("cache_hit"));
          ++okCount;
        }
      });
    for (std::thread& thread : threads)
      thread.join();
    return okCount.load();
  };

  ASSERT_EQ(wave(), kClients * kVariants);
  Expected<Client> probe = Client::connect(socketPath_);
  ASSERT_TRUE(probe.ok()) << probe.errorText();
  const json::Value cold = statusOf(*probe).at("stats");
  // 24 distinct compiles, each looking up all 9 stages, over 120
  // distinct stage keys: per client, 6 stages its 3 variants share and
  // 3 per unroll factor. Every key is computed once, by whichever
  // compile claims it first, and the other 96 lookups adopt it — the
  // sequential split, however the 4 workers interleave.
  EXPECT_EQ(cold.at("flow_cache").at("hits").asInt(), 0);
  EXPECT_EQ(cold.at("stage_cache").at("hits").asInt(), 96);
  EXPECT_EQ(cold.at("stage_cache").at("misses").asInt(), 120);

  // The identical second wave rides the warm caches: every compile is
  // a flow-cache hit and reaches no stage.
  ASSERT_EQ(wave(), kClients * kVariants);
  const json::Value warmStatus = statusOf(*probe);
  const json::Value& warm = warmStatus.at("stats");
  EXPECT_EQ(warm.at("flow_cache").at("hits").asInt(), 24);
  EXPECT_EQ(warm.at("flow_cache").at("misses").asInt(),
            cold.at("flow_cache").at("misses").asInt());
  EXPECT_EQ(warm.at("stage_cache").at("hits").asInt(),
            cold.at("stage_cache").at("hits").asInt());
  EXPECT_EQ(warm.at("stage_cache").at("misses").asInt(),
            cold.at("stage_cache").at("misses").asInt());

  // The status payload also carries the server's own counters and the
  // same human report the CLI prints.
  EXPECT_EQ(warmStatus.at("server").at("protocol_errors").asInt(), 0);
  EXPECT_NE(warmStatus.at("report").asString().find("flow cache:"),
            std::string::npos);

  server.requestStop();
  server.join();
  EXPECT_FALSE(fs::exists(socketPath_));
  // No lost or duplicate responses: one response per request, the 48
  // compiles and the 2 status probes.
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.requestsReceived, 2 * kClients * kVariants + 2);
  EXPECT_EQ(stats.responsesSent, 2 * kClients * kVariants + 2);
  EXPECT_EQ(stats.protocolErrors, 0);
  EXPECT_EQ(stats.connectionsAccepted, stats.connectionsClosed);
}

TEST_F(ServeTest, ClientDisconnectCancelsItsQueuedJob) {
  Session session(SessionOptions{.workers = 1});
  Server server(session, {.socketPath = socketPath_});
  ASSERT_TRUE(server.start().ok());

  PoolBlocker blocker(session); // the submitted compile stays queued
  {
    Expected<Client> client = Client::connect(socketPath_);
    ASSERT_TRUE(client.ok()) << client.errorText();
    Request request = compileRequest(test::kInverseHelmholtz);
    request.id = client->nextId();
    ASSERT_TRUE(client->send(request));
    // Wait until the daemon has actually submitted the job, then
    // vanish without reading the response — a crashed client.
    while (session.stats().jobsSubmitted == 0)
      std::this_thread::yield();
  }
  // EOF on the connection must cancel the queued job cooperatively.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().cancelledOnDisconnect == 0 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  EXPECT_EQ(server.stats().cancelledOnDisconnect, 1);
  blocker.release();

  server.requestStop();
  server.join();
  EXPECT_EQ(session.stats().jobsCancelled, 1);
}

TEST_F(ServeTest, ShutdownCancelsQueuedJobsAndAnswersInFlightClients) {
  Session session(SessionOptions{.workers = 1});
  Server server(session, {.socketPath = socketPath_});
  ASSERT_TRUE(server.start().ok());

  PoolBlocker blocker(session);
  Expected<Client> client = Client::connect(socketPath_);
  ASSERT_TRUE(client.ok()) << client.errorText();
  Request request = compileRequest(test::kInverseHelmholtz);
  request.id = client->nextId();
  ASSERT_TRUE(client->send(request));
  while (session.stats().jobsSubmitted == 0)
    std::this_thread::yield();

  server.requestStop(); // SIGINT/SIGTERM land here too
  // The job is still queued behind the blocker, so the drain must
  // cancel it — and its client still gets a response: a structured
  // cancellation, not a dropped connection. (The blocker stays down
  // until the response arrives, so the job can never sneak into
  // Running first.)
  const Expected<Response> response = client->receive(request.id);
  blocker.release();
  ASSERT_TRUE(response.ok()) << response.errorText();
  EXPECT_FALSE(response->ok);
  EXPECT_TRUE(response->cancelled) << response->encode();
  server.join();
  EXPECT_FALSE(fs::exists(socketPath_));
  EXPECT_EQ(server.stats().cancelledOnShutdown, 1);
}

TEST_F(ServeTest, CompileErrorsTravelAsDiagnostics) {
  Session session(SessionOptions{.workers = 1});
  Server server(session, {.socketPath = socketPath_});
  ASSERT_TRUE(server.start().ok());
  Expected<Client> client = Client::connect(socketPath_);
  ASSERT_TRUE(client.ok());

  const Expected<Response> response =
      client->call(compileRequest("var input A : [4\n"));
  ASSERT_TRUE(response.ok()) << response.errorText();
  EXPECT_FALSE(response->ok);
  EXPECT_FALSE(response->cancelled);
  ASSERT_TRUE(response->diagnostics.hasErrors());
  // The compile diagnostics keep their own stage; only protocol
  // failures are attributed to "serve".
  EXPECT_NE(response->diagnostics.all()[0].stage, "serve");

  server.requestStop();
  server.join();
}

TEST_F(ServeTest, WireSweepOverTheBoundGetsOneErrorAndTheConnectionServes) {
  Session session(SessionOptions{.workers = 1});
  Server server(session, {.socketPath = socketPath_});
  ASSERT_TRUE(server.start().ok());
  Expected<Client> client = Client::connect(socketPath_);
  ASSERT_TRUE(client.ok()) << client.errorText();

  // 257 x 256 = 65,792 points in a ~2-KB line.
  Request sweep;
  sweep.kind = RequestKind::Sweep;
  sweep.source = test::kMatMul2D;
  for (const auto& [key, count] : {std::pair{"unroll", 257},
                                   std::pair{"m", 256}}) {
    AxisSpec axis{key, {}};
    for (int i = 1; i <= count; ++i)
      axis.values.push_back(std::to_string(i));
    sweep.axes.push_back(std::move(axis));
  }
  const Expected<Response> refused = client->call(std::move(sweep));
  ASSERT_TRUE(refused.ok()) << refused.errorText();
  EXPECT_FALSE(refused->ok);
  EXPECT_FALSE(refused->cancelled);
  ASSERT_EQ(refused->diagnostics.size(), 1u);
  EXPECT_EQ(refused->diagnostics.all()[0].stage, "options");
  EXPECT_EQ(refused->diagnostics.all()[0].message,
            "design space of 65792 points exceeds the bound of 65536 "
            "(kMaxSpacePoints)");

  // The same connection still compiles.
  const Expected<Response> compiled =
      client->call(compileRequest(test::kMatMul2D));
  ASSERT_TRUE(compiled.ok()) << compiled.errorText();
  EXPECT_TRUE(compiled->ok) << compiled->encode();
  EXPECT_EQ(session.flowCache().stats().misses, 1);

  server.requestStop();
  server.join();
}

TEST_F(ServeTest, WireTuneWithTheModelStrategyIsAServeError) {
  Session session(SessionOptions{.workers = 1});
  Server server(session, {.socketPath = socketPath_});
  ASSERT_TRUE(server.start().ok());
  Expected<Client> client = Client::connect(socketPath_);
  ASSERT_TRUE(client.ok()) << client.errorText();

  Request tune;
  tune.kind = RequestKind::Tune;
  tune.source = test::kMatMul2D;
  tune.strategy = "model";
  const Expected<Response> refused = client->call(std::move(tune));
  ASSERT_TRUE(refused.ok()) << refused.errorText();
  EXPECT_FALSE(refused->ok);
  ASSERT_EQ(refused->diagnostics.size(), 1u);
  EXPECT_EQ(refused->diagnostics.all()[0].stage, "serve");
  EXPECT_EQ(refused->diagnostics.all()[0].message,
            "unknown search strategy 'model' (valid: exhaustive, random, "
            "hillclimb)");

  server.requestStop();
  server.join();
}

/// A raw socket connected to `path`, not a Client: the tests below
/// send bytes no valid client would produce. -1 if it cannot connect.
int connectRaw(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd >= 0 && ::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                           sizeof(address)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// What `fd` receives up to its first newline (which is dropped), EOF,
/// an error, or 10 s without data.
std::string receiveLine(int fd) {
  const timeval timeout{10, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string received;
  char chunk[4096];
  while (received.find('\n') == std::string::npos) {
    const ssize_t n = recvSome(fd, chunk, sizeof(chunk));
    if (n <= 0)
      break;
    received.append(chunk, static_cast<std::size_t>(n));
  }
  return received.substr(0, received.find('\n'));
}

TEST_F(ServeTest, MalformedWireLineGetsAnIdZeroErrorResponse) {
  Session session(SessionOptions{.workers = 1});
  Server server(session, {.socketPath = socketPath_});
  ASSERT_TRUE(server.start().ok());

  // Not JSON at all, and 100 KB of '[' (nested past the JSON parser's
  // bound; unbounded, its recursion overflowed the daemon's stack).
  const std::string lines[] = {"this is not json",
                               std::string(100 * 1024, '[')};
  const int fd = connectRaw(socketPath_);
  ASSERT_GE(fd, 0);
  for (const std::string& line : lines) {
    const std::string wire = line + "\n";
    ASSERT_TRUE(sendAll(fd, wire.data(), wire.size()));
    const Expected<Response> response = Response::parse(receiveLine(fd));
    ASSERT_TRUE(response.ok()) << response.errorText();
    EXPECT_EQ(response->id, 0);
    EXPECT_EQ(response->kind, RequestKind::Invalid);
    EXPECT_FALSE(response->ok);
    EXPECT_EQ(response->diagnostics.all()[0].stage, "serve");
  }
  ::close(fd);

  // The daemon still compiles.
  Expected<Client> client = Client::connect(socketPath_);
  ASSERT_TRUE(client.ok()) << client.errorText();
  const Expected<Response> compiled =
      client->call(compileRequest(test::kMatMul2D));
  ASSERT_TRUE(compiled.ok()) << compiled.errorText();
  EXPECT_TRUE(compiled->ok) << compiled->encode();

  server.requestStop();
  server.join();
  EXPECT_EQ(server.stats().protocolErrors, 2);
}

TEST_F(ServeTest, OverlongRequestLineGetsOneErrorThenEof) {
  Session session(SessionOptions{.workers = 1});
  Server server(session, {.socketPath = socketPath_});
  ASSERT_TRUE(server.start().ok());

  // One byte over the bound, with no newline yet: the daemon refuses
  // the line instead of buffering on, and closes the connection.
  const int fd = connectRaw(socketPath_);
  ASSERT_GE(fd, 0);
  const std::string line(kMaxRequestBytes + 1, ' ');
  ASSERT_TRUE(sendAll(fd, line.data(), line.size()));
  const Expected<Response> response = Response::parse(receiveLine(fd));
  ASSERT_TRUE(response.ok()) << response.errorText();
  EXPECT_EQ(response->id, 0);
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(response->diagnostics.all()[0].stage, "serve");
  char byte = 0;
  EXPECT_EQ(recvSome(fd, &byte, 1), 0); // EOF
  ::close(fd);

  // A second client on the same daemon is still served.
  Expected<Client> client = Client::connect(socketPath_);
  ASSERT_TRUE(client.ok()) << client.errorText();
  const Expected<Response> compiled =
      client->call(compileRequest(test::kMatMul2D));
  ASSERT_TRUE(compiled.ok()) << compiled.errorText();
  EXPECT_TRUE(compiled->ok) << compiled->encode();

  server.requestStop();
  server.join();
  EXPECT_EQ(server.stats().protocolErrors, 1);
}

TEST_F(ServeTest, ReadLineSurfacesUnterminatedTailAtEof) {
  // A daemon that crashes (or a peer that forgets the trailing
  // newline) after writing a complete response must not lose that
  // response: readLine hands the EOF-terminated tail out as a line.
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socketPath_.c_str(),
              socketPath_.size() + 1);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&address),
                   sizeof(address)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);

  std::thread peer([&] {
    const int fd = ::accept(listener, nullptr, nullptr);
    ASSERT_GE(fd, 0);
    // A valid response with NO trailing '\n', then an orderly close.
    Response response;
    response.id = 1;
    response.kind = RequestKind::Status;
    response.ok = true;
    response.result = json::Value::object();
    const std::string wire = response.encode();
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    ::close(fd);
  });

  Expected<Client> client = Client::connect(socketPath_);
  ASSERT_TRUE(client.ok()) << client.errorText();
  const Expected<Response> received = client->receive(1);
  ASSERT_TRUE(received.ok()) << received.errorText();
  EXPECT_EQ(received->id, 1);
  EXPECT_TRUE(received->ok);
  // The tail is surfaced exactly once; the next read reports the EOF.
  const Expected<Response> eof = client->receiveAny();
  EXPECT_FALSE(eof.ok());
  peer.join();
  ::close(listener);
}

TEST_F(ServeTest, SweepChunkStreamsProgressAndMatchesLocalRows) {
  Session session(SessionOptions{.workers = 2});
  Server server(session, {.socketPath = socketPath_});
  ASSERT_TRUE(server.start().ok());
  Expected<Client> client = Client::connect(socketPath_);
  ASSERT_TRUE(client.ok()) << client.errorText();

  Request request;
  request.kind = RequestKind::SweepChunk;
  request.id = client->nextId();
  request.source = test::kInverseHelmholtz;
  request.points = {{0, "unroll=1", {{"unroll", "1"}}},
                    {1, "unroll=2", {{"unroll", "2"}}},
                    {2, "unroll=4", {{"unroll", "4"}}}};
  ASSERT_TRUE(client->send(request));

  // Events stream before the final response on the same connection;
  // the final result rows arrive in point order with only the
  // deterministic fields.
  int progressEvents = 0;
  Expected<Response> final = Expected<Response>::failure("none", "test");
  for (;;) {
    Expected<Response> message = client->receiveAny();
    ASSERT_TRUE(message.ok()) << message.errorText();
    if (message->event == "progress") {
      ++progressEvents;
      EXPECT_EQ(message->result.at("total").asInt(), 3);
      continue;
    }
    final = std::move(message);
    break;
  }
  ASSERT_TRUE(final->ok) << final->encode();
  EXPECT_EQ(progressEvents, 3); // one per design point
  const json::Value& rows = final->result.at("rows");
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows.at(0).at("label").asString(), "unroll=1");
  EXPECT_EQ(rows.at(1).at("index").asInt(), 1);
  EXPECT_TRUE(rows.at(2).at("feasible").asBool());
  EXPECT_TRUE(rows.at(0).contains("kernel_us"));
  EXPECT_FALSE(rows.at(0).contains("cache_hit")); // run-dependent: banned

  // Events are not responses: the one-response-per-request invariant
  // holds, with events counted separately.
  server.requestStop();
  server.join();
  const Server::Stats stats = server.stats();
  EXPECT_EQ(stats.requestsReceived, stats.responsesSent);
  EXPECT_EQ(stats.progressEvents, 3);
}

TEST_F(ServeTest, StaleSocketIsReplacedButALiveDaemonIsNot) {
  // A crashed daemon leaves its socket file behind; binding a fresh
  // listener and closing it immediately reproduces exactly that state.
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, socketPath_.c_str(),
              socketPath_.size() + 1);
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&address),
                   sizeof(address)),
            0);
  ::close(stale);
  ASSERT_TRUE(fs::exists(socketPath_));

  Session session(SessionOptions{.workers = 1});
  Server server(session, {.socketPath = socketPath_});
  const Expected<bool> started = server.start();
  ASSERT_TRUE(started.ok()) << started.errorText();
  EXPECT_EQ(server.stats().staleSocketsReplaced, 1);

  // While this daemon is live, a second one must refuse the path with
  // a structured error instead of stealing the socket.
  Session other(SessionOptions{.workers = 1});
  Server second(other, {.socketPath = socketPath_});
  const Expected<bool> refused = second.start();
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.errorText().find("already serving"),
            std::string::npos);

  // The live daemon is unharmed: a client can still round-trip.
  Expected<Client> client = Client::connect(socketPath_);
  ASSERT_TRUE(client.ok()) << client.errorText();
  const Expected<Response> response =
      client->call(compileRequest(test::kMatMul2D));
  ASSERT_TRUE(response.ok() && response->ok);

  server.requestStop();
  server.join();
}

TEST_F(ServeTest, RestartedDaemonReusesTheCacheDirOnDisk) {
  const std::string cacheDir = root_ + "/cache";
  const std::string source = test::inverseHelmholtzSource(6);

  // First daemon lifetime: cold compile, artifacts published to disk.
  {
    Session session(
        SessionOptions{.workers = 1, .cacheDir = cacheDir});
    Server server(session, {.socketPath = socketPath_});
    ASSERT_TRUE(server.start().ok());
    Expected<Client> client = Client::connect(socketPath_);
    ASSERT_TRUE(client.ok());
    const Expected<Response> response =
        client->call(compileRequest(source));
    ASSERT_TRUE(response.ok() && response->ok);
    EXPECT_FALSE(response->result.at("cache_hit").asBool());
    EXPECT_GT(session.stats().artifactStore.publishes, 0);
    server.requestStop();
    server.join();
  }

  // Second daemon lifetime on the same dir: the in-memory caches are
  // empty, but the store warms the compile from disk.
  Session session(SessionOptions{.workers = 1, .cacheDir = cacheDir});
  Server server(session, {.socketPath = socketPath_});
  ASSERT_TRUE(server.start().ok());
  Expected<Client> client = Client::connect(socketPath_);
  ASSERT_TRUE(client.ok());
  const Expected<Response> response =
      client->call(compileRequest(source));
  ASSERT_TRUE(response.ok() && response->ok);
  EXPECT_GT(session.stats().artifactStore.hits, 0);

  const json::Value status = statusOf(*client);
  EXPECT_TRUE(
      status.at("stats").at("artifact_store").at("enabled").asBool());
  EXPECT_GT(status.at("stats").at("artifact_store").at("hits").asInt(),
            0);
  server.requestStop();
  server.join();
}

} // namespace
} // namespace cfd::serve
