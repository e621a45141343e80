// cfd::serve wire protocol (DESIGN.md §15).
//
// The compile daemon (serve/Server.h) and its clients (serve/Client.h,
// `cfdc --connect`) speak newline-delimited JSON over a Unix domain
// socket: every message is exactly one line of compact JSON (no
// unescaped newlines — support/Json escapes them) terminated by '\n'.
// Both directions carry an explicit protocol version in the leading
// "cfd_serve" member, so a client built against a different protocol
// gets a structured "version mismatch" error instead of silent
// misparsing.
//
// Requests name one of seven kinds — compile, sweep, tune,
// sweep_chunk, status, cancel, shutdown — plus a client-chosen "id"
// echoed on the response,
// so one connection may keep several requests in flight and match
// answers by id. compile/sweep/tune carry the DSL source inline (the
// daemon has no filesystem contract with its clients) and translate to
// the Session's submitCompile/submitSweep/submitTune jobs; "priority"
// and "deadline_ms" map onto JobConfig, so daemon clients get the same
// scheduling controls as embedded ones (DESIGN.md §11).
//
// Failures reuse the existing structured-diagnostics shape: a response
// with "ok": false carries the same DiagnosticList JSON array as
// `cfdc --diagnostics=json` (DESIGN.md §10), with protocol-level
// problems attributed to stage "serve".
#pragma once

#include "support/Diagnostics.h"
#include "support/Expected.h"
#include "support/Json.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cfd::serve {

/// Version of the wire protocol this build speaks. Bump on any change
/// to message shapes; a mismatch is rejected with a structured error
/// naming both versions (the versioning rule in DESIGN.md §15).
inline constexpr int kProtocolVersion = 1;

/// The leading member every message starts with.
inline constexpr const char* kVersionKey = "cfd_serve";

/// The longest request line, without its newline, a daemon reads. A
/// longer one gets one "serve" error response, then the connection
/// closes. The longest lines the repo's own clients send are the
/// sweep_chunk requests of distributed sweeps, the source plus up to
/// ~190 bytes per point in ~4 chunks per worker: at most 3.5 KB in
/// perfbench's dist_sweep, 19 KB for an 800-point `cfdc --distribute=2`.
inline constexpr std::size_t kMaxRequestBytes = std::size_t{16} << 20;

enum class RequestKind {
  Compile,    ///< one compile job; optional materialized artifacts
  Sweep,      ///< axes cross product through the session cache
  Tune,       ///< strategy-driven search, returns the TuningReport JSON
  SweepChunk, ///< explicit design points of a distributed sweep
              ///< (DESIGN.md §16); streams progress events mid-job
  Status,     ///< session + server counters and the statsReport() text
  Cancel,     ///< cooperative cancel of an earlier request by its id
  Shutdown,   ///< ack, then stop accepting and drain (DESIGN.md §15)
  Invalid,    ///< response-only: the request could not be parsed
};

/// Stable lower-case wire name ("compile", ..., "error" for Invalid).
const char* requestKindName(RequestKind kind);

/// One declared axis of a sweep/tune request (mirrors cfd::TuneAxis;
/// redeclared here so the wire layer does not depend on the tuner).
struct AxisSpec {
  std::string key;
  std::vector<std::string> values;

  bool operator==(const AxisSpec&) const = default;
};

/// One explicit design point of a sweep_chunk request (DESIGN.md §16):
/// its position in the full cross product (so the coordinator can
/// merge chunks back into design-point order), the coordinator-built
/// human label, and the axis assignments applied over the base params.
struct ChunkPoint {
  std::int64_t index = 0;
  std::string label;
  std::vector<std::pair<std::string, std::string>> params;

  bool operator==(const ChunkPoint&) const = default;
};

/// One request message. Fields beyond (kind, id) apply per kind — the
/// per-kind table in DESIGN.md §15 is normative; encode() omits
/// defaulted members so the wire form stays minimal and stable.
struct Request {
  RequestKind kind = RequestKind::Compile;
  /// Client-chosen correlation id, echoed verbatim on the response.
  /// Must be > 0 (0 is reserved for error responses to unparseable
  /// requests).
  std::int64_t id = 0;

  // compile / sweep / tune
  std::string source; ///< DSL text, sent inline
  /// Named option overrides applied in order (the cfdc sweep keys:
  /// unroll|opt|m|k|sharing|decoupled|objective|layout).
  std::vector<std::pair<std::string, std::string>> params;

  // compile
  /// Artifact texts to materialize into the response:
  /// c|mnemosyne|host|dot|report.
  std::vector<std::string> artifacts;

  // sweep / tune
  std::vector<AxisSpec> axes;

  // sweep_chunk (DESIGN.md §16)
  std::vector<ChunkPoint> points;

  // tune
  std::string strategy; ///< empty = exhaustive
  std::uint64_t seed = 1;
  std::size_t samples = 16;  ///< random strategy
  std::size_t maxSteps = 32; ///< hill-climb strategy
  std::vector<std::string> objectives;

  // job scheduling (compile / sweep / tune)
  std::string priority;      ///< ""|low|normal|high ("" = normal)
  double deadlineMillis = 0; ///< 0 = none

  // cancel
  std::int64_t target = 0; ///< id of the request to cancel

  bool operator==(const Request&) const = default;

  /// One compact line, no trailing newline (the transport adds it):
  /// the canonical wire line (DESIGN.md §15), members in a fixed order
  /// and defaulted ones omitted, written straight into one string.
  std::string encode() const;

  /// Parses one received line. On any problem — malformed JSON, a
  /// version mismatch, an unknown kind, missing required fields, a
  /// member of the wrong JSON kind — the failure carries one
  /// stage-"serve" diagnostic, and `echoId` (when non-null) receives
  /// the request id if one was readable, so the server can still
  /// address its error response.
  static Expected<Request> parse(std::string_view line,
                                 std::int64_t* echoId = nullptr);
};

/// One response message. `ok` selects which payload is present:
/// `result` (an object, per-kind shape in DESIGN.md §15) on success,
/// `diagnostics` (DiagnosticList JSON) on failure. `cancelled` marks
/// failures produced by cooperative cancellation (client cancel,
/// deadline expiry, or daemon shutdown) rather than by the compile.
///
/// A non-empty `event` marks a streamed mid-job event rather than the
/// final answer for `id` — today only "progress", emitted while a
/// sweep_chunk executes (DESIGN.md §16), with `result` carrying
/// {done, total}. Events never resolve a Client::call/receive; read
/// them with Client::receiveAny.
struct Response {
  std::int64_t id = 0;
  RequestKind kind = RequestKind::Invalid;
  bool ok = false;
  bool cancelled = false;
  std::string event;          ///< "" = final response; "progress" = event
  json::Value result;         ///< valid when ok
  DiagnosticList diagnostics; ///< non-empty when !ok

  /// One compact line, no trailing newline: the envelope, then
  /// `result` or `diagnostics` appended in place.
  std::string encode() const;

  /// Parses one received line; `result` is moved out of the parsed
  /// document. Failures carry one stage-"serve" diagnostic.
  static Expected<Response> parse(std::string_view line);
};

/// Builds the error response for a failed request: `diagnostics` must
/// carry at least one error. `id` 0 addresses an unparseable request.
Response errorResponse(std::int64_t id, RequestKind kind,
                       DiagnosticList diagnostics, bool cancelled = false);

} // namespace cfd::serve
