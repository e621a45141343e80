#include "serve/Protocol.h"

#include "support/Error.h"
#include "support/SourceLocation.h"

#include <algorithm>

namespace cfd::serve {

namespace {

/// One stage-"serve" error as an Expected failure.
template <typename T>
Expected<T> protocolError(std::string message) {
  return Expected<T>::failure(std::move(message), "serve");
}

const RequestKind kParsableKinds[] = {
    RequestKind::Compile,    RequestKind::Sweep,  RequestKind::Tune,
    RequestKind::SweepChunk, RequestKind::Status, RequestKind::Cancel,
    RequestKind::Shutdown,
};

std::string validKindList() {
  std::string names;
  for (RequestKind kind : kParsableKinds) {
    if (!names.empty())
      names += ", ";
    names += requestKindName(kind);
  }
  return names;
}

/// Reads an optional member: returns fallback when absent.
std::int64_t intOr(const json::Value& object, std::string_view key,
                   std::int64_t fallback) {
  return object.contains(key) ? object.at(key).asInt() : fallback;
}

/// Moves an optional string member out of a parsed document; "" when
/// absent.
std::string takeString(json::Value& object, std::string_view key) {
  return object.contains(key) ? std::move(object.at(key)).asString()
                              : std::string();
}

// The writers below append straight into the line, member by member, in
// the order and form json::Value::dump(-1) gives the same document.

/// `{"cfd_serve":1,"id":N,"kind":"name"`: the leading members of every
/// message.
void writeEnvelope(std::string& out, std::int64_t id, RequestKind kind) {
  out += "{\"";
  out += kVersionKey;
  out += "\":";
  json::writeNumber(out, std::int64_t{kProtocolVersion});
  out += ",\"id\":";
  json::writeNumber(out, id);
  out += ",\"kind\":\"";
  out += requestKindName(kind);
  out += '"';
}

/// `,"name":` before each later member (names need no escaping).
void writeKey(std::string& out, std::string_view name) {
  out += ",\"";
  out += name;
  out += "\":";
}

/// An object of string members. A repeated key keeps Value::set's rule:
/// the last value, at the first key's place.
void writeParams(
    std::string& out,
    const std::vector<std::pair<std::string, std::string>>& params) {
  out += '{';
  for (auto it = params.begin(); it != params.end(); ++it) {
    const auto sameKey = [&](const auto& param) {
      return param.first == it->first;
    };
    if (std::any_of(params.begin(), it, sameKey))
      continue;
    if (out.back() != '{')
      out += ',';
    json::writeString(out, it->first);
    out += ':';
    json::writeString(out,
                      std::find_if(params.rbegin(), params.rend(), sameKey)
                          ->second);
  }
  out += '}';
}

void writeStrings(std::string& out, const std::vector<std::string>& strings) {
  out += '[';
  for (std::size_t i = 0; i < strings.size(); ++i) {
    if (i > 0)
      out += ',';
    json::writeString(out, strings[i]);
  }
  out += ']';
}

} // namespace

const char* requestKindName(RequestKind kind) {
  switch (kind) {
  case RequestKind::Compile: return "compile";
  case RequestKind::Sweep: return "sweep";
  case RequestKind::Tune: return "tune";
  case RequestKind::SweepChunk: return "sweep_chunk";
  case RequestKind::Status: return "status";
  case RequestKind::Cancel: return "cancel";
  case RequestKind::Shutdown: return "shutdown";
  case RequestKind::Invalid: return "error";
  }
  return "?";
}

std::string Request::encode() const {
  std::string out;
  out.reserve(128 + source.size());
  writeEnvelope(out, id, kind);
  if (!source.empty()) {
    writeKey(out, "source");
    json::writeString(out, source);
  }
  if (!params.empty()) {
    writeKey(out, "params");
    writeParams(out, params);
  }
  if (!artifacts.empty()) {
    writeKey(out, "artifacts");
    writeStrings(out, artifacts);
  }
  if (!axes.empty()) {
    writeKey(out, "axes");
    out += '[';
    for (std::size_t i = 0; i < axes.size(); ++i) {
      out += i > 0 ? ",{\"key\":" : "{\"key\":";
      json::writeString(out, axes[i].key);
      out += ",\"values\":";
      writeStrings(out, axes[i].values);
      out += '}';
    }
    out += ']';
  }
  if (!points.empty()) {
    writeKey(out, "points");
    out += '[';
    for (std::size_t i = 0; i < points.size(); ++i) {
      out += i > 0 ? ",{\"index\":" : "{\"index\":";
      json::writeNumber(out, points[i].index);
      out += ",\"label\":";
      json::writeString(out, points[i].label);
      out += ",\"params\":";
      writeParams(out, points[i].params);
      out += '}';
    }
    out += ']';
  }
  if (kind == RequestKind::Tune) {
    if (!strategy.empty()) {
      writeKey(out, "strategy");
      json::writeString(out, strategy);
    }
    if (seed != 1) {
      writeKey(out, "seed");
      json::writeNumber(out, static_cast<std::int64_t>(seed));
    }
    if (samples != 16) {
      writeKey(out, "samples");
      json::writeNumber(out, static_cast<std::int64_t>(samples));
    }
    if (maxSteps != 32) {
      writeKey(out, "max_steps");
      json::writeNumber(out, static_cast<std::int64_t>(maxSteps));
    }
    if (!objectives.empty()) {
      writeKey(out, "objectives");
      writeStrings(out, objectives);
    }
  }
  if (!priority.empty()) {
    writeKey(out, "priority");
    json::writeString(out, priority);
  }
  if (deadlineMillis > 0) {
    writeKey(out, "deadline_ms");
    json::writeNumber(out, deadlineMillis);
  }
  if (kind == RequestKind::Cancel) {
    writeKey(out, "target");
    json::writeNumber(out, target);
  }
  out += '}';
  return out;
}

Expected<Request> Request::parse(std::string_view line,
                                 std::int64_t* echoId) {
  if (echoId != nullptr)
    *echoId = 0;
  json::Value document;
  try {
    document = json::Value::parse(line);
  } catch (const FlowError& e) {
    return protocolError<Request>(std::string("malformed request: ") +
                                  e.what());
  }
  try {
    if (!document.isObject())
      return protocolError<Request>(
          "malformed request: expected a JSON object");
    if (!document.contains(kVersionKey))
      return protocolError<Request>(
          "not a cfd-serve message (missing 'cfd_serve' version member)");
    // The id is echoed on error responses whenever it is readable, so
    // extract it before any further validation can fail.
    if (document.contains("id") && document.at("id").isNumber() &&
        echoId != nullptr)
      *echoId = document.at("id").asInt();
    const std::int64_t version = document.at(kVersionKey).asInt();
    if (version != kProtocolVersion)
      return protocolError<Request>(
          "protocol version mismatch: peer speaks v" +
          std::to_string(version) + ", this build speaks v" +
          std::to_string(kProtocolVersion));

    Request request;
    const std::string kindName = takeString(document, "kind");
    bool known = false;
    for (RequestKind kind : kParsableKinds)
      if (kindName == requestKindName(kind)) {
        request.kind = kind;
        known = true;
      }
    if (!known)
      return protocolError<Request>("unknown request kind '" + kindName +
                                    "' (valid: " + validKindList() + ")");
    request.id = intOr(document, "id", 0);
    if (request.id <= 0)
      return protocolError<Request>(
          "request needs a positive 'id' to address the response");

    request.source = takeString(document, "source");
    const bool needsSource = request.kind == RequestKind::Compile ||
                             request.kind == RequestKind::Sweep ||
                             request.kind == RequestKind::Tune ||
                             request.kind == RequestKind::SweepChunk;
    if (needsSource && request.source.empty())
      return protocolError<Request>(std::string("'") +
                                    requestKindName(request.kind) +
                                    "' request has no 'source'");
    if (document.contains("params"))
      for (const auto& [key, value] : document.at("params").members())
        request.params.emplace_back(key, value.asString());
    if (document.contains("artifacts")) {
      const json::Value& array = document.at("artifacts");
      for (std::size_t i = 0; i < array.size(); ++i)
        request.artifacts.push_back(array.at(i).asString());
    }
    if (document.contains("axes")) {
      const json::Value& array = document.at("axes");
      for (std::size_t i = 0; i < array.size(); ++i) {
        const json::Value& entry = array.at(i);
        AxisSpec axis;
        axis.key = entry.at("key").asString();
        const json::Value& values = entry.at("values");
        for (std::size_t j = 0; j < values.size(); ++j)
          axis.values.push_back(values.at(j).asString());
        request.axes.push_back(std::move(axis));
      }
    }
    if (document.contains("points")) {
      json::Value& array = document.at("points");
      for (std::size_t i = 0; i < array.size(); ++i) {
        json::Value& entry = array.at(i);
        ChunkPoint point;
        point.index = entry.at("index").asInt();
        point.label = std::move(entry.at("label")).asString();
        if (entry.contains("params"))
          for (const auto& [key, value] : entry.at("params").members())
            point.params.emplace_back(key, value.asString());
        request.points.push_back(std::move(point));
      }
    }
    if (request.kind == RequestKind::SweepChunk && request.points.empty())
      return protocolError<Request>(
          "'sweep_chunk' request has no 'points'");
    request.strategy = takeString(document, "strategy");
    request.seed =
        static_cast<std::uint64_t>(intOr(document, "seed", 1));
    request.samples =
        static_cast<std::size_t>(intOr(document, "samples", 16));
    request.maxSteps =
        static_cast<std::size_t>(intOr(document, "max_steps", 32));
    if (document.contains("objectives")) {
      const json::Value& array = document.at("objectives");
      for (std::size_t i = 0; i < array.size(); ++i)
        request.objectives.push_back(array.at(i).asString());
    }
    request.priority = takeString(document, "priority");
    if (!request.priority.empty() && request.priority != "low" &&
        request.priority != "normal" && request.priority != "high")
      return protocolError<Request>("unknown priority '" + request.priority +
                                    "' (valid: low, normal, high)");
    if (document.contains("deadline_ms"))
      request.deadlineMillis = document.at("deadline_ms").asDouble();
    request.target = intOr(document, "target", 0);
    if (request.kind == RequestKind::Cancel && request.target <= 0)
      return protocolError<Request>(
          "'cancel' request has no 'target' request id");
    return request;
  } catch (const FlowError& e) {
    // A member with the wrong JSON kind (asString on a number, a
    // missing nested key, ...) lands here.
    return protocolError<Request>(std::string("malformed request: ") +
                                  e.what());
  }
}

std::string Response::encode() const {
  std::string out;
  writeEnvelope(out, id, kind);
  writeKey(out, "ok");
  out += ok ? "true" : "false";
  if (cancelled) {
    writeKey(out, "cancelled");
    out += "true";
  }
  if (!event.empty()) {
    writeKey(out, "event");
    json::writeString(out, event);
  }
  if (ok) {
    writeKey(out, "result");
    result.dumpTo(out, -1);
  } else {
    writeKey(out, "diagnostics");
    diagnostics.toJson().dumpTo(out, -1);
  }
  out += '}';
  return out;
}

Expected<Response> Response::parse(std::string_view line) {
  json::Value document;
  try {
    document = json::Value::parse(line);
  } catch (const FlowError& e) {
    return protocolError<Response>(std::string("malformed response: ") +
                                   e.what());
  }
  try {
    if (!document.isObject())
      return protocolError<Response>(
          "malformed response: expected a JSON object");
    if (!document.contains(kVersionKey))
      return protocolError<Response>(
          "not a cfd-serve message (missing 'cfd_serve' version member)");
    const std::int64_t version = document.at(kVersionKey).asInt();
    if (version != kProtocolVersion)
      return protocolError<Response>(
          "protocol version mismatch: peer speaks v" +
          std::to_string(version) + ", this build speaks v" +
          std::to_string(kProtocolVersion));

    Response response;
    response.id = intOr(document, "id", 0);
    const std::string kindName = takeString(document, "kind");
    response.kind = RequestKind::Invalid;
    for (RequestKind kind : kParsableKinds)
      if (kindName == requestKindName(kind))
        response.kind = kind;
    response.ok = document.contains("ok") && document.at("ok").asBool();
    response.cancelled =
        document.contains("cancelled") && document.at("cancelled").asBool();
    response.event = takeString(document, "event");
    if (response.ok) {
      response.result = std::move(document.at("result"));
    } else if (document.contains("diagnostics")) {
      json::Value& array = document.at("diagnostics");
      for (std::size_t i = 0; i < array.size(); ++i) {
        json::Value& entry = array.at(i);
        Diagnostic diagnostic;
        const std::string severity = takeString(entry, "severity");
        diagnostic.severity = severity == "warning" ? Severity::Warning
                              : severity == "note" ? Severity::Note
                                                   : Severity::Error;
        diagnostic.message = takeString(entry, "message");
        diagnostic.stage = takeString(entry, "stage");
        if (entry.contains("line")) {
          diagnostic.location.line =
              static_cast<int>(entry.at("line").asInt());
          diagnostic.location.column =
              static_cast<int>(intOr(entry, "column", 0));
        }
        response.diagnostics.add(std::move(diagnostic));
      }
    }
    return response;
  } catch (const FlowError& e) {
    return protocolError<Response>(std::string("malformed response: ") +
                                   e.what());
  }
}

Response errorResponse(std::int64_t id, RequestKind kind,
                       DiagnosticList diagnostics, bool cancelled) {
  CFD_ASSERT(diagnostics.hasErrors(),
             "an error response needs an error diagnostic");
  Response response;
  response.id = id;
  response.kind = kind;
  response.ok = false;
  response.cancelled = cancelled;
  response.diagnostics = std::move(diagnostics);
  return response;
}

} // namespace cfd::serve
