// Golden diagnostics (ROADMAP item 5a): the exact `--diagnostics=json`
// payload per bad input is pinned, so error-message or JSON-shape
// drift — which breaks tooling that parses cfdc's structured output —
// fails a test instead of shipping silently. The JSON here is built
// exactly as tools/cfdc.cpp reportDiagnostics builds it: a
// {"schema": "cfd-diagnostics-v1", "diagnostics": [...]} object
// rendered with dump(2).
#include "core/Session.h"
#include "support/Json.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>

namespace cfd {
namespace {

/// Renders `diagnostics` as cfdc --diagnostics=json prints them.
std::string renderJson(const DiagnosticList& diagnostics) {
  json::Value root = json::Value::object();
  root.set("schema", "cfd-diagnostics-v1");
  root.set("diagnostics", diagnostics.toJson());
  return root.dump(2);
}

constexpr const char* kValidSource = R"(var input A : [4]
var output B : [4]
B = A
)";

TEST(DiagnosticsGoldenTest, ParseError) {
  Session session;
  const auto result =
      session.compile(CompileRequest("var input A : [4\nB = A\n"));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "expected ']' to close a shape, found B",
      "stage": "parse",
      "line": 2,
      "column": 1
    }
  ]
})json");
}

TEST(DiagnosticsGoldenTest, BadOptionValue) {
  Session session;
  const auto result = session.compile(
      CompileRequest(kValidSource).set("unroll", "banana"));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "parameter 'unroll' expects an integer (got 'banana')",
      "stage": "options"
    }
  ]
})json");
}

TEST(DiagnosticsGoldenTest, UnknownSweepAxis) {
  Session session;
  // Axis validation probes every declared value, so one bad key is
  // reported once per value — pinned as-is.
  const auto result = session.sweep(
      SweepRequest(kValidSource).axis("warp", {"1", "2"}));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "unknown parameter 'warp' (valid: unroll, opt, m, k, sharing, decoupled, objective, layout)",
      "stage": "options"
    },
    {
      "severity": "error",
      "message": "unknown parameter 'warp' (valid: unroll, opt, m, k, sharing, decoupled, objective, layout)",
      "stage": "options"
    }
  ]
})json");
}

// Two shapes whose element counts overflow int64 further down the flow
// (a row-major layout stride, and a byte size in system generation).
// Sema bounds every declared shape first, so each is a diagnostic.
TEST(DiagnosticsGoldenTest, ShapeOverflowingTheLayoutStrides) {
  Session session;
  const auto result = session.compile(
      CompileRequest("var input  u : [4294967296 4294967296 8]\n"
                     "var output v : [4294967296 4294967296 8]\n"
                     "v = u\n"));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "'u': shape [4294967296 4294967296 8] exceeds the bound of 268,435,456 elements per tensor",
      "stage": "parse",
      "line": 1,
      "column": 1
    },
    {
      "severity": "error",
      "message": "'v': shape [4294967296 4294967296 8] exceeds the bound of 268,435,456 elements per tensor",
      "stage": "parse",
      "line": 2,
      "column": 1
    }
  ]
})json");
}

TEST(DiagnosticsGoldenTest, ShapeOverflowingTheByteSizes) {
  Session session;
  const auto result = session.compile(
      CompileRequest("var input  u : [1048576 1048576 1048576]\n"
                     "var output v : [1048576 1048576 1048576]\n"
                     "v = u\n"));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "'u': shape [1048576 1048576 1048576] exceeds the bound of 268,435,456 elements per tensor",
      "stage": "parse",
      "line": 1,
      "column": 1
    },
    {
      "severity": "error",
      "message": "'v': shape [1048576 1048576 1048576] exceeds the bound of 268,435,456 elements per tensor",
      "stage": "parse",
      "line": 2,
      "column": 1
    }
  ]
})json");
}

// kMaxDims (support/Format.h) bounds every rank and loop nest, because
// poly::AffineExpr keeps that many coefficients inline. Both kernels
// compiled before the bound existed; each must end in diagnostics, not
// in an InternalError from the affine engine.
TEST(DiagnosticsGoldenTest, RankOverTheBound) {
  Session session;
  const auto result = session.compile(
      CompileRequest("var input  a : [2 2 2 2 2 2 2 2 2]\n"
                     "var output b : [2 2 2 2 2 2 2 2 2]\n"
                     "b = a\n"));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "'a': shape [2 2 2 2 2 2 2 2 2] exceeds the bound of 8 dimensions per tensor",
      "stage": "parse",
      "line": 1,
      "column": 1
    },
    {
      "severity": "error",
      "message": "'b': shape [2 2 2 2 2 2 2 2 2] exceeds the bound of 8 dimensions per tensor",
      "stage": "parse",
      "line": 2,
      "column": 1
    }
  ]
})json");
}

// Every declared rank is within the bound, but contracting two rank-5
// tensors over one pair forms a domain of 4 + 4 + 1 = 9 loops.
TEST(DiagnosticsGoldenTest, ContractionDomainOverTheBound) {
  Session session;
  const auto result = session.compile(
      CompileRequest("var input  a : [2 2 2 2 3]\n"
                     "var input  c : [3 2 2 2 2]\n"
                     "var output b : [2 2 2 2 2 2 2 2]\n"
                     "b = a # c . [[4 5]]\n"));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "contraction a # c: domain of 9 loops exceeds the bound of 8 loops per statement",
      "stage": "lower"
    }
  ]
})json");
}

// A literal must fit where it is used; one that does not is one parse
// diagnostic naming it as written. Each of these once compiled or
// reported a value the source does not say: a pair index cast to int
// (4294967298 became 2), an extent saturated to 9223372036854775807,
// and a scalar of inf.
TEST(DiagnosticsGoldenTest, PairIndexPastInt) {
  Session session;
  const auto result =
      session.compile(CompileRequest("var input  S : [3 3]\n"
                                     "var input  u : [3 3]\n"
                                     "var output v : [3 3]\n"
                                     "v = S # u . [[1 4294967298]]\n"));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "integer literal '4294967298' is out of range",
      "stage": "parse",
      "line": 4,
      "column": 17
    }
  ]
})json");
}

TEST(DiagnosticsGoldenTest, IntegerLiteralPastInt64) {
  Session session;
  const auto result = session.compile(
      CompileRequest("var input  u : [99999999999999999999]\n"
                     "var output v : [3]\n"
                     "v = u\n"));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "integer literal '99999999999999999999' is out of range",
      "stage": "parse",
      "line": 1,
      "column": 17
    }
  ]
})json");
}

TEST(DiagnosticsGoldenTest, FloatLiteralOverflowingDouble) {
  Session session;
  const auto result =
      session.compile(CompileRequest("var input  u : [3]\n"
                                     "var output v : [3]\n"
                                     "v = u * 1e999\n"));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "float literal '1e999' is out of range",
      "stage": "parse",
      "line": 3,
      "column": 9
    }
  ]
})json");
}

// 20,000 nested parentheses (a 40 KB source): the parser stops at the
// 257th instead of recursing until the stack overflows.
TEST(DiagnosticsGoldenTest, ParenthesesNestedPastTheDepthBound) {
  Session session;
  const auto result = session.compile(CompileRequest(
      "var input u : [4]\nvar output v : [4]\nv = " +
      std::string(20000, '(') + "u" + std::string(20000, ')') + "\n"));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "expression nested deeper than 256 levels",
      "stage": "parse",
      "line": 3,
      "column": 261
    }
  ]
})json");
}

// A sum nested 257 deep, one level past what the artifact codec
// decodes: compiled, its store entries failed verification in every
// later process (test_store reloads the 256-deep one).
TEST(DiagnosticsGoldenTest, SumNestedOneLevelPastTheDepthBound) {
  Session session;
  const auto result =
      session.compile(CompileRequest(test::deepExpressionSources(257)[0]));
  ASSERT_FALSE(result);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "expression nested deeper than 256 levels",
      "stage": "parse",
      "line": 4,
      "column": 1285
    }
  ]
})json");
}

TEST(DiagnosticsGoldenTest, DeadlineExpiredJob) {
  Session session(SessionOptions{.workers = 1});
  // Deterministic queued expiry: occupy the single worker until the
  // 1 ms deadline is long past, so the job is cancelled before it ever
  // starts and the "while queued" variant is the one pinned.
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future().share());
  std::atomic<int> running{0};
  session.workerPool().post(
      [&] {
        ++running;
        gate.wait();
      },
      WorkerPool::kPriorityHigh);
  while (running.load() < 1)
    std::this_thread::yield();

  Job<CompileResult> job = session.submitCompile(
      CompileRequest(test::kInverseHelmholtz), {.deadlineMillis = 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  release.set_value();
  const Expected<CompileResult>& result = job.wait();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(job.state(), JobState::Cancelled);
  EXPECT_EQ(renderJson(result.diagnostics()),
            R"json({
  "schema": "cfd-diagnostics-v1",
  "diagnostics": [
    {
      "severity": "error",
      "message": "deadline exceeded while queued",
      "stage": "job-queue"
    }
  ]
})json");
}

} // namespace
} // namespace cfd
