// Randomized end-to-end property testing: generate structurally random
// CFDlang programs (entry-wise chains, products, binary and n-ary
// contractions over random shapes), push them through the complete flow
// under randomized options, and check the interpreted hardware schedule
// against the direct reference semantics.
//
// Any bug in shape inference, contraction splitting, operand maps,
// layout materialization, rescheduling, or sharing shows up here as a
// numeric mismatch.
#include "core/Flow.h"
#include "core/Session.h"
#include "mem/Dataflow.h"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

namespace cfd {
namespace {

class ProgramFuzzer {
public:
  explicit ProgramFuzzer(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    std::ostringstream src;
    // Random input tensors.
    const int numInputs = pick(2, 4);
    for (int i = 0; i < numInputs; ++i) {
      const std::string name = "in" + std::to_string(i);
      const auto shape = randomShape();
      src << "var input " << name << " : " << shapeText(shape) << "\n";
      tensors_.push_back({name, shape});
    }
    // Random derived statements on locals.
    const int numLocals = pick(1, 3);
    std::vector<std::string> statements;
    for (int i = 0; i < numLocals; ++i) {
      const std::string name = "w" + std::to_string(i);
      const auto [expr, shape] = randomExpr();
      statements.push_back(name + " = " + expr);
      src << "var " << name << " : " << shapeText(shape) << "\n";
      tensors_.push_back({name, shape});
    }
    // One output consuming the last local (guarantees everything chains).
    const auto [expr, shape] = randomExpr();
    src << "var output out : " << shapeText(shape) << "\n";
    for (const auto& statement : statements)
      src << statement << "\n";
    src << "out = " << expr << "\n";
    return src.str();
  }

private:
  struct NamedTensor {
    std::string name;
    std::vector<std::int64_t> shape;
  };

  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }

  std::vector<std::int64_t> randomShape() {
    const int rank = pick(1, 3);
    std::vector<std::int64_t> shape;
    for (int d = 0; d < rank; ++d)
      shape.push_back(pick(2, 5));
    return shape;
  }

  static std::string shapeText(const std::vector<std::int64_t>& shape) {
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < shape.size(); ++i)
      os << (i ? " " : "") << shape[i];
    os << "]";
    return os.str();
  }

  const NamedTensor& randomTensor() {
    return tensors_[static_cast<std::size_t>(
        pick(0, static_cast<int>(tensors_.size()) - 1))];
  }

  /// Returns (expression text, shape).
  std::pair<std::string, std::vector<std::int64_t>> randomExpr() {
    switch (pick(0, 2)) {
    case 0:
      return randomEntryWise();
    case 1:
      return randomContraction(2);
    default:
      return randomContraction(3);
    }
  }

  std::pair<std::string, std::vector<std::int64_t>> randomEntryWise() {
    const NamedTensor& a = randomTensor();
    // Find a same-shaped partner (fall back to scalar arithmetic).
    for (int attempt = 0; attempt < 8; ++attempt) {
      const NamedTensor& b = randomTensor();
      if (b.shape == a.shape && b.name != a.name) {
        const char* ops[] = {"+", "-", "*"};
        return {"(" + a.name + " " + ops[pick(0, 2)] + " " + b.name + ")",
                a.shape};
      }
    }
    return {"(" + a.name + " * 2 + 1)", a.shape};
  }

  std::pair<std::string, std::vector<std::int64_t>>
  randomContraction(int factors) {
    // Choose factor tensors (rank-capped so the reference evaluation of
    // the product space stays tractable), then contract random
    // cross-factor dim pairs with matching extents.
    std::vector<const NamedTensor*> chosen;
    for (int f = 0; f < factors; ++f) {
      const NamedTensor* candidate = &randomTensor();
      for (int attempt = 0;
           attempt < 8 && candidate->shape.size() > 2; ++attempt)
        candidate = &randomTensor();
      if (candidate->shape.size() > 3)
        return randomEntryWise();
      chosen.push_back(candidate);
    }
    std::vector<std::int64_t> productShape;
    std::vector<int> owner;
    for (int f = 0; f < factors; ++f)
      for (std::int64_t extent : chosen[static_cast<std::size_t>(f)]->shape) {
        productShape.push_back(extent);
        owner.push_back(f);
      }
    // Collect candidate pairs (cross-factor, equal extent).
    std::vector<std::pair<int, int>> candidates;
    for (std::size_t i = 0; i < productShape.size(); ++i)
      for (std::size_t j = i + 1; j < productShape.size(); ++j)
        if (owner[i] != owner[j] && productShape[i] == productShape[j])
          candidates.emplace_back(static_cast<int>(i),
                                  static_cast<int>(j));
    std::shuffle(candidates.begin(), candidates.end(), rng_);
    std::vector<std::pair<int, int>> pairs;
    std::vector<bool> used(productShape.size(), false);
    const int wanted = pick(1, 2);
    for (const auto& [i, j] : candidates) {
      if (static_cast<int>(pairs.size()) == wanted)
        break;
      if (used[static_cast<std::size_t>(i)] ||
          used[static_cast<std::size_t>(j)])
        continue;
      pairs.emplace_back(i, j);
      used[static_cast<std::size_t>(i)] = true;
      used[static_cast<std::size_t>(j)] = true;
    }
    if (pairs.empty()) {
      // No valid contraction: plain outer product, but keep results
      // small enough for downstream statements.
      if (productShape.size() > 4)
        return randomEntryWise();
      std::ostringstream expr;
      for (int f = 0; f < factors; ++f)
        expr << (f ? " # " : "") << chosen[static_cast<std::size_t>(f)]->name;
      return {expr.str(), productShape};
    }
    std::ostringstream expr;
    for (int f = 0; f < factors; ++f)
      expr << (f ? " # " : "") << chosen[static_cast<std::size_t>(f)]->name;
    expr << " . [";
    for (const auto& [i, j] : pairs)
      expr << "[" << i << " " << j << "]";
    expr << "]";
    std::vector<std::int64_t> shape;
    for (std::size_t d = 0; d < productShape.size(); ++d)
      if (!used[d])
        shape.push_back(productShape[d]);
    // Keep derived tensors small so later statements (and the PLM
    // sizing) stay tractable.
    if (shape.size() > 4)
      return randomEntryWise();
    return {expr.str(), shape};
  }

  std::mt19937_64 rng_;
  std::vector<NamedTensor> tensors_;
};

class FuzzPipeline : public ::testing::TestWithParam<int> {};

TEST_P(FuzzPipeline, RandomProgramValidates) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  ProgramFuzzer fuzzer(seed);
  const std::string source = fuzzer.generate();
  SCOPED_TRACE("program:\n" + source);

  // Randomize flow options from the same seed.
  std::mt19937_64 rng(seed * 7919);
  FlowOptions options;
  options.reschedule.objective = (rng() & 1)
                                     ? sched::ScheduleObjective::Hardware
                                     : sched::ScheduleObjective::Software;
  options.memory.enableSharing = (rng() & 2) != 0;
  options.layouts.defaultLayout = (rng() & 4)
                                      ? sched::LayoutKind::RowMajor
                                      : sched::LayoutKind::ColumnMajor;
  options.system.memories = 1;
  options.system.kernels = 1;

  const Flow flow = Flow::compile(source, options);
  EXPECT_LE(flow.validate(seed + 1), 1e-9);
  // The schedule must always be legal.
  EXPECT_EQ(mem::verifySchedule(flow.schedule()), "");
  // Memory plan must cover every tensor.
  for (const auto& tensor : flow.program().tensors())
    EXPECT_GE(flow.memoryPlan().bufferIndexOf(tensor.id), 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzPipeline, ::testing::Range(1, 33));

// Randomized interleavings of the job-queue state machine (DESIGN.md
// §11): submit / cancel / wait / poll in a seed-reproducible order
// against one session, then assert the invariants that must hold for
// EVERY interleaving — each handle resolves to a legal terminal state
// with a result matching that state, and the session counters balance.
class FuzzJobQueue : public ::testing::TestWithParam<int> {};

TEST_P(FuzzJobQueue, RandomSubmitCancelWaitInterleavingStaysConsistent) {
  const std::uint64_t seed = static_cast<std::uint64_t>(GetParam());
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ull);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };

  Session session(SessionOptions{.workers = 2});
  // A fixed palette of sources/options keeps compiles cheap (cache
  // reuse) while still mixing distinct pipeline shapes — including a
  // malformed source, so cancellations race ordinary failures too.
  const std::string sources[] = {
      "var input A : [4 4]\nvar input B : [4 4]\nvar output C : [4 4]\n"
      "C = A # B . [[1 2]]\n",
      "var input A : [3 3]\nvar output B : [3 3]\nB = (A * 2 + 1)\n",
      "this is not a program\n",
  };
  std::vector<Job<CompileResult>> jobs;
  int cancelsIssued = 0;
  for (int step = 0; step < 120; ++step) {
    switch (pick(0, 9)) {
    case 0:
    case 1:
    case 2:
    case 3:
    case 4: { // submit (half the operations keep the queue busy)
      CompileRequest request(sources[pick(0, 2)]);
      FlowOptions options;
      options.hls.unrollFactor = 1 << pick(0, 2);
      options.memory.enableSharing = pick(0, 1) == 1;
      request.options(options);
      JobConfig config;
      config.priority = static_cast<JobPriority>(pick(0, 2));
      if (pick(0, 7) == 0)
        config.deadlineMillis = pick(1, 3); // occasionally tight
      jobs.push_back(session.submitCompile(std::move(request), config));
      break;
    }
    case 5:
    case 6: { // cancel a random live handle
      if (jobs.empty())
        break;
      if (jobs[static_cast<std::size_t>(
                   pick(0, static_cast<int>(jobs.size()) - 1))]
              .cancel())
        ++cancelsIssued;
      break;
    }
    case 7: { // wait on a random handle (blocking join mid-stream)
      if (jobs.empty())
        break;
      const auto& job = jobs[static_cast<std::size_t>(
          pick(0, static_cast<int>(jobs.size()) - 1))];
      job.wait();
      EXPECT_TRUE(job.poll());
      break;
    }
    default: { // poll/state are always safe, resolved or not
      if (jobs.empty())
        break;
      const auto& job = jobs[static_cast<std::size_t>(
          pick(0, static_cast<int>(jobs.size()) - 1))];
      // poll() first: a job may resolve between the two reads, and only
      // a state read after a true poll() must be terminal.
      const bool resolved = job.poll();
      const JobState state = job.state();
      if (resolved)
        EXPECT_TRUE(state == JobState::Done ||
                    state == JobState::Cancelled);
      break;
    }
    }
  }
  session.drainJobs();

  std::int64_t done = 0;
  std::int64_t cancelled = 0;
  for (const Job<CompileResult>& job : jobs) {
    ASSERT_TRUE(job.poll());
    const Expected<CompileResult>& result = job.wait();
    if (job.state() == JobState::Done) {
      // Done covers both outcomes of work that ran to completion: a
      // success, or an ordinary failure with its own diagnostics (the
      // malformed palette entry parse-fails here).
      ++done;
      if (!result.ok())
        ASSERT_GE(result.diagnostics().size(), 1u) << "empty failure";
    } else {
      // Cancelled ALWAYS carries the job-queue diagnostic — even when
      // the cancellation raced work that produced its own failure.
      ASSERT_EQ(job.state(), JobState::Cancelled);
      ++cancelled;
      ASSERT_FALSE(result.ok());
      EXPECT_EQ(result.diagnostics()[0].stage, "job-queue");
    }
  }
  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.jobsSubmitted, static_cast<std::int64_t>(jobs.size()));
  EXPECT_EQ(stats.jobsCompleted, done);
  EXPECT_EQ(stats.jobsCancelled, cancelled);
  EXPECT_EQ(stats.jobQueueDepth, 0);
  EXPECT_EQ(stats.jobsRunning, 0);
  // cancelsIssued only documents that the run exercised cancellation;
  // it is no bound on `cancelled` (deadline expiries cancel too) nor a
  // floor (a cancel accepted against a Running job may lose the race).
  (void)cancelsIssued;
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzJobQueue, ::testing::Range(1, 9));

} // namespace
} // namespace cfd
