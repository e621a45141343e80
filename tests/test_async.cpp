// Tests for the asynchronous job layer of cfd::Session (DESIGN.md
// §11): future resolution, cancel-before-start vs cancel-mid-pipeline,
// deterministic priority ordering under a 1-worker pool, deadline
// expiry as a DiagnosticList entry, batch stage work, and clean drain
// on destruction while jobs are pending (the TSan CI job runs this
// suite).
#include "core/Session.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

namespace cfd {
namespace {

/// Occupies every pool worker until release() is called, so jobs
/// submitted meanwhile stay deterministically queued. Posted at High
/// priority, so the worker picks it before anything the test submits.
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

TEST(AsyncJobTest, FutureResolvesToTheSynchronousResult) {
  Session session;
  const Expected<CompileResult> sync =
      session.compile(CompileRequest(test::kInverseHelmholtz));
  ASSERT_TRUE(sync.ok()) << sync.errorText();

  Job<CompileResult> job =
      session.submitCompile(CompileRequest(test::kInverseHelmholtz));
  ASSERT_TRUE(job.valid());
  EXPECT_EQ(job.priority(), JobPriority::Normal);
  const Expected<CompileResult>& result = job.wait();
  EXPECT_TRUE(job.poll());
  EXPECT_EQ(job.state(), JobState::Done);
  ASSERT_TRUE(result.ok()) << result.errorText();
  // Same immutable flow underneath: the job compiled through the same
  // session cache the synchronous request populated.
  EXPECT_TRUE(result->cacheHit());
  EXPECT_EQ(result->sharedFlow().get(), sync->sharedFlow().get());

  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.jobsSubmitted, 1);
  EXPECT_EQ(stats.jobsCompleted, 1);
  EXPECT_EQ(stats.jobsCancelled, 0);
  EXPECT_EQ(stats.jobQueueDepth, 0);
}

TEST(AsyncJobTest, CompileFailureResolvesAsDoneWithDiagnostics) {
  Session session;
  Job<CompileResult> job =
      session.submitCompile(CompileRequest("not a program"));
  const Expected<CompileResult>& result = job.wait();
  // An ordinary compile failure is a COMPLETED job (state Done): the
  // work ran and produced its structured answer. Cancelled is reserved
  // for cancel()/deadline/teardown.
  EXPECT_EQ(job.state(), JobState::Done);
  ASSERT_FALSE(result.ok());
  bool sawParseError = false;
  for (const Diagnostic& diagnostic : result.diagnostics())
    if (diagnostic.severity == Severity::Error &&
        diagnostic.stage == "parse")
      sawParseError = true;
  EXPECT_TRUE(sawParseError) << result.errorText();
  EXPECT_EQ(session.stats().jobsCompleted, 1);
}

TEST(AsyncJobTest, CancelBeforeStartResolvesImmediately) {
  Session session(SessionOptions{.workers = 1});
  PoolBlocker blocker(session);

  Job<CompileResult> job =
      session.submitCompile(CompileRequest(test::kMatMul2D));
  EXPECT_EQ(job.state(), JobState::Queued);
  EXPECT_TRUE(job.cancel());
  // Resolved here and now, without a worker: wait() cannot block.
  EXPECT_TRUE(job.poll());
  EXPECT_EQ(job.state(), JobState::Cancelled);
  EXPECT_EQ(job.startIndex(), -1); // never started
  const Expected<CompileResult>& result = job.wait();
  ASSERT_FALSE(result.ok());
  ASSERT_GE(result.diagnostics().size(), 1u);
  EXPECT_EQ(result.diagnostics()[0].stage, "job-queue");
  EXPECT_NE(result.diagnostics()[0].message.find("job cancelled"),
            std::string::npos);
  // cancel() on a resolved job reports that there was nothing to do.
  EXPECT_FALSE(job.cancel());

  blocker.release();
  session.drainJobs();
  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.jobsSubmitted, 1);
  EXPECT_EQ(stats.jobsCancelled, 1);
  EXPECT_EQ(stats.jobsCompleted, 0);
  // The pipeline never ran for the cancelled job.
  EXPECT_EQ(stats.flowCache.misses, 0);
}

TEST(AsyncJobTest, CancelMidPipelineStopsAtAStageBoundary) {
  // Pipeline-level determinism: run a prefix, cancel, and observe the
  // abort at the next stage boundary — with every completed stage
  // already published, so an identical compile resumes from the prefix.
  StageCache cache;
  CancelSource source;
  Pipeline first(test::kInverseHelmholtz, {}, &cache);
  first.setCancelToken(source.token());
  first.require(Stage::Schedule); // parse, lower, schedule run
  EXPECT_EQ(first.provenance(Stage::Schedule), StageProvenance::Ran);

  source.cancel();
  try {
    first.require(Stage::SysGen);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    // Within one stage boundary: the next unmaterialized stage.
    EXPECT_NE(std::string(e.what()).find("before stage 'reschedule'"),
              std::string::npos)
        << e.what();
    EXPECT_FALSE(e.deadlineExpired());
  }
  EXPECT_FALSE(first.hasRun(Stage::Reschedule));

  // StageCache consistency: the identical compile succeeds and adopts
  // the prefix the cancelled pipeline published.
  Pipeline second(test::kInverseHelmholtz, {}, &cache);
  second.runAll();
  EXPECT_GE(second.adoptedStageCount(), 3);
  EXPECT_EQ(second.provenance(Stage::Parse), StageProvenance::Cached);
  EXPECT_EQ(second.provenance(Stage::Schedule), StageProvenance::Cached);
  EXPECT_EQ(second.provenance(Stage::SysGen), StageProvenance::Ran);
}

TEST(AsyncJobTest, CancelledCompileNeverPoisonsTheSessionCache) {
  // A cancelled job's half-compile must not break later identical
  // requests through the Session path (acceptance criterion).
  Session session(SessionOptions{.workers = 1});
  Job<CompileResult> job =
      session.submitCompile(CompileRequest(test::kInverseHelmholtz));
  job.cancel(); // may land before, mid, or after the compile
  job.wait();
  ASSERT_TRUE(job.state() == JobState::Done ||
              job.state() == JobState::Cancelled);

  const Expected<CompileResult> retry =
      session.compile(CompileRequest(test::kInverseHelmholtz));
  ASSERT_TRUE(retry.ok()) << retry.errorText();
  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.jobsCompleted + stats.jobsCancelled, stats.jobsSubmitted);
}

TEST(AsyncJobTest, PriorityOrderingIsDeterministicUnderOneWorker) {
  Session session(SessionOptions{.workers = 1});
  PoolBlocker blocker(session); // single worker busy: everything queues

  // Mixed priorities, submitted in this order while nothing can start.
  Job<CompileResult> lowA = session.submitCompile(
      CompileRequest(test::kMatMul2D), {.priority = JobPriority::Low});
  Job<CompileResult> highB = session.submitCompile(
      CompileRequest(test::kMatMul2D), {.priority = JobPriority::High});
  Job<CompileResult> normalC = session.submitCompile(
      CompileRequest(test::kMatMul2D), {.priority = JobPriority::Normal});
  Job<CompileResult> highD = session.submitCompile(
      CompileRequest(test::kMatMul2D), {.priority = JobPriority::High});
  Job<CompileResult> lowE = session.submitCompile(
      CompileRequest(test::kMatMul2D), {.priority = JobPriority::Low});
  EXPECT_EQ(session.stats().jobQueueDepth, 5);

  blocker.release();
  session.drainJobs();

  // Strict priority order, FIFO within a level: B, D, C, A, E.
  EXPECT_EQ(highB.startIndex(), 0);
  EXPECT_EQ(highD.startIndex(), 1);
  EXPECT_EQ(normalC.startIndex(), 2);
  EXPECT_EQ(lowA.startIndex(), 3);
  EXPECT_EQ(lowE.startIndex(), 4);
  for (const auto& job : {lowA, highB, normalC, highD, lowE})
    EXPECT_TRUE(job.wait().ok());
}

TEST(AsyncJobTest, DeadlineExpirySurfacesADiagnosticListEntry) {
  Session session(SessionOptions{.workers = 1});
  PoolBlocker blocker(session);

  Job<CompileResult> job = session.submitCompile(
      CompileRequest(test::kMatMul2D), {.deadlineMillis = 1});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  blocker.release(); // deadline long past when the worker reaches it
  const Expected<CompileResult>& result = job.wait();
  EXPECT_EQ(job.state(), JobState::Cancelled);
  ASSERT_FALSE(result.ok());
  ASSERT_GE(result.diagnostics().size(), 1u);
  EXPECT_EQ(result.diagnostics()[0].stage, "job-queue");
  EXPECT_NE(result.diagnostics()[0].message.find("deadline exceeded"),
            std::string::npos)
      << result.errorText();
  EXPECT_EQ(session.stats().jobsCancelled, 1);
}

TEST(AsyncJobTest, DestructionWhileJobsPendingDrainsCleanly) {
  std::vector<Job<CompileResult>> jobs;
  {
    Session session(SessionOptions{.workers = 2});
    for (int i = 0; i < 32; ++i) {
      CompileRequest request(test::kInverseHelmholtz);
      FlowOptions options;
      options.hls.clockMHz = 100.0 + i; // distinct: no trivial cache hits
      request.options(options);
      jobs.push_back(session.submitCompile(std::move(request)));
    }
    // Destructor: queued jobs cancel, running ones stop at their next
    // checkpoint, every handle resolves, the pool joins.
  }
  for (const Job<CompileResult>& job : jobs) {
    EXPECT_TRUE(job.poll()); // resolved: wait() cannot block
    const JobState state = job.state();
    EXPECT_TRUE(state == JobState::Done || state == JobState::Cancelled)
        << jobStateName(state);
    if (state == JobState::Cancelled) {
      ASSERT_FALSE(job.wait().ok());
      EXPECT_EQ(job.wait().diagnostics()[0].stage, "job-queue");
    }
  }
}

TEST(AsyncJobTest, SubmitBatchWarmsTheSharedPrefixInDependencyOrder) {
  // The 64-point HLS-only sweep (shared prefix), each time on a fresh
  // session: as a blocking compile() loop, and as one batch on 1 and on
  // 4 workers. Whichever job claims a stage first computes it and every
  // other job adopts it, so all three do the same stage work: 63 points
  // adopt parse..memory-plan, and the first point's 9 stages plus every
  // other point's hls and sysgen miss.
  const auto requests = [] {
    std::vector<CompileRequest> out;
    for (const FlowOptions& options : test::hlsOnlySweep(64))
      out.push_back(CompileRequest(test::kInverseHelmholtz).options(options));
    return out;
  };
  const auto expectSweepWork = [](const Session::Stats& stats) {
    EXPECT_EQ(stats.stageCache.hits, 441);
    EXPECT_EQ(stats.stageCache.misses, 135);
    EXPECT_EQ(stats.flowCache.misses, 64);
  };

  Session blocking(SessionOptions{.workers = 1});
  for (const CompileRequest& request : requests())
    ASSERT_TRUE(blocking.compile(request).ok());
  expectSweepWork(blocking.stats());

  for (const int workers : {1, 4}) {
    SCOPED_TRACE("batch on " + std::to_string(workers) + " workers");
    Session session(SessionOptions{.workers = workers});
    const std::vector<Job<CompileResult>> jobs =
        session.submitBatch(requests());
    ASSERT_EQ(jobs.size(), 64u);
    int adoptedTotal = 0;
    for (const Job<CompileResult>& job : jobs) {
      const Expected<CompileResult>& result = job.wait();
      ASSERT_TRUE(result.ok()) << result.errorText();
      adoptedTotal += result->flow().pipeline().adoptedStageCount();
    }
    EXPECT_EQ(adoptedTotal, 441);
    const Session::Stats stats = session.stats();
    expectSweepWork(stats);
    EXPECT_EQ(stats.jobsCompleted, 64);
  }
}

TEST(AsyncJobTest, BatchMemberWithBadOverrideFailsAlone) {
  Session session;
  std::vector<CompileRequest> requests;
  requests.push_back(CompileRequest(test::kMatMul2D).set("warp", "1"));
  requests.push_back(CompileRequest(test::kMatMul2D));
  const std::vector<Job<CompileResult>> jobs =
      session.submitBatch(std::move(requests));
  ASSERT_EQ(jobs.size(), 2u);
  const Expected<CompileResult>& bad = jobs[0].wait();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.diagnostics()[0].stage, "options");
  EXPECT_EQ(jobs[0].state(), JobState::Done); // failed, not cancelled
  EXPECT_TRUE(jobs[1].wait().ok()) << jobs[1].wait().errorText();
}

TEST(AsyncJobTest, SweepAndTuneJobsRouteThroughTheSameQueue) {
  // workers = 1 is the interesting case: the sweep job itself occupies
  // the only pool thread, and its per-point parallelFor batch must
  // still make progress (the submitting thread participates).
  Session session(SessionOptions{.workers = 1});
  Job<SweepResult> sweepJob = session.submitSweep(
      SweepRequest(test::kInverseHelmholtz).axis("unroll", {"1", "2"}));
  Job<TuningReport> tuneJob = session.submitTune(
      TuneRequest(test::kMatMul2D).axis("unroll", {"1", "2"}),
      {.priority = JobPriority::High});

  const Expected<SweepResult>& swept = sweepJob.wait();
  ASSERT_TRUE(swept.ok()) << swept.errorText();
  ASSERT_EQ(swept->rows().size(), 2u);
  for (const ExplorationRow& row : swept->rows())
    EXPECT_TRUE(row.ok()) << row.error;

  const Expected<TuningReport>& tuned = tuneJob.wait();
  ASSERT_TRUE(tuned.ok()) << tuned.errorText();
  EXPECT_EQ(tuned->points.size(), 2u);

  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.jobsSubmitted, 2);
  EXPECT_EQ(stats.jobsCompleted, 2);
  EXPECT_EQ(stats.sweepRequests, 1);
  EXPECT_EQ(stats.tuneRequests, 1);
}

TEST(AsyncJobTest, DrainJobsIsABarrierNotACancellation) {
  Session session(SessionOptions{.workers = 2});
  std::vector<Job<CompileResult>> jobs;
  for (int i = 0; i < 6; ++i) {
    CompileRequest request(test::kMatMul2D);
    FlowOptions options;
    options.hls.clockMHz = 150.0 + i;
    request.options(options);
    jobs.push_back(session.submitCompile(std::move(request)));
  }
  session.drainJobs();
  for (const Job<CompileResult>& job : jobs) {
    EXPECT_EQ(job.state(), JobState::Done);
    EXPECT_TRUE(job.wait().ok());
  }
  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.jobsCompleted, 6);
  EXPECT_EQ(stats.jobsCancelled, 0);
  // Every job ran, so no detached task can still be waiting unclaimed.
  EXPECT_EQ(session.workerPool().pendingTasks(), 0u);
}

} // namespace
} // namespace cfd
