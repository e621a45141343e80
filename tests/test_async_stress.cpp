// Concurrency stress for the async job queue (DESIGN.md §11), run
// under ThreadSanitizer in CI alongside test_session and
// test_incremental: many submitter threads hammer ONE session with
// mixed-priority jobs (some cancelled mid-flight) and the test asserts
// the accounting that a job queue must never get wrong — no lost and
// no duplicated results — plus a monotonically non-decreasing
// StageCache hit rate as the waves warm the cache.
#include "core/Session.h"
#include "TestPrograms.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace cfd {
namespace {

/// A small palette of distinct configurations, so jobs exercise both
/// the FlowCache (repeats) and the StageCache (prefix-sharing
/// variants).
FlowOptions variantFor(int index) {
  FlowOptions options;
  options.hls.clockMHz = 100.0 + 25.0 * (index % 4);
  options.memory.enableSharing = (index % 2) == 0;
  return options;
}

JobPriority priorityFor(int index) {
  switch (index % 3) {
  case 0: return JobPriority::Low;
  case 1: return JobPriority::Normal;
  default: return JobPriority::High;
  }
}

TEST(AsyncStressTest, SixteenThreadsMixedPrioritiesAgainstOneSession) {
  constexpr int kThreads = 16;
  constexpr int kJobsPerThread = 64;
  Session session(SessionOptions{.workers = 4});

  std::vector<std::vector<Job<CompileResult>>> perThread(kThreads);
  std::atomic<int> cancelRequests{0};
  {
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
      submitters.emplace_back([&session, &perThread, &cancelRequests, t] {
        std::vector<Job<CompileResult>>& mine = perThread[t];
        mine.reserve(kJobsPerThread);
        for (int j = 0; j < kJobsPerThread; ++j) {
          const int index = t * kJobsPerThread + j;
          CompileRequest request(test::kInverseHelmholtz);
          request.options(variantFor(index));
          mine.push_back(session.submitCompile(
              std::move(request), {.priority = priorityFor(index)}));
          // Every 8th job gets a cancellation racing its execution —
          // before, mid, or after; all three must stay consistent.
          if (index % 8 == 0 && mine.back().cancel())
            ++cancelRequests;
        }
      });
    for (std::thread& submitter : submitters)
      submitter.join();
  }
  session.drainJobs();

  // No lost results: every handle resolved, and a Done job always
  // carries a usable result for its exact configuration.
  std::int64_t done = 0;
  std::int64_t cancelled = 0;
  for (const auto& jobs : perThread)
    for (const Job<CompileResult>& job : jobs) {
      ASSERT_TRUE(job.poll());
      const Expected<CompileResult>& result = job.wait();
      switch (job.state()) {
      case JobState::Done:
        ++done;
        ASSERT_TRUE(result.ok()) << result.errorText();
        EXPECT_GT(result->flow().systemDesign().m, 0);
        break;
      case JobState::Cancelled:
        ++cancelled;
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.diagnostics()[0].stage, "job-queue");
        break;
      default:
        FAIL() << "unresolved job after drain: "
               << jobStateName(job.state());
      }
    }

  // No duplicated or dropped accounting: the counters match the handle
  // census exactly, and completed = submitted - cancelled.
  const Session::Stats stats = session.stats();
  EXPECT_EQ(stats.jobsSubmitted, kThreads * kJobsPerThread);
  EXPECT_EQ(stats.jobsCompleted, done);
  EXPECT_EQ(stats.jobsCancelled, cancelled);
  EXPECT_EQ(stats.jobsCompleted, stats.jobsSubmitted - stats.jobsCancelled);
  EXPECT_EQ(stats.jobQueueDepth, 0);
  EXPECT_EQ(stats.jobsRunning, 0);
  // Only 4 distinct configurations exist, so deduplication must keep
  // the compile count tiny next to ~1024 jobs. (Above 4 is possible —
  // a compile cancelled part-way counts a miss too — but anywhere near
  // the job count would mean dedup is broken.)
  EXPECT_LE(stats.flowCache.misses, 64);
}

TEST(AsyncStressTest, StageCacheHitRateIsMonotonicAcrossWaves) {
  // Waves of the same 8 configurations against one session: as the
  // caches warm, the cumulative StageCache hit rate must never drop.
  Session session(SessionOptions{.workers = 4});
  double previousRate = 0.0;
  for (int wave = 0; wave < 4; ++wave) {
    std::vector<Job<CompileResult>> jobs;
    for (int i = 0; i < 32; ++i) {
      CompileRequest request(test::kInverseHelmholtz);
      request.options(variantFor(i));
      jobs.push_back(session.submitCompile(std::move(request),
                                           {.priority = priorityFor(i)}));
    }
    for (const Job<CompileResult>& job : jobs)
      ASSERT_TRUE(job.wait().ok()) << job.wait().errorText();

    const Session::Stats all = session.stats();
    const StageCache::Stats& stats = all.stageCache;
    if (wave == 0) {
      // 4 distinct configurations (clock x sharing, paired by index)
      // have 16 distinct stage keys, each computed once. 4 compiles
      // adopt 20 stages between them, as in a sequential run. A request
      // that raced an identical one still compiling also builds a
      // pipeline: it adopts all 9 stages and counts as an in-flight
      // join, so every lookup is accounted for exactly.
      EXPECT_EQ(stats.misses, 16);
      EXPECT_EQ(stats.hits, 20 + kStageCount * all.flowCache.inFlightJoins);
      EXPECT_EQ(all.flowCache.misses, 4);
    }
    const std::int64_t lookups = stats.hits + stats.misses;
    // A wave of only FlowCache hits makes no stage lookups; guard /0.
    const double rate =
        lookups == 0 ? previousRate
                     : static_cast<double>(stats.hits) /
                           static_cast<double>(lookups);
    EXPECT_GE(rate, previousRate - 1e-12)
        << "hit rate dropped in wave " << wave;
    previousRate = rate;
  }
  EXPECT_GT(previousRate, 0.0);
}

} // namespace
} // namespace cfd
