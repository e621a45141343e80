// Asynchronous job handles for the cfd::Session service (DESIGN.md
// §11).
//
// Session::submitCompile/submitSweep/submitTune enqueue work on the
// session's priority job queue and return immediately with a Job<T> —
// a future-like handle over the same Expected<T> the synchronous API
// returns:
//
//   Job<CompileResult> job = session.submitCompile(
//       CompileRequest(source), {.priority = JobPriority::High});
//   ... do other work ...
//   if (job.poll()) { ... }        // non-blocking
//   const Expected<CompileResult>& result = job.wait();  // blocking
//   job.cancel();                  // cooperative, stage-granular
//
// Lifecycle: Queued -> Running -> Done | Cancelled.
//
//  * cancel() on a Queued job resolves it immediately (no worker ever
//    picks it up); on a Running job it fires the cancellation token
//    that core/Pipeline checks between stages, so the job resolves as
//    Cancelled within one stage boundary. Either way the result is a
//    failed Expected whose diagnostic carries stage "job-queue".
//  * A deadline (JobConfig::deadlineMillis, measured from submission)
//    cancels the same way, with a "deadline exceeded" diagnostic.
//  * Handles share state with the session: they stay valid — and
//    wait() stays non-blocking — after the session drained or was
//    destroyed (destruction cancels pending jobs and waits for every
//    job to resolve).
#pragma once

#include "support/Cancellation.h"
#include "support/Expected.h"

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>

namespace cfd {

class Session;

/// Scheduling priority of a job in the session queue: strict (higher
/// always dequeues first), FIFO within one level. Values mirror
/// WorkerPool::kPriority*.
enum class JobPriority { Low = 0, Normal = 1, High = 2 };

inline const char* jobPriorityName(JobPriority priority) {
  switch (priority) {
  case JobPriority::Low: return "low";
  case JobPriority::Normal: return "normal";
  case JobPriority::High: return "high";
  }
  return "?";
}

enum class JobState {
  Queued,    ///< submitted, no worker started it yet
  Running,   ///< a worker is executing it
  Done,      ///< resolved with a result (success or ordinary failure)
  Cancelled, ///< resolved by cancel(), a deadline, or session teardown
};

inline const char* jobStateName(JobState state) {
  switch (state) {
  case JobState::Queued: return "queued";
  case JobState::Running: return "running";
  case JobState::Done: return "done";
  case JobState::Cancelled: return "cancelled";
  }
  return "?";
}

/// Per-job submission knobs (the request object describes WHAT to do;
/// this describes HOW the queue treats it).
struct JobConfig {
  JobPriority priority = JobPriority::Normal;
  /// Wall-clock budget measured from submission; a job that exceeds it
  /// resolves as Cancelled with a "deadline exceeded" diagnostic —
  /// before starting (expired while queued) or at the next pipeline
  /// stage boundary (expired while running). 0 = no deadline.
  double deadlineMillis = 0;
};

namespace detail {

/// Counters shared between a Session and every job it submitted. Held
/// by shared_ptr on both sides so a job resolving during (or a handle
/// polled after) session teardown never touches freed memory.
/// Lock order: a job's own mutex may be held while taking this mutex,
/// never the reverse.
struct JobCounters {
  std::mutex mutex;
  std::condition_variable idle; // notified whenever outstanding hits 0
  std::int64_t submitted = 0;
  std::int64_t completed = 0;  // resolved Done
  std::int64_t cancelled = 0;  // resolved Cancelled (incl. deadline)
  std::int64_t queueDepth = 0; // Queued right now
  std::int64_t running = 0;    // Running right now
  std::int64_t started = 0;    // monotonic start stamp (see startIndex)
};

/// Type-erased core of one job: the state machine, the cancellation
/// source, and the counter bookkeeping. JobShared<T> adds result
/// storage; the Session registry and drain logic work on this base.
class JobBase {
public:
  JobBase(std::uint64_t id, JobPriority priority,
          std::shared_ptr<JobCounters> counters)
      : id_(id), priority_(priority), counters_(std::move(counters)) {
    std::lock_guard<std::mutex> lock(counters_->mutex);
    ++counters_->submitted;
    ++counters_->queueDepth;
  }
  virtual ~JobBase() = default;

  std::uint64_t id() const { return id_; }
  JobPriority priority() const { return priority_; }
  CancelToken token() const { return cancelSource_.token(); }
  void setDeadline(std::chrono::steady_clock::time_point deadline) {
    cancelSource_.setDeadline(deadline);
  }

  JobState state() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return state_;
  }
  bool resolved() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return resolvedLocked();
  }
  std::int64_t startIndex() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return startIndex_;
  }

  /// Worker-side transition Queued -> Running, stamping the scheduler
  /// start order. False when there is nothing to start: the job was
  /// cancelled first, or its deadline expired while queued (resolved
  /// here, with the deadline diagnostic).
  bool tryStart() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ != JobState::Queued)
      return false;
    const CancelToken token = cancelSource_.token();
    if (token.cancelled()) {
      storeCancelledLocked(std::string(token.reason()) + " while queued");
      finishLocked(JobState::Cancelled);
      return false;
    }
    state_ = JobState::Running;
    std::lock_guard<std::mutex> counterLock(counters_->mutex);
    --counters_->queueDepth;
    ++counters_->running;
    startIndex_ = counters_->started++;
    return true;
  }

  /// Handle-side cancellation request. A Queued job resolves here and
  /// now; a Running one is interrupted at its next checkpoint (returns
  /// true: the request was accepted). False when already resolved.
  bool cancel() {
    cancelSource_.cancel();
    std::lock_guard<std::mutex> lock(mutex_);
    if (state_ == JobState::Queued) {
      storeCancelledLocked("job cancelled before start");
      finishLocked(JobState::Cancelled);
      return true;
    }
    return state_ == JobState::Running;
  }

  void waitResolved() const {
    std::unique_lock<std::mutex> lock(mutex_);
    resolvedCv_.wait(lock, [this] { return resolvedLocked(); });
  }

protected:
  /// Derived classes store Expected<T>::failure(message, "job-queue").
  virtual void storeCancelledLocked(const std::string& message) = 0;

  bool resolvedLocked() const {
    return state_ == JobState::Done || state_ == JobState::Cancelled;
  }

  /// Final transition (result already stored). Updates the shared
  /// counters and wakes waiters; `final` is Done or Cancelled.
  void finishLocked(JobState final) {
    const JobState previous = state_;
    state_ = final;
    {
      std::lock_guard<std::mutex> counterLock(counters_->mutex);
      if (previous == JobState::Queued)
        --counters_->queueDepth;
      else
        --counters_->running;
      if (final == JobState::Cancelled)
        ++counters_->cancelled;
      else
        ++counters_->completed;
      if (counters_->completed + counters_->cancelled ==
          counters_->submitted)
        counters_->idle.notify_all();
    }
    resolvedCv_.notify_all();
  }

  mutable std::mutex mutex_;
  mutable std::condition_variable resolvedCv_;
  JobState state_ = JobState::Queued;
  std::int64_t startIndex_ = -1;

private:
  const std::uint64_t id_;
  const JobPriority priority_;
  CancelSource cancelSource_;
  std::shared_ptr<JobCounters> counters_;
};

template <typename T>
class JobShared final : public JobBase {
public:
  using JobBase::JobBase;

  /// Worker-side resolution after the work ran. Ignored when cancel()
  /// raced ahead and resolved the job first.
  void resolve(Expected<T> result, bool asCancelled) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (resolvedLocked())
      return;
    result_.emplace(std::move(result));
    finishLocked(asCancelled ? JobState::Cancelled : JobState::Done);
  }

  /// Blocks until resolved; every resolution path stores a result, so
  /// the reference is always valid afterwards.
  const Expected<T>& waitResult() const {
    waitResolved();
    return *result_;
  }

protected:
  void storeCancelledLocked(const std::string& message) override {
    result_.emplace(Expected<T>::failure(message, "job-queue"));
  }

private:
  std::optional<Expected<T>> result_;
};

} // namespace detail

/// The user-facing handle. Cheap to copy (all copies share one job);
/// default-constructed handles are invalid.
template <typename T>
class Job {
public:
  Job() = default;

  bool valid() const { return shared_ != nullptr; }
  std::uint64_t id() const { return shared_->id(); }
  JobPriority priority() const { return shared_->priority(); }
  JobState state() const { return shared_->state(); }

  /// Non-blocking: true once the job resolved (wait() will not block).
  bool poll() const { return shared_->resolved(); }

  /// Blocks until the job resolved and returns its result. A cancelled
  /// job yields a failed Expected whose diagnostic (stage "job-queue")
  /// says "job cancelled ..." or "deadline exceeded ...".
  const Expected<T>& wait() const { return shared_->waitResult(); }

  /// Requests cooperative cancellation (see the file comment). Returns
  /// false when the job had already resolved.
  bool cancel() const { return shared_->cancel(); }

  /// The scheduler's start stamp: the n-th job this session actually
  /// started has startIndex n (0-based); -1 when the job never started
  /// (cancelled while queued). Diagnostics — this is how the priority
  /// tests observe queue order.
  std::int64_t startIndex() const { return shared_->startIndex(); }

private:
  friend class cfd::Session;
  explicit Job(std::shared_ptr<detail::JobShared<T>> shared)
      : shared_(std::move(shared)) {}

  std::shared_ptr<detail::JobShared<T>> shared_;
};

} // namespace cfd
