// Artifact-level cache behind incremental compilation (DESIGN.md §9).
//
// Where FlowCache memoizes *whole* compiled flows, StageCache stores the
// immutable artifact of every pipeline stage behind shared_ptr, keyed by
// the Merkle-chained stage keys of core/StageGraph.h. A new Pipeline
// probes the cache from its goal stage downwards and *adopts the longest
// cached prefix* it finds — so an HLS-only sweep parses, lowers, and
// schedules exactly once, and every later point resumes from the first
// stage whose options actually changed.
//
// It is also the one place concurrent requests are deduplicated: a
// pipeline *claims* each stage key it has to compute, and a second
// requester of a claimed key blocks until the owner publishes that one
// stage, then adopts it. So each distinct key is computed once per
// cache, whichever path — sync, job, Explorer, daemon — the requests
// came in on.
//
// A stage's deterministic failure (its stage-attributed DiagnosedError:
// infeasible constraints, a parse or sema error) is published too, as a
// *failure entry*: the diagnostics and the message, no artifacts. Every
// later lookup of that key is one hit that rethrows them, so a repeated
// infeasible compile costs one lookup. Failure entries stay in memory;
// the disk tier never sees them. Anything else that escapes a stage (an
// internal error, bad_alloc) abandons the claim, and its waiters compute
// the stage themselves. A cancellation is never cached either: it is
// observed between stages, so it never ends a claim.
//
// Entries store the artifact set of the whole prefix (all slots up to
// the entry's stage), so adopting an entry can never orphan an upstream
// artifact a downstream one points into (e.g. Schedule::program).
// Everything handed out is shared and immutable; the cache is safe for
// concurrent use by Explorer workers. Capacity is bounded in
// (approximate) bytes with LRU eviction; evicted artifacts stay alive
// for pipelines that already adopted them. Byte accounting is marginal
// per entry (each entry is charged its own stage's artifact plus its
// verification payload), so because entries of one chain share their
// prefix via shared_ptr, evicting an upstream entry releases that
// memory only once the chain's downstream entries age out too — the
// bound tracks retained chains, not instantaneous RSS.
#pragma once

#include "core/StageGraph.h"
#include "dsl/AST.h"
#include "mem/Liveness.h"
#include "support/Diagnostics.h"

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace cfd {

namespace store {
class ArtifactStore;
} // namespace store

/// The memory-plan stage produces two coupled results; they are cached
/// as one artifact.
struct MemoryPlanArtifact {
  mem::CompatibilityGraph graph;
  mem::MemoryPlan plan;
};

/// The optimize stage's artifact: the optimized program plus the
/// per-pass report (timings/op counts survive cache adoption, so an
/// adopted prefix can still explain what the optimizer did).
struct OptimizeArtifact {
  ir::Program program;
  ir::OptimizeReport report;
};

/// One shared_ptr slot per stage output. A StageArtifacts value is a
/// (possibly partial) prefix of the pipeline: slot i is non-null iff
/// every slot j <= i along the linear stage order is non-null.
struct StageArtifacts {
  std::shared_ptr<const dsl::Program> ast;                  // parse
  std::shared_ptr<const ir::Program> program;               // lower
  std::shared_ptr<const OptimizeArtifact> optimized;        // optimize
  std::shared_ptr<const sched::Schedule> referenceSchedule; // schedule
  std::shared_ptr<const sched::Schedule> schedule;          // reschedule
  std::shared_ptr<const mem::LivenessInfo> liveness;        // liveness
  std::shared_ptr<const MemoryPlanArtifact> memory;         // memory-plan
  std::shared_ptr<const hls::KernelReport> kernel;          // hls
  std::shared_ptr<const sysgen::SystemDesign> system;       // sysgen
};

/// Rough heap footprint of the artifact `stage` contributed to
/// `artifacts` (element counts times struct-size constants — an
/// accounting estimate for the cache bound, not an exact measure).
std::size_t approxArtifactBytes(Stage stage, const StageArtifacts& artifacts);

/// What a stage's deterministic failure threw: the DiagnosedError's
/// what() text and its stage-attributed diagnostics. Immutable once
/// published; each requester throws its own DiagnosedError built from
/// it, so no exception object crosses threads.
struct StageFailure {
  std::string what;
  DiagnosticList diagnostics;
};

struct StageCacheEntry {
  Stage stage = Stage::Parse; // deepest stage this entry covers
  /// Slots filled for the linear prefix up to and including `stage`;
  /// all null in a failure entry.
  StageArtifacts artifacts;
  /// Verification payload: equal 64-bit keys are only trusted when the
  /// source and the prefix-consumed options compare equal, so a key
  /// collision degrades to a recompile, never a wrong adoption. The
  /// source is shared: the entries one pipeline publishes hold its copy.
  std::shared_ptr<const std::string> source;
  /// Non-null in a failure entry: `stage` failed for this source and
  /// these options, and would fail again the same way.
  std::shared_ptr<const StageFailure> failure;
  FlowOptions options; // normalized
  std::size_t approxBytes = 0;
};

/// An entry for the prefix up to `stage`, charged its stage's marginal
/// artifact plus its verification payload (the source counts once per
/// entry, although entries share it).
std::shared_ptr<StageCacheEntry>
makeStageCacheEntry(Stage stage, StageArtifacts artifacts,
                    std::shared_ptr<const std::string> source,
                    const FlowOptions& options);
/// A failure entry for `stage`: no artifacts, charged like an entry
/// plus the failure's text.
std::shared_ptr<StageCacheEntry>
makeFailureEntry(Stage stage, StageFailure failure,
                 std::shared_ptr<const std::string> source,
                 const FlowOptions& options);

class StageCache {
public:
  struct Stats {
    std::int64_t hits = 0;      // stage artifacts served from the cache
    std::int64_t misses = 0;    // stage artifacts computed and inserted
    /// Claims that blocked on another pipeline computing the same key.
    std::int64_t waits = 0;
    std::int64_t evictions = 0; // entries dropped by the byte bound
    std::int64_t entries = 0;
    std::int64_t approxBytes = 0;
  };

  /// Probes keys[goal], keys[goal-1], ... down to keys[skipStages] and
  /// returns the entry of the deepest cached (and verified) stage, or
  /// null. `skipStages` is the caller's already-materialized prefix
  /// length — those stages are neither probed nor counted. Counts one
  /// hit per newly covered stage of the returned entry, which may be a
  /// failure entry: the caller then rethrows its failure.
  std::shared_ptr<const StageCacheEntry>
  adoptLongestPrefix(const std::array<std::uint64_t, kStageCount>& keys,
                     Stage goal, int skipStages, const std::string& source,
                     const FlowOptions& options);

  /// What claim() resolved one stage key to.
  struct Claim {
    /// The verified entry to adopt (counted as one hit; a failure entry
    /// when the stage failed), or null.
    std::shared_ptr<const StageCacheEntry> entry;
    /// With a null entry: true when the caller now owns the key and must
    /// end the claim with insert() or abandon(); false when the caller
    /// computes the stage unclaimed (the owner it waited on failed, or
    /// the cached entry is a key collision), and may still insert() it.
    bool owned = false;
  };

  /// Resolves `key` for a pipeline about to run `stage`: a published,
  /// verified entry is returned to adopt; an unclaimed key is claimed
  /// for the caller; a key another pipeline has claimed blocks the
  /// caller until that owner publishes the one stage it is computing
  /// (then its entry, or failure entry, is returned) or abandons it. A
  /// claim nobody waits on allocates no more than the entry it becomes:
  /// its map node is moved into the entry map on publish.
  Claim claim(std::uint64_t key, Stage stage, const std::string& source,
              const FlowOptions& options);

  /// Ends the caller's claim on `key` without an entry: the stage threw
  /// something other than its stage diagnostics (an internal error,
  /// bad_alloc). Waiters wake and compute the stage themselves.
  void abandon(std::uint64_t key);

  /// Publishes `entry` (the prefix up to its stage, or a failure entry)
  /// and resolves the claim on `key`, if any. Counts one miss (the stage
  /// was computed). First writer wins: an existing entry for `key` is
  /// kept, so concurrent compiles converge on one shared artifact set.
  /// Only artifact entries go to the disk tier.
  void insert(std::uint64_t key, std::shared_ptr<const StageCacheEntry> entry);
  /// Publishes the prefix up to `stage` with its own copy of `source`.
  void insert(std::uint64_t key, Stage stage, StageArtifacts artifacts,
              const std::string& source, const FlowOptions& options);

  /// Approximate-byte bound (LRU eviction; 0 = unbounded). Adopted
  /// artifacts outlive eviction through their shared_ptr.
  void setCapacityBytes(std::size_t bytes);
  static constexpr std::size_t kDefaultCapacityBytes = 64u << 20;

  Stats stats() const;
  std::size_t size() const;
  void clear();

  /// Attaches the persistent second tier (DESIGN.md §13). Not owned and
  /// must outlive the cache; set once before concurrent use. With a
  /// store attached, adoptLongestPrefix falls back to a disk probe on a
  /// memory miss (disk hits enter the memory map without counting a
  /// miss) and insert publishes genuinely-new prefixes to disk.
  void setArtifactStore(store::ArtifactStore* artifactStore) {
    store_ = artifactStore;
  }
  store::ArtifactStore* artifactStore() const { return store_; }

private:
  /// The pipelines blocked on one claimed key; made by the first of
  /// them, so an uncontended claim never makes one. Resolved with the
  /// published entry, or with none when the owner abandoned the key.
  struct ClaimWait {
    bool resolved = false;
    std::shared_ptr<const StageCacheEntry> entry;
  };
  struct Node {
    std::shared_ptr<const StageCacheEntry> entry;
    std::list<std::uint64_t>::iterator lruPosition;
    std::shared_ptr<ClaimWait> wait; // claims_ only; null until contended
  };

  void evictOverflowLocked();
  /// Wakes the waiters of `claim` (if any) with `entry`.
  void resolveLocked(Node& claim, std::shared_ptr<const StageCacheEntry> entry);
  /// Caches a disk-loaded entry in the memory tier (no miss counted;
  /// the stage was not recomputed) and credits the adoption hits.
  std::shared_ptr<const StageCacheEntry>
  adoptFromStore(std::uint64_t key,
                 std::shared_ptr<const StageCacheEntry> entry, int hitStages);

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Node> entries_;
  /// Keys a pipeline is computing right now. Publishing moves the node
  /// into entries_ (extract/insert: the node is reused, not reallocated).
  std::unordered_map<std::uint64_t, Node> claims_;
  std::condition_variable claimResolved_;
  std::list<std::uint64_t> lruOrder_; // front = least recently used
  store::ArtifactStore* store_ = nullptr;
  std::size_t capacityBytes_ = kDefaultCapacityBytes;
  std::size_t totalBytes_ = 0;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t waits_ = 0;
  std::int64_t evictions_ = 0;
};

} // namespace cfd
