// Memoized compilation (DESIGN.md §3, §9).
//
// Every bench and sweep used to re-run all eight pipeline stages from
// scratch for configurations it had already compiled. FlowCache keys a
// fully-run Flow by the pair (source, normalized FlowOptions) and hands
// out shared immutable instances, so repeated compiles of the same
// configuration are O(hash) instead of O(pipeline).
//
// The cache is safe for concurrent use (Explorer workers share one) and
// compiles outside its lock. It keeps no in-flight state of its own:
// concurrent requests are deduplicated one level down, where a pipeline
// claims each stage key in the StageCache (StageCache.h). Identical
// requests that race therefore compute every stage once, and the later
// ones find the first one's Flow when they publish. With
// setStageCache(nullptr) nothing deduplicates concurrent misses: each
// compiles cold, and the first to publish wins.
//
// Below the whole-flow map sits that StageCache: every Pipeline this
// FlowCache builds adopts the longest cached stage prefix and publishes
// its own artifacts back, so even a *miss* here only compiles the
// stages whose options actually changed (incremental compilation,
// DESIGN.md §9). setStageCache(nullptr) turns that off and restores
// cold whole-pipeline compiles.
#pragma once

#include "core/Flow.h"
#include "core/StageCache.h"
#include "support/Cancellation.h"

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace cfd {

/// Combined structural hash over every field of `options` (after
/// callers normalize; FlowCache normalizes for you). Equivalent to
/// flowOptionsFingerprint.
std::uint64_t hashValue(const FlowOptions& options);
/// Field-wise equality (no tolerance: clocks/bandwidths compare exactly).
bool equalOptions(const FlowOptions& a, const FlowOptions& b);

class FlowCache {
public:
  struct Stats {
    std::int64_t hits = 0;   // served from cache or an in-flight compile
    std::int64_t misses = 0; // compiled (or failed) by the requesting thread
    /// Of `hits`, how many compiled alongside an identical request and
    /// found its Flow already published when they finished.
    std::int64_t inFlightJoins = 0;
    std::int64_t evictions = 0; // entries dropped by the capacity bound
    std::int64_t entries = 0;
  };

  /// Returns the memoized Flow for (source, options), compiling it on
  /// the first request. Compilation errors propagate to the caller and
  /// are never cached. When `cacheHit` is non-null it is set to true iff
  /// the request was served from the cache or an in-flight compile (the
  /// per-call view of Stats::hits, which only aggregates).
  ///
  /// `cancel` arms cooperative cancellation of the compile this call
  /// performs (checked between pipeline stages; raises CancelledError).
  /// A cancelled compile is never cached, and it never affects another
  /// request: each request checks only its own token.
  std::shared_ptr<const Flow> compile(const std::string& source,
                                      FlowOptions options = {},
                                      bool* cacheHit = nullptr,
                                      CancelToken cancel = {});

  Stats stats() const;
  std::size_t size() const;
  /// Clears the whole-flow map, the statistics, and (when owned) the
  /// stage cache underneath.
  void clear();

  /// Retained-entry bound (FIFO eviction; 0 = unbounded). Evicted Flows
  /// stay alive for holders of their shared_ptr — eviction only stops
  /// the cache itself from pinning them, so a long-running process
  /// iterating many configurations cannot grow without bound.
  void setCapacity(std::size_t capacity);
  static constexpr std::size_t kDefaultCapacity = 256;

  /// The stage-level artifact cache new Pipelines adopt prefixes from;
  /// null when incremental compilation is disabled. Defaults to a cache
  /// owned by this FlowCache.
  StageCache* stageCache() { return stageCache_; }
  const StageCache* stageCache() const { return stageCache_; }
  /// Overrides the stage cache (shared across FlowCaches) or disables
  /// prefix adoption entirely (nullptr).
  void setStageCache(StageCache* cache);

private:
  struct Entry {
    std::string source;
    FlowOptions options;
    std::shared_ptr<const Flow> flow;
  };

  void evictOverflowLocked();
  std::shared_ptr<const Flow> findLocked(std::uint64_t key,
                                         const std::string& source,
                                         const FlowOptions& options) const;

  mutable std::mutex mutex_;
  // Buckets keyed by the 64-bit key; entries verify full equality so a
  // hash collision degrades to an extra compile, never a wrong result.
  std::unordered_map<std::uint64_t, std::vector<Entry>> entries_;
  std::deque<std::uint64_t> insertionOrder_; // oldest first, for eviction
  std::size_t totalEntries_ = 0;
  std::size_t capacity_ = kDefaultCapacity;
  std::int64_t hits_ = 0;
  std::int64_t misses_ = 0;
  std::int64_t inFlightJoins_ = 0;
  std::int64_t evictions_ = 0;

  StageCache ownedStageCache_;
  StageCache* stageCache_ = &ownedStageCache_;
};

} // namespace cfd
