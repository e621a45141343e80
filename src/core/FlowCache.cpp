#include "core/FlowCache.h"

#include "support/Hash.h"

namespace cfd {

std::uint64_t hashValue(const FlowOptions& options) {
  return flowOptionsFingerprint(options);
}

bool equalOptions(const FlowOptions& a, const FlowOptions& b) {
  return a == b;
}

std::shared_ptr<const Flow>
FlowCache::findLocked(std::uint64_t key, const std::string& source,
                      const FlowOptions& options) const {
  if (const auto bucket = entries_.find(key); bucket != entries_.end())
    for (const Entry& entry : bucket->second)
      if (entry.source == source && equalOptions(entry.options, options))
        return entry.flow;
  return nullptr;
}

std::shared_ptr<const Flow> FlowCache::compile(const std::string& source,
                                               FlowOptions options,
                                               bool* cacheHit,
                                               CancelToken cancel) {
  // Normalize before keying so every spelling of the same effective
  // configuration shares one entry (and matches what Pipeline compiles).
  // The source is hashed once: its stage digest keys this map and, on a
  // miss, the pipeline's stage keys.
  normalizeOptions(options);
  const std::uint64_t sourceDigest = stageSourceDigest(source);
  Fnv1aHasher keyHasher;
  keyHasher.mix(sourceDigest);
  keyHasher.mix(hashValue(options));
  const std::uint64_t key = keyHasher.value();

  if (cacheHit)
    *cacheHit = false;
  StageCache* stageCache = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto flow = findLocked(key, source, options)) {
      ++hits_;
      if (cacheHit)
        *cacheHit = true;
      return flow;
    }
    stageCache = stageCache_;
  }

  // Even this whole-flow *miss* compiles incrementally: the pipeline
  // adopts the longest stage prefix already in the stage cache, and an
  // identical request compiling at the same time computes each stage
  // once through the stage cache's claims (DESIGN.md §9).
  // A compile that throws was still a miss here, and is never cached.
  // It is counted on the way out, so the exception unwinds through this
  // frame once, with no catch and rethrow.
  struct CountFailedMiss {
    FlowCache& cache;
    bool compiled = false;
    ~CountFailedMiss() {
      if (compiled)
        return;
      std::lock_guard<std::mutex> lock(cache.mutex_);
      ++cache.misses_;
    }
  } failedMiss{*this};
  auto pipeline =
      std::make_shared<Pipeline>(source, sourceDigest, options, stageCache);
  pipeline->setCancelToken(std::move(cancel));
  // Run here, not in Flow's constructor (then a no-op), so a failure
  // unwinds through one frame fewer.
  pipeline->runAll();
  auto flow = std::make_shared<const Flow>(Flow(std::move(pipeline)));
  failedMiss.compiled = true;

  std::lock_guard<std::mutex> lock(mutex_);
  if (auto published = findLocked(key, source, options)) {
    // An identical request raced this one and published first: converge
    // on its Flow, as a hit that joined an in-flight compile.
    ++hits_;
    ++inFlightJoins_;
    if (cacheHit)
      *cacheHit = true;
    return published;
  }
  ++misses_;
  entries_[key].push_back(Entry{source, options, flow});
  insertionOrder_.push_back(key);
  ++totalEntries_;
  evictOverflowLocked();
  return flow;
}

FlowCache::Stats FlowCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.inFlightJoins = inFlightJoins_;
  stats.evictions = evictions_;
  for (const auto& [key, bucket] : entries_)
    stats.entries += static_cast<std::int64_t>(bucket.size());
  return stats;
}

std::size_t FlowCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, bucket] : entries_)
    total += bucket.size();
  return total;
}

void FlowCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  insertionOrder_.clear();
  totalEntries_ = 0;
  hits_ = 0;
  misses_ = 0;
  inFlightJoins_ = 0;
  evictions_ = 0;
  if (stageCache_ == &ownedStageCache_)
    ownedStageCache_.clear();
}

void FlowCache::setCapacity(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacity_ = capacity;
  evictOverflowLocked();
}

void FlowCache::setStageCache(StageCache* cache) {
  std::lock_guard<std::mutex> lock(mutex_);
  stageCache_ = cache;
}

void FlowCache::evictOverflowLocked() {
  // FIFO: a bucket's entries were appended in insertion order, so the
  // front of the oldest key's bucket is the oldest entry overall.
  while (capacity_ != 0 && totalEntries_ > capacity_ &&
         !insertionOrder_.empty()) {
    const std::uint64_t key = insertionOrder_.front();
    insertionOrder_.pop_front();
    const auto bucket = entries_.find(key);
    if (bucket == entries_.end() || bucket->second.empty())
      continue; // already cleared
    bucket->second.erase(bucket->second.begin());
    if (bucket->second.empty())
      entries_.erase(bucket);
    --totalEntries_;
    ++evictions_;
  }
}

} // namespace cfd
