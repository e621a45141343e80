#include "core/StageCache.h"

#include "store/ArtifactStore.h"

namespace cfd {

std::size_t approxArtifactBytes(Stage stage,
                                const StageArtifacts& artifacts) {
  // Accounting estimates only: element counts times generous per-node
  // constants. The bound exists to keep long sweeps from growing without
  // limit, not to be byte-exact.
  switch (stage) {
  case Stage::Parse:
    if (!artifacts.ast)
      return 0;
    return 512 + 256 * (artifacts.ast->types.size() +
                        artifacts.ast->declarations.size()) +
           1024 * artifacts.ast->assignments.size();
  case Stage::Lower:
    if (!artifacts.program)
      return 0;
    return 512 + 256 * artifacts.program->tensors().size() +
           512 * artifacts.program->operations().size();
  case Stage::Optimize:
    if (!artifacts.optimized)
      return 0;
    return 512 + 256 * artifacts.optimized->program.tensors().size() +
           512 * artifacts.optimized->program.operations().size() +
           128 * artifacts.optimized->report.passes.size();
  case Stage::Schedule:
  case Stage::Reschedule: {
    const auto& schedule = stage == Stage::Schedule
                               ? artifacts.referenceSchedule
                               : artifacts.schedule;
    if (!schedule)
      return 0;
    std::size_t bytes = 512;
    for (const sched::ScheduledStatement& stmt : schedule->statements)
      bytes += 256 + 64 * stmt.loops.size() + 256 * (1 + stmt.reads.size());
    return bytes;
  }
  case Stage::Liveness:
    if (!artifacts.liveness)
      return 0;
    return 128 + 64 * artifacts.liveness->intervals.size();
  case Stage::MemoryPlan:
    if (!artifacts.memory)
      return 0;
    return 512 +
           256 * artifacts.memory->plan.buffers.size() +
           16 * artifacts.memory->plan.bufferOf.size() +
           32 * (artifacts.memory->graph.numAddressSpaceEdges() +
                 artifacts.memory->graph.numInterfaceEdges());
  case Stage::Hls:
    if (!artifacts.kernel)
      return 0;
    return 256 + 128 * artifacts.kernel->statements.size();
  case Stage::SysGen:
    return artifacts.system ? 1024 : 0;
  }
  return 0;
}

namespace {

/// Trust a 64-bit key only after full structural verification of
/// everything the prefix reads (the producing stage, the source, and the
/// consumed option subsets): a collision degrades to a recompile, never
/// a wrong adoption.
bool verifies(const StageCacheEntry& entry, Stage stage,
              const std::string& source, const FlowOptions& options) {
  return entry.stage == stage && entry.source == source &&
         prefixOptionsEqual(stage, entry.options, options);
}

} // namespace

std::shared_ptr<const StageCacheEntry> StageCache::adoptLongestPrefix(
    const std::array<std::uint64_t, kStageCount>& keys, Stage goal,
    int skipStages, const std::string& source, const FlowOptions& options) {
  for (int i = static_cast<int>(goal); i >= skipStages; --i) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = entries_.find(keys[i]);
      if (it != entries_.end()) {
        if (verifies(*it->second.entry, static_cast<Stage>(i), source,
                     options)) {
          lruOrder_.splice(lruOrder_.end(), lruOrder_, it->second.lruPosition);
          hits_ += i + 1 - skipStages;
          return it->second.entry;
        }
        continue;
      }
    }
    // Second tier: a memory miss probes the persistent store (outside
    // the lock — disk I/O must not serialize concurrent adopters). A
    // verified disk entry enters the memory map so the next probe in
    // this process hits without touching disk.
    if (store_) {
      if (auto entry = store_->load(keys[i], static_cast<Stage>(i), source,
                                    options))
        return adoptFromStore(keys[i], std::move(entry),
                              i + 1 - skipStages);
    }
  }
  return nullptr;
}

std::shared_ptr<const StageCacheEntry>
StageCache::adoptFromStore(std::uint64_t key,
                           std::shared_ptr<const StageCacheEntry> entry,
                           int hitStages) {
  std::lock_guard<std::mutex> lock(mutex_);
  hits_ += hitStages;
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    // A concurrent compile published this key while we read the disk;
    // converge on the in-memory entry.
    lruOrder_.splice(lruOrder_.end(), lruOrder_, it->second.lruPosition);
    return it->second.entry;
  }
  std::shared_ptr<const StageCacheEntry> adopted = std::move(entry);
  lruOrder_.push_back(key);
  entries_[key] = Node{adopted, std::prev(lruOrder_.end()), nullptr};
  totalBytes_ += adopted->approxBytes;
  evictOverflowLocked(); // may evict the adoption itself under a tiny bound
  return adopted;
}

StageCache::Claim StageCache::claim(std::uint64_t key, Stage stage,
                                    const std::string& source,
                                    const FlowOptions& options) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    if (!verifies(*it->second.entry, stage, source, options))
      return Claim{};
    lruOrder_.splice(lruOrder_.end(), lruOrder_, it->second.lruPosition);
    ++hits_;
    return Claim{it->second.entry, false};
  }
  const auto [claimed, owned] = claims_.try_emplace(key);
  if (owned)
    return Claim{nullptr, true};
  // Another pipeline is computing this key: wait out its one stage. The
  // entry arrives through the wait itself, so a publish the byte bound
  // evicts at once still reaches every waiter.
  if (claimed->second.wait == nullptr)
    claimed->second.wait = std::make_shared<ClaimWait>();
  const std::shared_ptr<ClaimWait> wait = claimed->second.wait;
  ++waits_;
  claimResolved_.wait(lock, [&wait] { return wait->resolved; });
  if (wait->entry == nullptr || !verifies(*wait->entry, stage, source, options))
    return Claim{};
  ++hits_;
  return Claim{wait->entry, false};
}

void StageCache::resolveLocked(Node& claim,
                               std::shared_ptr<const StageCacheEntry> entry) {
  if (claim.wait == nullptr)
    return;
  claim.wait->resolved = true;
  claim.wait->entry = std::move(entry);
  claim.wait.reset();
  claimResolved_.notify_all();
}

void StageCache::abandon(std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = claims_.find(key);
  if (it == claims_.end())
    return;
  resolveLocked(it->second, nullptr);
  claims_.erase(it);
}

void StageCache::insert(std::uint64_t key, Stage stage,
                        StageArtifacts artifacts, const std::string& source,
                        const FlowOptions& options) {
  auto entry = std::make_shared<StageCacheEntry>();
  entry->stage = stage;
  entry->artifacts = std::move(artifacts);
  entry->source = source;
  entry->options = options;
  // Charge the verification payload too (each entry keeps its own
  // source copy), not just the stage's marginal artifact.
  entry->approxBytes = approxArtifactBytes(stage, entry->artifacts) +
                       source.size() + sizeof(StageCacheEntry);

  bool isNew = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    auto claim = claims_.extract(key);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      // First writer wins: concurrent compiles of one prefix converge
      // on the already-published artifact set.
      lruOrder_.splice(lruOrder_.end(), lruOrder_, it->second.lruPosition);
      if (claim)
        resolveLocked(claim.mapped(), it->second.entry);
    } else {
      lruOrder_.push_back(key);
      Node node{entry, std::prev(lruOrder_.end()), nullptr};
      if (claim) {
        resolveLocked(claim.mapped(), entry);
        claim.mapped() = std::move(node);
        entries_.insert(std::move(claim));
      } else {
        entries_.emplace(key, std::move(node));
      }
      totalBytes_ += entry->approxBytes;
      evictOverflowLocked();
      isNew = true;
    }
  }
  // Persist newly computed prefixes outside the lock. A prefix is only
  // computed after the disk probe for its key missed, so a publish
  // either adds the entry or replaces one that failed verification.
  if (isNew && store_)
    store_->publish(key, stage, entry->artifacts, source, options);
}

void StageCache::setCapacityBytes(std::size_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  capacityBytes_ = bytes;
  evictOverflowLocked();
}

void StageCache::evictOverflowLocked() {
  while (capacityBytes_ != 0 && totalBytes_ > capacityBytes_ &&
         !lruOrder_.empty()) {
    const std::uint64_t key = lruOrder_.front();
    lruOrder_.pop_front();
    const auto it = entries_.find(key);
    if (it == entries_.end())
      continue;
    totalBytes_ -= it->second.entry->approxBytes;
    entries_.erase(it);
    ++evictions_;
  }
}

StageCache::Stats StageCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.waits = waits_;
  stats.evictions = evictions_;
  stats.entries = static_cast<std::int64_t>(entries_.size());
  stats.approxBytes = static_cast<std::int64_t>(totalBytes_);
  return stats;
}

std::size_t StageCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void StageCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  // Claims stay: their owners still publish or abandon them.
  entries_.clear();
  lruOrder_.clear();
  totalBytes_ = 0;
  hits_ = 0;
  misses_ = 0;
  waits_ = 0;
  evictions_ = 0;
}

} // namespace cfd
