// Persistent content-addressed artifact store (DESIGN.md §13).
//
// The second tier under core/StageCache: where the in-memory tier dies
// with the process, this one keys serialized stage prefixes by the same
// Merkle stage keys (core/StageGraph.h) under a directory shared by
// every process on the machine — so a cold cfdc invocation, CI step, or
// sweep-shard worker adopts the prefix any prior process computed.
//
// Entry files are named by the 64-bit stage key and carry a
// self-describing header (magic, format version, stage, key echo, the
// full source text, one options fingerprint per covered stage, payload
// checksum). Reads verify all of it and treat ANY mismatch — truncated
// file, flipped byte, unknown version, wrong stage, a FIFO or directory
// at the entry path — as a clean miss counted in Stats::verifyFailures,
// never as an exception escaping to the compile. The process that then
// compiles the prefix publishes it over the rejected entry, so a bad or
// old-format entry costs one recompile, not one per later process.
//
// Concurrency: writers serialize an entry into `<name>.<pid>.<seq>.tmp`
// and publish it with one atomic rename(2), so readers never observe a
// partial file and racing publishers of one key both succeed (last
// rename wins; the contents are identical by construction — the key is
// content-derived). Reads take no lock. A crashed publisher leaves only
// a stale `.tmp`, which collectGarbage() sweeps.
//
// Capacity: LRU-by-mtime byte bound. Opening a store does not touch
// the directory beyond creating it; the first publish under a bound
// seeds a running byte estimate with one directory scan, so a process
// that only adopts entries never lists the directory. Later publishes
// bump the estimate; crossing the bound triggers collectGarbage(),
// which rescans the directory and deletes oldest-mtime entries until
// under the bound.
#pragma once

#include "core/StageCache.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>

namespace cfd::store {

/// The 64-bit payload checksum of store format v2. Four lanes take the
/// payload's 8-byte words in turn, then the 0-7 tail bytes and the
/// length are mixed in. Every step, the final combination of the lanes
/// included, is a bijection of the running state when its other inputs
/// are fixed, so any change confined to one 8-byte word — every
/// single-byte corruption among them — changes the value.
std::uint64_t payloadChecksum(std::string_view bytes);

struct ArtifactStoreOptions {
  /// Root directory; created (recursively) on construction. When
  /// creation fails the store stays constructed but disabled: every
  /// load misses and every publish is dropped.
  std::string root;
  /// On-disk byte bound enforced by collectGarbage() (0 = unbounded).
  std::size_t capacityBytes = ArtifactStoreOptions::kDefaultCapacityBytes;
  static constexpr std::size_t kDefaultCapacityBytes = 256u << 20;
};

class ArtifactStore {
public:
  /// Bumped whenever the header or ArtifactCodec encoding changes; a
  /// version mismatch on read is a verification miss, so stores survive
  /// format evolution without migration (the next publish of the key
  /// replaces a stale entry; unused ones age out via GC). In version 2
  /// the payload checksum is payloadChecksum(), and decode rebuilds the
  /// compatibility graph instead of reading it.
  static constexpr std::uint32_t kFormatVersion = 2;

  struct Stats {
    std::int64_t hits = 0;           // entries loaded and verified
    std::int64_t misses = 0;         // probes that found no entry file
    std::int64_t verifyFailures = 0; // entries rejected by verification
    std::int64_t publishes = 0;      // entry files written
    std::int64_t evictions = 0;      // entries deleted by the GC bound
    std::int64_t staleTmpRemoved = 0; // crashed-publisher leftovers swept
  };

  explicit ArtifactStore(ArtifactStoreOptions options);

  /// True when the root directory exists and is usable.
  bool enabled() const { return enabled_; }
  const std::string& root() const { return options_.root; }

  /// Probes the entry for `key`, expecting it to cover exactly `stage`
  /// for `source` compiled under `options` (normalized). Returns a
  /// fully decoded cache entry ready for StageCache adoption, or null
  /// on a miss or any verification failure.
  std::shared_ptr<const StageCacheEntry>
  load(std::uint64_t key, Stage stage, const std::string& source,
       const FlowOptions& options);

  /// Serializes the prefix up to `stage` and publishes it under `key`
  /// via temp-file + atomic rename, replacing any entry file already
  /// there — one that failed verification included; between racing
  /// publishers the last rename wins. Never throws: I/O failures drop
  /// the publish (the entry is recomputed next time).
  void publish(std::uint64_t key, Stage stage,
               const StageArtifacts& artifacts, const std::string& source,
               const FlowOptions& options);

  /// Trims the store to the byte bound, deleting verified-oldest-mtime
  /// entries first, and sweeps `.tmp` files older than ~15 minutes.
  /// Safe to run concurrently with readers and publishers in other
  /// processes (deleting a file a reader has open is fine on POSIX).
  void collectGarbage();

  void setCapacityBytes(std::size_t bytes);

  Stats stats() const;
  /// Current entry-file count and byte total (directory scan).
  std::size_t entryCount() const;
  std::size_t diskBytes() const;

  /// The entry file path for `key` (tests corrupt entries through this).
  std::string entryPath(std::uint64_t key) const;

private:
  std::string encodeEntry(std::uint64_t key, Stage stage,
                          const StageArtifacts& artifacts,
                          const std::string& source,
                          const FlowOptions& options) const;

  ArtifactStoreOptions options_;
  bool enabled_ = false;

  mutable std::mutex mutex_; // guards stats + byte estimate, not file I/O
  Stats stats_;
  std::optional<std::size_t> approxDiskBytes_; // unset until first scanned
  std::uint64_t tmpSequence_ = 0;
};

} // namespace cfd::store
