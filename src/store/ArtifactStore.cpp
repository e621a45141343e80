#include "store/ArtifactStore.h"

#include "store/ArtifactCodec.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

namespace cfd::store {

namespace fs = std::filesystem;

namespace {

// "CFDA" little-endian.
constexpr std::uint32_t kMagic = 0x41444643u;
constexpr const char* kEntrySuffix = ".cfda";
/// A healthy publish takes milliseconds; a `.tmp` this old can only be
/// a crashed publisher's leftover.
constexpr auto kStaleTmpAge = std::chrono::minutes(15);

// Odd multipliers: multiplying by one is a bijection modulo 2^64.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ull;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4full;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ull;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ull;

/// One checksum step: a bijection of `state` for a fixed `word`, and of
/// `word` for a fixed `state`.
std::uint64_t step(std::uint64_t state, std::uint64_t word) {
  return std::rotl(state + word * kPrime2, 31) * kPrime1;
}

std::uint64_t loadWord(const char* bytes) {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof(word));
  return word;
}

std::string keyFileName(std::uint64_t key) {
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(key));
  return std::string(hex) + kEntrySuffix;
}

/// Closes the descriptor on every way out of the reader, including a
/// std::bad_alloc from sizing the buffer.
struct OpenFile {
  explicit OpenFile(int descriptor) : fd(descriptor) {}
  OpenFile(const OpenFile&) = delete;
  OpenFile& operator=(const OpenFile&) = delete;
  ~OpenFile() {
    if (fd >= 0)
      ::close(fd);
  }
  const int fd;
};

enum class EntryRead { Ok, Absent, Failed };

/// Reads the entry file at `path` whole: one open, one fstat and a read
/// of the size it reports. O_NONBLOCK keeps open() from waiting for a
/// writer when a FIFO sits at the path; anything but a regular file, or
/// a file that shrinks under the read, fails.
EntryRead readEntryFile(const std::string& path, std::string& bytes) {
  const OpenFile file(
      ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC));
  if (file.fd < 0)
    return errno == ENOENT || errno == ENOTDIR ? EntryRead::Absent
                                               : EntryRead::Failed;
  struct stat info {};
  if (::fstat(file.fd, &info) != 0 || !S_ISREG(info.st_mode))
    return EntryRead::Failed;
  bytes.resize(static_cast<std::size_t>(info.st_size));
  std::size_t done = 0;
  while (done < bytes.size()) {
    const ssize_t got =
        ::read(file.fd, bytes.data() + done, bytes.size() - done);
    if (got > 0)
      done += static_cast<std::size_t>(got);
    else if (got == 0 || errno != EINTR)
      return EntryRead::Failed;
  }
  return EntryRead::Ok;
}

} // namespace

std::uint64_t payloadChecksum(std::string_view bytes) {
  static_assert(std::endian::native == std::endian::little,
                "the checksum reads little-endian words as they are");
  const char* data = bytes.data();
  const std::size_t words = bytes.size() / 8;
  std::uint64_t lanes[4] = {kPrime1, kPrime2, kPrime3, kPrime4};
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4)
    for (std::size_t lane = 0; lane < 4; ++lane)
      lanes[lane] = step(lanes[lane], loadWord(data + 8 * (i + lane)));
  for (; i < words; ++i)
    lanes[i % 4] = step(lanes[i % 4], loadWord(data + 8 * i));
  // Each term is a bijection of its lane, and adding fixed terms is too.
  std::uint64_t value = std::rotl(lanes[0], 1) + std::rotl(lanes[1], 7) +
                        std::rotl(lanes[2], 12) + std::rotl(lanes[3], 18);
  // The 0-7 tail bytes, zero-padded, then the length.
  std::uint64_t tail = 0;
  if (const std::size_t rest = bytes.size() % 8; rest != 0)
    std::memcpy(&tail, data + 8 * words, rest);
  value = step(value, tail);
  value = step(value, bytes.size());
  // Final avalanche: xor-shifts and odd multiplies are bijections.
  value ^= value >> 33;
  value *= kPrime2;
  value ^= value >> 29;
  value *= kPrime3;
  value ^= value >> 32;
  return value;
}

ArtifactStore::ArtifactStore(ArtifactStoreOptions options)
    : options_(std::move(options)) {
  if (options_.root.empty())
    return;
  std::error_code ec;
  fs::create_directories(options_.root, ec);
  enabled_ = !ec && fs::is_directory(options_.root, ec);
}

std::string ArtifactStore::entryPath(std::uint64_t key) const {
  return (fs::path(options_.root) / keyFileName(key)).string();
}

std::string ArtifactStore::encodeEntry(std::uint64_t key, Stage stage,
                                       const StageArtifacts& artifacts,
                                       const std::string& source,
                                       const FlowOptions& options) const {
  const std::string payload = encodePrefix(stage, artifacts);
  ByteWriter w;
  w.u32(kMagic);
  w.u32(kFormatVersion);
  w.u32(static_cast<std::uint32_t>(stage));
  w.u64(key);
  w.str(source);
  // One fingerprint per covered stage: the echo a reader checks against
  // its own (normalized) options. Structural option equality cannot be
  // verified across processes without serializing FlowOptions, so the
  // disk tier's collision guard is (source text) + (per-stage 64-bit
  // fingerprints) — and the in-memory tier re-verifies structurally on
  // every adoption after the entry is cached.
  const int last = static_cast<int>(stage);
  w.u32(static_cast<std::uint32_t>(last + 1));
  for (int i = 0; i <= last; ++i)
    w.u64(stageOptionsFingerprint(static_cast<Stage>(i), options));
  w.u64(payloadChecksum(payload));
  w.str(payload);
  return w.take();
}

std::shared_ptr<const StageCacheEntry>
ArtifactStore::load(std::uint64_t key, Stage stage,
                    const std::string& source,
                    const FlowOptions& options) {
  if (!enabled_)
    return nullptr;
  const auto reject = [this]() -> std::shared_ptr<const StageCacheEntry> {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.verifyFailures;
    return nullptr;
  };

  try {
    std::string bytes;
    const EntryRead read = readEntryFile(entryPath(key), bytes);
    if (read == EntryRead::Absent) {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.misses;
      return nullptr;
    }
    if (read == EntryRead::Failed)
      return reject();

    ByteReader r(bytes);
    if (r.u32() != kMagic || r.u32() != kFormatVersion ||
        r.u32() != static_cast<std::uint32_t>(stage) || r.u64() != key)
      return reject();
    if (r.view() != source)
      return reject();
    const std::uint32_t numFingerprints = r.u32();
    if (numFingerprints != static_cast<std::uint32_t>(stage) + 1)
      return reject();
    for (std::uint32_t i = 0; i < numFingerprints; ++i)
      if (r.u64() !=
          stageOptionsFingerprint(static_cast<Stage>(i), options))
        return reject();
    const std::uint64_t expectedChecksum = r.u64();
    const std::string_view payload = r.view();
    if (!r.atEnd() || payloadChecksum(payload) != expectedChecksum)
      return reject();

    auto entry = std::make_shared<StageCacheEntry>();
    entry->stage = stage;
    entry->artifacts = decodePrefix(stage, payload, options);
    entry->source = source;
    entry->options = options;
    entry->approxBytes = approxArtifactBytes(stage, entry->artifacts) +
                         source.size() + sizeof(StageCacheEntry);
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.hits;
    return entry;
  } catch (const std::exception&) {
    // CodecError on malformed bytes, an internal invariant tripping on
    // checksum-valid-but-inconsistent data, or a file too large to
    // buffer: either way the contract is "corruption is a miss, never a
    // crash".
    return reject();
  }
}

void ArtifactStore::publish(std::uint64_t key, Stage stage,
                            const StageArtifacts& artifacts,
                            const std::string& source,
                            const FlowOptions& options) {
  if (!enabled_)
    return;
  const fs::path path = entryPath(key);
  std::error_code ec;

  std::string bytes;
  try {
    bytes = encodeEntry(key, stage, artifacts, source, options);
  } catch (const std::exception&) {
    return; // an unencodable prefix is not publishable; keep compiling
  }

  std::uint64_t sequence = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    sequence = tmpSequence_++;
  }
  const fs::path tmp =
      path.string() + "." + std::to_string(::getpid()) + "." +
      std::to_string(sequence) + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return;
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      out.close();
      fs::remove(tmp, ec);
      return;
    }
  }
  // The atomic publish: readers see either no file or the whole file.
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    return;
  }

  std::size_t capacity = 0;
  std::optional<std::size_t> estimate;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.publishes;
    capacity = options_.capacityBytes;
    // A replaced entry's old bytes stay in the estimate until the next
    // GC scan recounts the directory, so it can only over-count.
    if (approxDiskBytes_)
      estimate = *approxDiskBytes_ += bytes.size();
  }
  if (capacity == 0)
    return;
  if (!estimate) {
    // The first bounded publish seeds the estimate with one scan, which
    // already counts this entry.
    estimate = diskBytes();
    std::lock_guard<std::mutex> lock(mutex_);
    approxDiskBytes_ = estimate;
  }
  if (*estimate > capacity)
    collectGarbage();
}

void ArtifactStore::collectGarbage() {
  if (!enabled_)
    return;
  struct EntryFile {
    fs::path path;
    std::uintmax_t size = 0;
    fs::file_time_type mtime;
  };
  std::vector<EntryFile> entries;
  std::uintmax_t totalBytes = 0;
  std::int64_t staleRemoved = 0;
  std::error_code ec;
  const auto now = fs::file_time_type::clock::now();
  for (const fs::directory_entry& item :
       fs::directory_iterator(options_.root, ec)) {
    if (!item.is_regular_file(ec))
      continue;
    const std::string name = item.path().filename().string();
    const fs::file_time_type mtime = item.last_write_time(ec);
    if (ec)
      continue;
    if (name.ends_with(".tmp")) {
      if (now - mtime > kStaleTmpAge && fs::remove(item.path(), ec))
        ++staleRemoved;
      continue;
    }
    if (!name.ends_with(kEntrySuffix))
      continue;
    EntryFile entry;
    entry.path = item.path();
    entry.size = item.file_size(ec);
    if (ec)
      continue;
    entry.mtime = mtime;
    totalBytes += entry.size;
    entries.push_back(std::move(entry));
  }

  std::size_t capacity = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    capacity = options_.capacityBytes;
    stats_.staleTmpRemoved += staleRemoved;
  }

  std::int64_t evicted = 0;
  if (capacity != 0 && totalBytes > capacity) {
    std::sort(entries.begin(), entries.end(),
              [](const EntryFile& a, const EntryFile& b) {
                return a.mtime < b.mtime;
              });
    for (const EntryFile& entry : entries) {
      if (totalBytes <= capacity)
        break;
      if (!fs::remove(entry.path, ec) || ec)
        continue;
      totalBytes -= entry.size;
      ++evicted;
    }
  }

  std::lock_guard<std::mutex> lock(mutex_);
  stats_.evictions += evicted;
  approxDiskBytes_ = static_cast<std::size_t>(totalBytes);
}

void ArtifactStore::setCapacityBytes(std::size_t bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    options_.capacityBytes = bytes;
  }
  collectGarbage();
}

ArtifactStore::Stats ArtifactStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ArtifactStore::entryCount() const {
  if (!enabled_)
    return 0;
  std::size_t count = 0;
  std::error_code ec;
  for (const fs::directory_entry& item :
       fs::directory_iterator(options_.root, ec))
    if (item.is_regular_file(ec) &&
        item.path().filename().string().ends_with(kEntrySuffix))
      ++count;
  return count;
}

std::size_t ArtifactStore::diskBytes() const {
  if (!enabled_)
    return 0;
  std::uintmax_t bytes = 0;
  std::error_code ec;
  for (const fs::directory_entry& item :
       fs::directory_iterator(options_.root, ec)) {
    if (!item.is_regular_file(ec) ||
        !item.path().filename().string().ends_with(kEntrySuffix))
      continue;
    // An entry another process's GC deletes mid-scan has no size.
    const std::uintmax_t size = item.file_size(ec);
    if (!ec)
      bytes += size;
  }
  return static_cast<std::size_t>(bytes);
}

} // namespace cfd::store
