// Versioned binary serialization of pipeline stage artifacts
// (DESIGN.md §13).
//
// ir/TextIO round-trips the tensor IR as text; this is the same
// round-trip contract extended to *every* stage artifact — parse
// through system generation — in a compact binary form, so the
// persistent ArtifactStore can hold one serialized prefix per stage
// key. The encoding is deliberately dumb: little-endian fixed-width
// scalars, length-prefixed strings, count-prefixed containers, fields
// written in declaration order. No pointers are serialized, and three
// things are re-derived on decode instead of stored (store format v2):
//
//  * Schedule::program points at the decoded OptimizeArtifact's
//    program of the same prefix (exactly what core/Pipeline wires when
//    it builds schedules),
//  * Schedule::layouts is re-materialized from that program and the
//    probing pipeline's LayoutOptions (LayoutAssignment::materialize is
//    deterministic, and rescheduling never mutates layouts),
//  * MemoryPlanArtifact::graph is rebuilt with
//    mem::buildCompatibilityGraph from the decoded rescheduled schedule
//    and liveness, the call core/Pipeline makes; it recomputes faster
//    than its node and edge lists decode.
//
// Round-trip invariant (tests/test_store.cpp): for any encodable prefix
// P, encodePrefix(decodePrefix(encodePrefix(P))) is byte-identical to
// encodePrefix(P).
//
// Decoding malformed bytes throws CodecError; ArtifactStore catches it
// and treats the entry as a miss (the payload checksum in the store
// header makes reaching a throw unlikely, but decode must never crash
// the process on bytes it does not understand). Beyond framing, decode
// checks what later code indexes or multiplies by: every shape is under
// kMaxTensorElements (support/Format.h) before layouts are built, each
// decoded program passes ir::Program::verify(), and every schedule op
// index and access tensor id falls inside the decoded program.
#pragma once

#include "core/StageCache.h"
#include "support/Error.h"

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace cfd::store {

/// Raised on malformed bytes (truncation, bad counts, unknown enum
/// values). A FlowError so existing catch sites degrade gracefully.
class CodecError : public FlowError {
public:
  using FlowError::FlowError;
};

/// Little-endian fixed-width primitive encoder (the byte layer shared
/// by the artifact payload codec and the ArtifactStore entry header).
class ByteWriter {
public:
  void u8(std::uint8_t value) {
    buffer_.push_back(static_cast<char>(value));
  }
  void u32(std::uint32_t value) {
    for (int byte = 0; byte < 4; ++byte)
      buffer_.push_back(static_cast<char>((value >> (byte * 8)) & 0xff));
  }
  void u64(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte)
      buffer_.push_back(static_cast<char>((value >> (byte * 8)) & 0xff));
  }
  void i64(std::int64_t value) { u64(static_cast<std::uint64_t>(value)); }
  void i32(int value) { i64(value); }
  void f64(double value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u8(value ? 1 : 0); }
  void str(std::string_view value) {
    u64(value.size());
    buffer_.append(value.data(), value.size());
  }
  template <typename E>
    requires std::is_enum_v<E>
  void enumeration(E value) {
    u8(static_cast<std::uint8_t>(value));
  }

  std::string take() { return std::move(buffer_); }

private:
  std::string buffer_;
};

/// The matching decoder; every read throws CodecError instead of
/// walking past the end of the buffer.
class ByteReader {
public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data_[pos_++]);
  }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  int i32() {
    const std::int64_t value = i64();
    if (value < INT32_MIN || value > INT32_MAX)
      throw CodecError("artifact codec: int out of range");
    return static_cast<int>(value);
  }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  /// A length-prefixed string as a view into the decoded buffer, valid
  /// as long as that buffer is.
  std::string_view view() {
    const std::uint64_t size = u64();
    need(size);
    const std::string_view value =
        data_.substr(pos_, static_cast<std::size_t>(size));
    pos_ += static_cast<std::size_t>(size);
    return value;
  }
  std::string str() { return std::string(view()); }
  /// Container count, bounded by the bytes that could possibly remain
  /// (every element is at least one byte) so corrupted counts fail fast
  /// instead of driving huge allocations.
  std::size_t count() {
    const std::uint64_t value = u64();
    if (value > data_.size() - pos_)
      throw CodecError("artifact codec: container count exceeds payload");
    return static_cast<std::size_t>(value);
  }
  template <typename E>
    requires std::is_enum_v<E>
  E enumeration(std::uint8_t numValues) {
    const std::uint8_t value = u8();
    if (value >= numValues)
      throw CodecError("artifact codec: enum value out of range");
    return static_cast<E>(value);
  }

  bool atEnd() const { return pos_ == data_.size(); }

private:
  void need(std::uint64_t bytes) {
    if (bytes > data_.size() - pos_)
      throw CodecError("artifact codec: payload truncated");
  }
  /// One little-endian field, copied straight out of the buffer: the
  /// host byte order is the format's (checked at compile time).
  template <typename T> T fixed() {
    static_assert(std::endian::native == std::endian::little,
                  "ByteReader copies little-endian fields as they are");
    need(sizeof(T));
    T value = 0;
    std::memcpy(&value, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return value;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Serializes the artifact prefix up to and including `stage`. Every
/// slot of `artifacts` up to `stage` must be non-null.
std::string encodePrefix(Stage stage, const StageArtifacts& artifacts);

/// Decodes a payload produced by encodePrefix for the same `stage`.
/// `options` supplies the LayoutOptions the schedules re-materialize
/// their layouts from (the store verified the options fingerprints
/// match the producer's before calling this). Throws CodecError on
/// malformed input.
StageArtifacts decodePrefix(Stage stage, std::string_view payload,
                            const FlowOptions& options);

} // namespace cfd::store
