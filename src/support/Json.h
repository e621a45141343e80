// Minimal JSON document model, writer, and parser (DESIGN.md §8).
//
// The tuning layer serializes reports as JSON so external tooling
// (plotting scripts, result databases, CI checks) can consume sweep and
// tuning results without parsing ad-hoc tables. This is a deliberately
// small hand-rolled implementation — no third-party dependency — with
// two properties the report format relies on:
//
//  * deterministic output: object members keep insertion order, numbers
//    print integers exactly and doubles with shortest round-trip
//    formatting, so the same TuningReport always dumps byte-identical
//    JSON;
//  * lossless round-trip: parse(dump(v)) reconstructs the same document
//    (tests/test_tuner.cpp round-trips every report it builds).
//
// The writer and the string scanner move text in runs: escaping copies
// each stretch of bytes that needs no escape straight into the output
// (one 256-entry table decides), and parsing copies each stretch
// between '"' and '\' in bulk. The daemon's wire lines (DESIGN.md §15)
// are built from the same append functions.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cfd::json {

/// One JSON value: null, bool, number, string, array, or object.
/// Objects preserve member insertion order (deterministic dumps).
class Value {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() : kind_(Kind::Null) {}
  Value(bool value) : kind_(Kind::Bool), bool_(value) {}
  Value(int value) : Value(static_cast<std::int64_t>(value)) {}
  Value(std::int64_t value)
      : kind_(Kind::Number), number_(static_cast<double>(value)),
        int_(value), isInteger_(true) {}
  Value(std::size_t value) : Value(static_cast<std::int64_t>(value)) {}
  Value(double value) : kind_(Kind::Number), number_(value) {}
  Value(const char* value) : kind_(Kind::String), string_(value) {}
  Value(std::string value) : kind_(Kind::String), string_(std::move(value)) {}

  static Value array() {
    Value v;
    v.kind_ = Kind::Array;
    return v;
  }
  static Value object() {
    Value v;
    v.kind_ = Kind::Object;
    return v;
  }

  Kind kind() const { return kind_; }
  bool isNull() const { return kind_ == Kind::Null; }
  bool isBool() const { return kind_ == Kind::Bool; }
  bool isNumber() const { return kind_ == Kind::Number; }
  bool isString() const { return kind_ == Kind::String; }
  bool isArray() const { return kind_ == Kind::Array; }
  bool isObject() const { return kind_ == Kind::Object; }

  // Reads. Documents come from outside (wire lines, report files), so a
  // read of the wrong kind, a missing member or an index out of range
  // is bad input: it throws FlowError.
  bool asBool() const;
  double asDouble() const;
  /// The exact integer, or a non-integral number truncated; a number
  /// outside the int64 range throws.
  std::int64_t asInt() const;
  const std::string& asString() const&;
  /// Moves the string out of a value the caller is done with.
  std::string asString() &&;

  std::size_t size() const;
  const Value& at(std::size_t index) const;
  Value& at(std::size_t index);
  bool contains(std::string_view key) const;
  const Value& at(std::string_view key) const;
  Value& at(std::string_view key);
  const std::vector<std::pair<std::string, Value>>& members() const;

  // Building; throws InternalError when the kind does not match.
  void push(Value value);
  /// Object members keep insertion order; set() replaces an existing key.
  void set(std::string key, Value value);

  /// Serializes with 2-space indentation per level; indent < 0 emits the
  /// compact single-line form.
  std::string dump(int indent = 2) const;
  /// Appends what dump(indent) returns to `out`.
  void dumpTo(std::string& out, int indent = 2) const;

  /// Parses a complete JSON document; throws FlowError with an offset on
  /// malformed input or trailing garbage.
  static Value parse(std::string_view text);

private:
  class Parser;

  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  double number_ = 0;
  // Integers keep their exact 64-bit value beside the double view, so
  // values above 2^53 (e.g. 64-bit tuner seeds) round-trip losslessly.
  std::int64_t int_ = 0;
  bool isInteger_ = false; // exact: print int_ without a decimal point
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

/// Escapes `s` as the contents of a JSON string literal (no quotes):
/// \" \\ \n \r \t \b \f, lowercase \u00xx for the other bytes below
/// 0x20; '/' and bytes from 0x7f up stay raw.
std::string escape(std::string_view s);
/// Appends `s` escaped as above, between quotes.
void writeString(std::string& out, std::string_view s);
/// Appends a number as dump() prints it: integers exactly; doubles with
/// an integral value below 1e15 without a decimal point, other finite
/// ones in their shortest round-trip form, and NaN/Inf as null.
void writeNumber(std::string& out, std::int64_t value);
void writeNumber(std::string& out, double value);

} // namespace cfd::json
