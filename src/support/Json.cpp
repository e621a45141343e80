#include "support/Json.h"

#include "support/Error.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <numeric>

namespace cfd::json {

namespace {

[[noreturn]] void badShape(const std::string& what) { throw FlowError(what); }

} // namespace

bool Value::asBool() const {
  if (kind_ != Kind::Bool)
    badShape("JSON value is not a bool");
  return bool_;
}

double Value::asDouble() const {
  if (kind_ != Kind::Number)
    badShape("JSON value is not a number");
  return isInteger_ ? static_cast<double>(int_) : number_;
}

std::int64_t Value::asInt() const {
  if (kind_ != Kind::Number)
    badShape("JSON value is not a number");
  if (isInteger_)
    return int_;
  // The cast is undefined outside [-2^63, 2^63).
  if (!(number_ >= -0x1p63 && number_ < 0x1p63))
    badShape("JSON number is outside the integer range");
  return static_cast<std::int64_t>(number_);
}

const std::string& Value::asString() const& {
  if (kind_ != Kind::String)
    badShape("JSON value is not a string");
  return string_;
}

std::string Value::asString() && {
  if (kind_ != Kind::String)
    badShape("JSON value is not a string");
  return std::move(string_);
}

std::size_t Value::size() const {
  if (kind_ == Kind::Array)
    return array_.size();
  if (kind_ == Kind::Object)
    return object_.size();
  badShape("JSON value is not an array or object");
}

Value& Value::at(std::size_t index) {
  if (kind_ != Kind::Array)
    badShape("JSON value is not an array");
  if (index >= array_.size())
    badShape("JSON array index " + std::to_string(index) + " out of range");
  return array_[index];
}

const Value& Value::at(std::size_t index) const {
  return const_cast<Value&>(*this).at(index);
}

bool Value::contains(std::string_view key) const {
  for (const auto& [name, member] : members())
    if (name == key)
      return true;
  return false;
}

Value& Value::at(std::string_view key) {
  if (kind_ != Kind::Object)
    badShape("JSON value is not an object");
  for (auto& [name, member] : object_)
    if (name == key)
      return member;
  badShape("JSON object has no member '" + std::string(key) + "'");
}

const Value& Value::at(std::string_view key) const {
  return const_cast<Value&>(*this).at(key);
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (kind_ != Kind::Object)
    badShape("JSON value is not an object");
  return object_;
}

void Value::push(Value value) {
  CFD_ASSERT(kind_ == Kind::Array, "push on a non-array JSON value");
  array_.push_back(std::move(value));
}

void Value::set(std::string key, Value value) {
  CFD_ASSERT(kind_ == Kind::Object, "set on a non-object JSON value");
  for (auto& [name, member] : object_)
    if (name == key) {
      member = std::move(value);
      return;
    }
  object_.emplace_back(std::move(key), std::move(value));
}

namespace {

/// What the writer emits for each byte: 0 copies it raw, 'u' writes
/// \u00xx, any other entry c writes the two characters '\' c.
constexpr std::array<char, 256> kEscapes = [] {
  std::array<char, 256> table{};
  for (int c = 0; c < 0x20; ++c)
    table[c] = 'u';
  table['"'] = '"';
  table['\\'] = '\\';
  table['\n'] = 'n';
  table['\r'] = 'r';
  table['\t'] = 't';
  table['\b'] = 'b';
  table['\f'] = 'f';
  return table;
}();

/// Appends `s` escaped, copying each run that needs no escape in one go.
void escapeTo(std::string& out, std::string_view s) {
  const char* run = s.data();
  const char* const end = run + s.size();
  for (const char* p = run; p != end; ++p) {
    const unsigned char c = static_cast<unsigned char>(*p);
    const char code = kEscapes[c];
    if (code == 0)
      continue;
    out.append(run, static_cast<std::size_t>(p - run));
    if (code == 'u') {
      constexpr char kHex[] = "0123456789abcdef";
      const char escaped[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xf]};
      out.append(escaped, sizeof escaped);
    } else {
      const char escaped[] = {'\\', code};
      out.append(escaped, sizeof escaped);
    }
    run = p + 1;
  }
  out.append(run, static_cast<std::size_t>(end - run));
}

} // namespace

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  escapeTo(out, s);
  return out;
}

void writeString(std::string& out, std::string_view s) {
  out += '"';
  escapeTo(out, s);
  out += '"';
}

void writeNumber(std::string& out, std::int64_t value) {
  char buf[24];
  const char* end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

void writeNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null"; // JSON has no NaN/Inf; degrade explicitly
    return;
  }
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    writeNumber(out, static_cast<std::int64_t>(value));
    return;
  }
  char buf[32];
  // Shortest representation that round-trips a double.
  const char* end = std::to_chars(buf, buf + sizeof buf, value).ptr;
  out.append(buf, static_cast<std::size_t>(end - buf));
}

namespace {

/// Pretty form: a line break, then `depth` levels of indentation.
void newline(std::string& out, int indent, int depth) {
  if (indent < 0)
    return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

} // namespace

void Value::write(std::string& out, int indent, int depth) const {
  switch (kind_) {
  case Kind::Null:
    out += "null";
    break;
  case Kind::Bool:
    out += bool_ ? "true" : "false";
    break;
  case Kind::Number:
    if (isInteger_)
      writeNumber(out, int_);
    else
      writeNumber(out, number_);
    break;
  case Kind::String:
    writeString(out, string_);
    break;
  case Kind::Array:
    if (array_.empty()) {
      out += "[]";
      break;
    }
    out += '[';
    for (std::size_t i = 0; i < array_.size(); ++i) {
      if (i > 0)
        out += ',';
      newline(out, indent, depth + 1);
      array_[i].write(out, indent, depth + 1);
    }
    newline(out, indent, depth);
    out += ']';
    break;
  case Kind::Object:
    if (object_.empty()) {
      out += "{}";
      break;
    }
    out += '{';
    for (std::size_t i = 0; i < object_.size(); ++i) {
      if (i > 0)
        out += ',';
      newline(out, indent, depth + 1);
      writeString(out, object_[i].first);
      out += indent >= 0 ? ": " : ":";
      object_[i].second.write(out, indent, depth + 1);
    }
    newline(out, indent, depth);
    out += '}';
    break;
  }
}

void Value::dumpTo(std::string& out, int indent) const {
  write(out, indent, 0);
}

std::string Value::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

namespace {

/// The deepest nesting of objects and arrays a document may have. The
/// parser recurses once per level, so a bound keeps hostile input (one
/// wire line of 100,000 '[') from overflowing the stack. The deepest
/// documents the repo writes have 6 levels (a daemon's tune response,
/// which embeds the 5-level tune report); sweep reports and
/// diagnostics have 3.
constexpr int kMaxDepth = 128;

/// The first `c` in [first, last), or `last`.
const char* find(const char* first, const char* last, char c) {
  const void* hit =
      std::memchr(first, c, static_cast<std::size_t>(last - first));
  return hit != nullptr ? static_cast<const char*>(hit) : last;
}

/// An object's first members go in through Value::set, which searches
/// the earlier keys; later ones are appended and checked in one sort.
/// Searching every key made one wire line of a million members
/// quadratic: hours of parsing.
constexpr std::size_t kSearchedMembers = 16;

/// Value::set's rule for a repeated key, the last value at the first
/// key's place, applied to a whole member list at once.
void keepLastOfEachKey(std::vector<std::pair<std::string, Value>>& members) {
  std::vector<std::size_t> order(members.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int byKey = members[a].first.compare(members[b].first);
    return byKey != 0 ? byKey < 0 : a < b;
  });
  std::vector<bool> repeated(members.size(), false);
  bool any = false;
  for (std::size_t i = 1, first = order[0]; i < order.size(); ++i) {
    if (members[order[i]].first != members[first].first) {
      first = order[i];
      continue;
    }
    members[first].second = std::move(members[order[i]].second);
    repeated[order[i]] = true;
    any = true;
  }
  if (!any)
    return;
  std::size_t kept = 0;
  for (std::size_t m = 0; m < members.size(); ++m)
    if (!repeated[m]) {
      if (kept != m)
        members[kept] = std::move(members[m]);
      ++kept;
    }
  members.erase(members.begin() + static_cast<std::ptrdiff_t>(kept),
                members.end());
}

} // namespace

/// Recursive-descent parser over a complete document.
class Value::Parser {
public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parseDocument() {
    Value value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size())
      fail("trailing characters after JSON document");
    return value;
  }

private:
  [[noreturn]] void fail(const std::string& what) {
    throw FlowError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + what);
  }

  void skipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size())
      fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeLiteral(std::string_view literal) {
    if (!text_.substr(pos_).starts_with(literal))
      return false;
    pos_ += literal.size();
    return true;
  }

  Value parseValue() {
    skipWhitespace();
    switch (peek()) {
    case '{':
    case '[': {
      if (++depth_ > kMaxDepth)
        fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
      Value nested = peek() == '{' ? parseObject() : parseArray();
      --depth_;
      return nested;
    }
    case '"': return Value(parseString());
    case 't':
      if (!consumeLiteral("true"))
        fail("invalid literal");
      return Value(true);
    case 'f':
      if (!consumeLiteral("false"))
        fail("invalid literal");
      return Value(false);
    case 'n':
      if (!consumeLiteral("null"))
        fail("invalid literal");
      return Value();
    default: return parseNumber();
    }
  }

  Value parseObject() {
    expect('{');
    Value object = Value::object();
    skipWhitespace();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      skipWhitespace();
      std::string key = parseString();
      skipWhitespace();
      expect(':');
      Value value = parseValue();
      if (object.object_.size() < kSearchedMembers)
        object.set(std::move(key), std::move(value));
      else
        object.object_.emplace_back(std::move(key), std::move(value));
      skipWhitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      if (object.object_.size() > kSearchedMembers)
        keepLastOfEachKey(object.object_);
      return object;
    }
  }

  Value parseArray() {
    expect('[');
    Value array = Value::array();
    skipWhitespace();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      array.push(parseValue());
      skipWhitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return array;
    }
  }

  /// Copies the runs between escapes in bulk: each turn appends up to
  /// the next '\' or the closing-quote candidate, whichever is first.
  std::string parseString() {
    expect('"');
    std::string out;
    const char* const begin = text_.data();
    const char* const end = begin + text_.size();
    const char* p = begin + pos_;
    // An escaped '"' moves the candidate on; `end` means there is none,
    // so each byte is searched at most once.
    const char* quote = find(p, end, '"');
    while (true) {
      if (quote < p)
        quote = find(p, end, '"');
      const char* stop = find(p, quote, '\\');
      out.append(p, static_cast<std::size_t>(stop - p));
      pos_ = static_cast<std::size_t>(stop - begin);
      if (stop == end)
        fail("unterminated string");
      ++pos_;
      if (stop == quote)
        return out;
      appendEscape(out);
      p = begin + pos_;
    }
  }

  /// Decodes the escape after a '\' at pos_ - 1.
  void appendEscape(std::string& out) {
    if (pos_ >= text_.size())
      fail("unterminated escape");
    const char esc = text_[pos_++];
    switch (esc) {
    case '"': out += '"'; break;
    case '\\': out += '\\'; break;
    case '/': out += '/'; break;
    case 'n': out += '\n'; break;
    case 'r': out += '\r'; break;
    case 't': out += '\t'; break;
    case 'b': out += '\b'; break;
    case 'f': out += '\f'; break;
    case 'u': {
      if (pos_ + 4 > text_.size())
        fail("truncated \\u escape");
      unsigned code = 0;
      for (int i = 0; i < 4; ++i) {
        const char h = text_[pos_++];
        code <<= 4;
        if (h >= '0' && h <= '9')
          code += static_cast<unsigned>(h - '0');
        else if (h >= 'a' && h <= 'f')
          code += static_cast<unsigned>(h - 'a' + 10);
        else if (h >= 'A' && h <= 'F')
          code += static_cast<unsigned>(h - 'A' + 10);
        else
          fail("invalid \\u escape");
      }
      // The writer only emits \u for control characters; encode the
      // general case as UTF-8 anyway.
      if (code < 0x80) {
        out += static_cast<char>(code);
      } else if (code < 0x800) {
        out += static_cast<char>(0xc0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3f));
      } else {
        out += static_cast<char>(0xe0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
      }
      break;
    }
    default: fail("unknown escape");
    }
  }

  Value parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-')
      ++pos_;
    bool isInteger = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        isInteger = false;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-'))
      fail("invalid number");
    // The scan above over-accepts ('.', 'e', signs anywhere); requiring
    // stoll/stod to consume the whole token rejects shapes like "1-2"
    // or "3ee5" instead of silently truncating them.
    const std::string token(text_.substr(start, pos_ - start));
    try {
      std::size_t consumed = 0;
      if (isInteger) {
        const std::int64_t parsed = std::stoll(token, &consumed);
        if (consumed != token.size())
          fail("invalid number '" + token + "'");
        return Value(parsed);
      }
      const double parsed = std::stod(token, &consumed);
      if (consumed != token.size())
        fail("invalid number '" + token + "'");
      return Value(parsed);
    } catch (const FlowError&) {
      throw;
    } catch (const std::exception&) {
      fail("invalid number '" + token + "'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0; ///< objects and arrays open at pos_
};

Value Value::parse(std::string_view text) {
  return Parser(text).parseDocument();
}

} // namespace cfd::json
