#include "support/Json.h"

#include "support/Error.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace cfd::json {

bool Value::asBool() const {
  CFD_ASSERT(kind_ == Kind::Bool, "JSON value is not a bool");
  return bool_;
}

double Value::asDouble() const {
  CFD_ASSERT(kind_ == Kind::Number, "JSON value is not a number");
  return isInteger_ ? static_cast<double>(int_) : number_;
}

std::int64_t Value::asInt() const {
  CFD_ASSERT(kind_ == Kind::Number, "JSON value is not a number");
  return isInteger_ ? int_ : static_cast<std::int64_t>(number_);
}

const std::string& Value::asString() const {
  CFD_ASSERT(kind_ == Kind::String, "JSON value is not a string");
  return string_;
}

void Value::push(Value value) {
  CFD_ASSERT(kind_ == Kind::Array, "push on a non-array JSON value");
  array_.push_back(std::move(value));
}

std::size_t Value::size() const {
  if (kind_ == Kind::Array)
    return array_.size();
  if (kind_ == Kind::Object)
    return object_.size();
  CFD_ASSERT(false, "size of a non-container JSON value");
  return 0;
}

const Value& Value::at(std::size_t index) const {
  CFD_ASSERT(kind_ == Kind::Array, "index into a non-array JSON value");
  CFD_ASSERT(index < array_.size(), "JSON array index out of range");
  return array_[index];
}

void Value::set(const std::string& key, Value value) {
  CFD_ASSERT(kind_ == Kind::Object, "set on a non-object JSON value");
  for (auto& [name, member] : object_)
    if (name == key) {
      member = std::move(value);
      return;
    }
  object_.emplace_back(key, std::move(value));
}

bool Value::contains(const std::string& key) const {
  CFD_ASSERT(kind_ == Kind::Object, "contains on a non-object JSON value");
  for (const auto& [name, member] : object_)
    if (name == key)
      return true;
  return false;
}

const Value& Value::at(const std::string& key) const {
  CFD_ASSERT(kind_ == Kind::Object, "key into a non-object JSON value");
  for (const auto& [name, member] : object_)
    if (name == key)
      return member;
  CFD_ASSERT(false, "JSON object has no member '" + key + "'");
  return object_.front().second; // unreachable
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  CFD_ASSERT(kind_ == Kind::Object, "members of a non-object JSON value");
  return object_;
}

std::string escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
    case '"': out += "\\\""; break;
    case '\\': out += "\\\\"; break;
    case '\n': out += "\\n"; break;
    case '\r': out += "\\r"; break;
    case '\t': out += "\\t"; break;
    case '\b': out += "\\b"; break;
    case '\f': out += "\\f"; break;
    default:
      if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += c;
      }
    }
  }
  return out;
}

namespace {

std::string formatNumber(double value, std::int64_t exact, bool isInteger) {
  if (isInteger)
    return std::to_string(exact);
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15)
    return std::to_string(static_cast<std::int64_t>(value));
  if (!std::isfinite(value))
    return "null"; // JSON has no NaN/Inf; degrade explicitly
  char buf[32];
  // Shortest representation that round-trips a double.
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof buf, value);
  (void)ec;
  return std::string(buf, end);
}

} // namespace

void Value::dumpTo(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const std::string pad =
      pretty ? std::string(static_cast<std::size_t>(indent) * (depth + 1), ' ')
             : std::string();
  const std::string closePad =
      pretty ? std::string(static_cast<std::size_t>(indent) * depth, ' ')
             : std::string();
  const char* nl = pretty ? "\n" : "";
  const char* colon = pretty ? ": " : ":";

  switch (kind_) {
  case Kind::Null:
    out += "null";
    break;
  case Kind::Bool:
    out += bool_ ? "true" : "false";
    break;
  case Kind::Number:
    out += formatNumber(number_, int_, isInteger_);
    break;
  case Kind::String:
    out += '"';
    out += escape(string_);
    out += '"';
    break;
  case Kind::Array: {
    if (array_.empty()) {
      out += "[]";
      break;
    }
    out += '[';
    out += nl;
    for (std::size_t i = 0; i < array_.size(); ++i) {
      out += pad;
      array_[i].dumpTo(out, indent, depth + 1);
      if (i + 1 < array_.size())
        out += ',';
      out += nl;
    }
    out += closePad;
    out += ']';
    break;
  }
  case Kind::Object: {
    if (object_.empty()) {
      out += "{}";
      break;
    }
    out += '{';
    out += nl;
    for (std::size_t i = 0; i < object_.size(); ++i) {
      out += pad;
      out += '"';
      out += escape(object_[i].first);
      out += '"';
      out += colon;
      object_[i].second.dumpTo(out, indent, depth + 1);
      if (i + 1 < object_.size())
        out += ',';
      out += nl;
    }
    out += closePad;
    out += '}';
    break;
  }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
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

/// Recursive-descent parser over a complete document.
class Parser {
public:
  explicit Parser(const std::string& text) : text_(text) {}

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

  bool consumeLiteral(const char* literal) {
    const std::size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) != 0)
      return false;
    pos_ += len;
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
      const std::string key = parseString();
      skipWhitespace();
      expect(':');
      object.set(key, parseValue());
      skipWhitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
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

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size())
        fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"')
        return out;
      if (c != '\\') {
        out += c;
        continue;
      }
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
    const std::string token = text_.substr(start, pos_ - start);
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

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0; ///< objects and arrays open at pos_
};

} // namespace

Value Value::parse(const std::string& text) {
  return Parser(text).parseDocument();
}

} // namespace cfd::json
