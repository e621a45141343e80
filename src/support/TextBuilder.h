// Append-only text for the artifact emitters (C kernel, prototype,
// Mnemosyne configuration, host program).
//
// Each emitter appends its whole artifact to one std::string: text and
// characters are copied in, and numbers are formatted in place with
// std::to_chars, so no stream, locale or temporary string is involved.
// take() hands the text back in a string whose capacity equals its
// size, so callers that hold many artifacts at once pay for their bytes
// only, not for the builder's growth slack.
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <string>
#include <string_view>

namespace cfd {

class TextBuilder {
public:
  /// Starts with room for `capacity` bytes; the buffer grows as needed.
  explicit TextBuilder(std::size_t capacity = 0) { text_.reserve(capacity); }

  TextBuilder& operator<<(std::string_view text) {
    text_.append(text);
    return *this;
  }
  TextBuilder& operator<<(char c) {
    text_.push_back(c);
    return *this;
  }
  /// An integer in decimal, as operator<< on a stream prints it.
  template <std::integral T>
    requires(!std::same_as<T, char> && !std::same_as<T, bool>)
  TextBuilder& operator<<(T value) {
    char digits[24];
    const auto result = std::to_chars(digits, digits + sizeof digits, value);
    text_.append(digits, result.ptr);
    return *this;
  }

  /// `value` in lowercase hexadecimal digits, without a prefix.
  TextBuilder& hex(std::uint64_t value) {
    char digits[16];
    const auto result =
        std::to_chars(digits, digits + sizeof digits, value, 16);
    text_.append(digits, result.ptr);
    return *this;
  }

  /// `value` as printf's "%.17g" prints it: general notation with 17
  /// significant digits and trailing zeros removed (0.1 prints as
  /// 0.10000000000000001, 1e21 as 1e+21, 3.0 as 3).
  TextBuilder& real(double value) {
    char digits[32];
    const auto result = std::to_chars(digits, digits + sizeof digits, value,
                                      std::chars_format::general, 17);
    text_.append(digits, result.ptr);
    return *this;
  }

  /// `count` spaces.
  TextBuilder& spaces(std::size_t count) {
    text_.append(count, ' ');
    return *this;
  }

  /// The text so far, in a string whose capacity equals its size. The
  /// builder is empty afterwards.
  std::string take() {
    text_.shrink_to_fit();
    std::string text = std::move(text_);
    text_.clear();
    return text;
  }

private:
  std::string text_;
};

} // namespace cfd
