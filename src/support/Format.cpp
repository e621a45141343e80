#include "support/Format.h"

#include <cmath>
#include <cstdio>

namespace cfd {

std::string formatShape(const std::vector<std::int64_t>& shape) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i != 0)
      os << " ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

bool isBoundedShape(const std::vector<std::int64_t>& shape) {
  if (shape.size() > static_cast<std::size_t>(kMaxDims))
    return false;
  std::int64_t elements = 1;
  for (std::int64_t extent : shape) {
    if (extent <= 0 || extent > kMaxTensorElements)
      return false;
    // Both factors are at most 2^28, so the product fits in int64.
    elements *= extent;
    if (elements > kMaxTensorElements)
      return false;
  }
  return true;
}

std::string shapeBoundMessage(const std::vector<std::int64_t>& shape) {
  if (shape.size() > static_cast<std::size_t>(kMaxDims))
    return "shape " + formatShape(shape) + " exceeds the bound of " +
           std::to_string(kMaxDims) + " dimensions per tensor";
  return "shape " + formatShape(shape) + " exceeds the bound of " +
         formatThousands(kMaxTensorElements) + " elements per tensor";
}

std::string formatFixed(double value, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

std::string formatThousands(std::int64_t value) {
  const bool negative = value < 0;
  std::string digits = std::to_string(negative ? -value : value);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0)
      out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  if (negative)
    out.push_back('-');
  return {out.rbegin(), out.rend()};
}

std::string padLeft(const std::string& s, std::size_t width) {
  if (s.size() >= width)
    return s;
  return std::string(width - s.size(), ' ') + s;
}

std::string padRight(const std::string& s, std::size_t width) {
  if (s.size() >= width)
    return s;
  return s + std::string(width - s.size(), ' ');
}

} // namespace cfd
