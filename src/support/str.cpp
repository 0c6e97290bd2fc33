#include "support/str.hpp"

#include <cstdio>

namespace fgpar {

std::string FormatFixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

std::string FormatChange(double after, double before) {
  std::string text = after >= before ? "+" : "";
  text += FormatFixed((after / before - 1.0) * 100.0, 1);
  text += '%';
  return text;
}

std::string FormatWithCommas(long long value) {
  const bool negative = value < 0;
  unsigned long long magnitude =
      negative ? 0ULL - static_cast<unsigned long long>(value)
               : static_cast<unsigned long long>(value);
  std::string digits = std::to_string(magnitude);
  std::string out;
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count != 0 && count % 3 == 0) {
      out.push_back(',');
    }
    out.push_back(*it);
    ++count;
  }
  if (negative) {
    out.push_back('-');
  }
  return {out.rbegin(), out.rend()};
}

std::string PadLeft(const std::string& s, std::size_t width) {
  if (s.size() >= width) {
    return s;
  }
  return std::string(width - s.size(), ' ') + s;
}

std::string PadRight(const std::string& s, std::size_t width) {
  if (s.size() >= width) {
    return s;
  }
  return s + std::string(width - s.size(), ' ');
}

}  // namespace fgpar
