// String formatting helpers (no iostream state leakage, no locale).
#pragma once

#include <string>

namespace fgpar {

/// Fixed-point formatting with the given number of decimals ("1.32").
std::string FormatFixed(double value, int decimals);

/// The change from `before` to `after` as a signed percentage with one
/// decimal ("+4.5%", "-2.0%").
std::string FormatChange(double after, double before);

/// Thousands-separated integer formatting ("1,234,567").
std::string FormatWithCommas(long long value);

/// Left/right padding to a field width.
std::string PadLeft(const std::string& s, std::size_t width);
std::string PadRight(const std::string& s, std::size_t width);

}  // namespace fgpar
