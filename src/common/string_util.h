#ifndef TREEBENCH_COMMON_STRING_UTIL_H_
#define TREEBENCH_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>

namespace treebench {

/// "1.5 KiB", "64.0 MiB", ... for byte counts.
std::string HumanBytes(uint64_t bytes);

/// Seconds with fixed precision, e.g. "802.15".
std::string FormatSeconds(double seconds, int precision = 2);

/// Thousands-separated integer: 1234567 -> "1,234,567".
std::string WithThousands(uint64_t v);

/// Escapes `s` for use inside a JSON string literal: `"` and `\` get a
/// backslash, newline and tab become \n and \t, every other control
/// character below 0x20 becomes \u00XX. All other bytes pass through.
std::string JsonEscape(const std::string& s);

}  // namespace treebench

#endif  // TREEBENCH_COMMON_STRING_UTIL_H_
