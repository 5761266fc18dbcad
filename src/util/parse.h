#ifndef RANDRANK_UTIL_PARSE_H_
#define RANDRANK_UTIL_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace randrank {

// Whole-token readers for text that comes from outside the program: policy
// labels, fault plans and command-line flags. Each returns true and writes
// `*out` only when all of `text` is one value of its grammar. An empty token,
// a leading or trailing blank, a '+' sign, trailing characters, or a value
// the type cannot hold returns false instead of wrapping, clamping or
// stopping early.

/// Decimal digits only ("0", "42"), at most 2^64 - 1.
inline bool ParseU64(std::string_view text, uint64_t* out) {
  uint64_t value = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size()) return false;
  *out = value;
  return true;
}

/// A finite decimal real: an optional '-', digits with an optional point, an
/// optional exponent ("0.10", "-1", "2.5e-3"). No hex, no "inf" or "nan",
/// and nothing outside a double's range ("1e400", "1e-400").
inline bool ParseFiniteReal(std::string_view text, double* out) {
  double value = 0.0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || end != text.data() + text.size() ||
      !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace randrank

#endif  // RANDRANK_UTIL_PARSE_H_
