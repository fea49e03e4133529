// The one strict integer reader: every integer that arrives as text (CLI
// flags and arguments, graph headers and edge lists) goes through ParseInt.
//
// Strict means the whole token is one base-10 integer with an optional
// leading sign ('+' included) and nothing after it, within [lo, hi];
// leading whitespace is skipped, as strtoll skips it. An
// empty token, trailing bytes ("3x", "1e1", an embedded NUL as in
// "0\0zz"), hex ("0x1") and anything that overflows int64 are rejected. atoi's silent zero on garbage is exactly
// the failure this exists to rule out.

#ifndef PEBBLEJOIN_UTIL_PARSE_INT_H_
#define PEBBLEJOIN_UTIL_PARSE_INT_H_

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>

namespace pebblejoin {

inline std::optional<int64_t> ParseInt(
    const std::string& token, int64_t lo = std::numeric_limits<int64_t>::min(),
    int64_t hi = std::numeric_limits<int64_t>::max()) {
  if (token.empty()) return std::nullopt;
  // strtoll stops at a NUL, so "whole token" is checked against the
  // token's length, not against its terminator.
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || end != token.c_str() + token.size()) return std::nullopt;
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_PARSE_INT_H_
