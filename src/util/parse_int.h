// The one strict integer reader: every integer that arrives as text (CLI
// flags and arguments, graph headers and edge lists) goes through ParseInt.
//
// Strict means the whole token is one base-10 integer with an optional
// leading sign ('+' included) and nothing after it, within [lo, hi];
// leading whitespace is skipped. These are strtoll's rules: an empty
// token, a second sign ("+-1"), trailing bytes ("3x", "1e1", an embedded
// NUL as in "0\0zz"), hex ("0x1") and anything that overflows int64 are
// rejected. atoi's silent zero on garbage is exactly the failure this
// exists to rule out.

#ifndef PEBBLEJOIN_UTIL_PARSE_INT_H_
#define PEBBLEJOIN_UTIL_PARSE_INT_H_

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <system_error>

namespace pebblejoin {

// The bytes std::isspace accepts in the "C" locale.
inline bool IsAsciiSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

inline std::optional<int64_t> ParseInt(
    std::string_view token, int64_t lo = std::numeric_limits<int64_t>::min(),
    int64_t hi = std::numeric_limits<int64_t>::max()) {
  size_t i = 0;
  while (i < token.size() && IsAsciiSpace(token[i])) ++i;
  bool negative = false;
  if (i < token.size() && (token[i] == '+' || token[i] == '-')) {
    negative = token[i] == '-';
    ++i;
  }
  // from_chars then reads digits only: no sign, space or base prefix.
  if (i == token.size() || token[i] < '0' || token[i] > '9') {
    return std::nullopt;
  }
  const char* end = token.data() + token.size();
  uint64_t magnitude = 0;
  const auto [stop, ec] = std::from_chars(token.data() + i, end, magnitude);
  if (ec != std::errc() || stop != end) return std::nullopt;
  constexpr uint64_t kMax = std::numeric_limits<int64_t>::max();
  if (magnitude > kMax + (negative ? 1 : 0)) return std::nullopt;
  const int64_t value =
      negative ? (magnitude == 0 ? 0
                                 : -static_cast<int64_t>(magnitude - 1) - 1)
               : static_cast<int64_t>(magnitude);
  if (value < lo || value > hi) return std::nullopt;
  return value;
}

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_UTIL_PARSE_INT_H_
