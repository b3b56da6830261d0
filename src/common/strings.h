// Small string helpers shared across modules. Nothing clever: split, join,
// trim, predicates, and printf-style formatting into std::string.

#ifndef HIWAY_COMMON_STRINGS_H_
#define HIWAY_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/result.h"

namespace hiway {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> StrSplit(std::string_view s, char sep);

/// Joins `parts` with `sep` between consecutive elements.
std::string StrJoin(const std::vector<std::string>& parts,
                    std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view StrTrim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Parses a base-10 signed integer; rejects trailing garbage.
Result<int64_t> ParseInt64(std::string_view s);

/// Parses a floating point number; rejects trailing garbage.
Result<double> ParseDouble(std::string_view s);

/// Appends code point `cp` (at most U+10FFFF) to `out` as UTF-8.
void AppendUtf8(uint32_t cp, std::string* out);

/// printf into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// 64-bit FNV-1a hash. Stable across processes and platforms, so content
/// fingerprints and cache keys persisted by one service instance resolve
/// identically after a restart. `seed` chains multi-field hashes.
inline uint64_t Fnv1a64(std::string_view s,
                        uint64_t seed = 14695981039346656037ull) {
  uint64_t h = seed;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Formats a byte count with binary units, e.g. "1.07 GB".
std::string HumanBytes(double bytes);

/// Formats a duration in seconds as "h:mm:ss" (or "m:ss" under an hour).
std::string HumanDuration(double seconds);

}  // namespace hiway

#endif  // HIWAY_COMMON_STRINGS_H_
