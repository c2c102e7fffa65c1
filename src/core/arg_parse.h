// Checked numeric flag parsing shared by tools/ and bench/ front ends.
//
// The historical atoi/atof parsing accepted garbage silently: "--jobs=abc"
// became 0 (hardware default), "--survey=-5" wrapped to a huge size_t, and
// "--max-crowd=20x" dropped the suffix. These helpers require the value to
// consume the whole string and to fit the target type; on failure the caller
// prints one "invalid value" line and exits with a usage error instead of
// running a survey nobody asked for.
#ifndef MFC_SRC_CORE_ARG_PARSE_H_
#define MFC_SRC_CORE_ARG_PARSE_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace mfc {

// Unsigned decimal, full-string, no leading sign (rejects "-1" outright
// rather than wrapping). Empty strings and trailing garbage fail.
inline bool ParseU64Value(const std::string& text, uint64_t* out) {
  if (text.empty() || text[0] == '-' || text[0] == '+') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  unsigned long long v = strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

inline bool ParseSizeValue(const std::string& text, size_t* out) {
  uint64_t v = 0;
  if (!ParseU64Value(text, &v) || v > static_cast<uint64_t>(SIZE_MAX)) {
    return false;
  }
  *out = static_cast<size_t>(v);
  return true;
}

// Finite double, full-string (accepts the usual strtod forms incl. negative
// values; callers wanting non-negative check the result). strtod also reads
// "nan" and "inf" without setting errno; both are rejected here, since a NaN
// slips past every range check a caller makes.
inline bool ParseDoubleValue(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  double v = strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0' || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// Flag-oriented wrappers: parse or complain (naming the flag and the exact
// rejected text) and report failure for the caller to bail with usage.
inline bool ParseSizeFlag(const char* flag, const std::string& text, size_t* out) {
  if (!ParseSizeValue(text, out)) {
    fprintf(stderr, "invalid value for %s: '%s' (expected a non-negative integer)\n", flag,
            text.c_str());
    return false;
  }
  return true;
}

inline bool ParseU64Flag(const char* flag, const std::string& text, uint64_t* out) {
  if (!ParseU64Value(text, out)) {
    fprintf(stderr, "invalid value for %s: '%s' (expected a non-negative integer)\n", flag,
            text.c_str());
    return false;
  }
  return true;
}

inline bool ParseDoubleFlag(const char* flag, const std::string& text, double* out) {
  if (!ParseDoubleValue(text, out)) {
    fprintf(stderr, "invalid value for %s: '%s' (expected a finite number)\n", flag,
            text.c_str());
    return false;
  }
  return true;
}

}  // namespace mfc

#endif  // MFC_SRC_CORE_ARG_PARSE_H_
