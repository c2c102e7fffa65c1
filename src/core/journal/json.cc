#include "src/core/journal/json.h"

#include <cstdio>
#include <cstring>

namespace mfc {

std::string EncodeExactDouble(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  memcpy(&bits, &v, sizeof(bits));
  char buf[24];
  snprintf(buf, sizeof(buf), "x%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

bool DecodeExactDouble(std::string_view s, double* out) {
  if (s.size() != 17 || s[0] != 'x') {
    return false;
  }
  uint64_t bits = 0;
  for (size_t i = 1; i < 17; ++i) {
    char c = s[i];
    bits <<= 4;
    if (c >= '0' && c <= '9') {
      bits |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      bits |= static_cast<uint64_t>(c - 'a' + 10);
    } else {
      return false;
    }
  }
  memcpy(out, &bits, sizeof(bits));
  return true;
}

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace mfc
