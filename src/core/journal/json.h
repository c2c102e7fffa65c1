// The journal's scalar codecs: an exact (bit-pattern) double encoding and
// the record checksum. Records are written and read by the field lists in
// journal.cc; strings are quoted by JsonAppendQuoted
// (src/telemetry/json_quote.h). Doubles that must round-trip exactly
// (simulated times, metric values) never travel as JSON numbers; they are
// encoded as "x%016x" bit patterns so a journal replay folds bit-identically.
#ifndef MFC_SRC_CORE_JOURNAL_JSON_H_
#define MFC_SRC_CORE_JOURNAL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>

namespace mfc {

// Exact round-trip double encoding: "x" + 16 lowercase hex digits of the
// IEEE-754 bit pattern.
std::string EncodeExactDouble(double v);
bool DecodeExactDouble(std::string_view s, double* out);

// FNV-1a 64-bit hash — the journal's per-record checksum.
uint64_t Fnv1a64(std::string_view bytes);

}  // namespace mfc

#endif  // MFC_SRC_CORE_JOURNAL_JSON_H_
