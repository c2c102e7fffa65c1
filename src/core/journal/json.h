// Minimal JSON support for the experiment journal (src/core/journal): a
// strict recursive-descent parser into a value tree, writer helpers, an
// exact (bit-pattern) double encoding, and the journal's record checksum.
//
// This is deliberately not a general JSON library — it implements exactly
// what the journal's own records need: UTF-8 passthrough strings with the
// escapes our writer emits, integer and plain-double numbers, arrays and
// objects. Doubles that must round-trip exactly (simulated times, metric
// values) never travel as JSON numbers; they are encoded as "x%016x" bit
// patterns via EncodeExactDouble so a journal replay folds bit-identically.
#ifndef MFC_SRC_CORE_JOURNAL_JSON_H_
#define MFC_SRC_CORE_JOURNAL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mfc {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  // For kNumber: the raw token (so 64-bit integers survive); for kString:
  // the decoded payload.
  std::string scalar;
  std::vector<JsonValue> items;                           // kArray
  std::vector<std::pair<std::string, JsonValue>> fields;  // kObject, file order

  // Object field lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  bool IsString() const { return kind == Kind::kString; }

  // Numeric accessors parse the raw token; |ok| (optional) reports failure.
  uint64_t U64(bool* ok = nullptr) const;
  double Double(bool* ok = nullptr) const;
  bool Bool(bool* ok = nullptr) const;
};

// Parses exactly one JSON document (no trailing garbage). Returns false and
// fills |error| on any syntax violation.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

// Appends |s| as a quoted, escaped JSON string.
void JsonAppendQuoted(std::string& out, std::string_view s);

// Exact round-trip double encoding: "x" + 16 lowercase hex digits of the
// IEEE-754 bit pattern.
std::string EncodeExactDouble(double v);
bool DecodeExactDouble(std::string_view s, double* out);

// FNV-1a 64-bit hash — the journal's per-record checksum.
uint64_t Fnv1a64(std::string_view bytes);

}  // namespace mfc

#endif  // MFC_SRC_CORE_JOURNAL_JSON_H_
