// Case-insensitive HTTP header collection preserving insertion order.
#ifndef MFC_SRC_HTTP_HEADER_MAP_H_
#define MFC_SRC_HTTP_HEADER_MAP_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace mfc {

class HeaderMap {
 public:
  struct Entry {
    std::string name;
    std::string value;
  };

  // Appends a header (duplicates allowed, like the wire format).
  void Add(std::string_view name, std::string_view value);

  // Replaces all headers with |name| by a single entry.
  void Set(std::string_view name, std::string_view value);

  // First value for |name| (case-insensitive), if present.
  std::optional<std::string_view> Get(std::string_view name) const;

  bool Has(std::string_view name) const { return Get(name).has_value(); }

  // Removes every header with |name|; returns how many were removed.
  size_t Remove(std::string_view name);

  // Content-Length parsed as an integer, if present and every value is
  // well-formed and equal. Values that disagree are invalid framing (RFC 9112
  // §6.3), so they yield nothing, as a malformed one does.
  std::optional<uint64_t> ContentLength() const;

  const std::vector<Entry>& Entries() const { return entries_; }
  size_t Size() const { return entries_.size(); }
  bool Empty() const { return entries_.empty(); }

 private:
  std::vector<Entry> entries_;
};

// ASCII case-insensitive comparison, the HTTP header name rule.
bool HeaderNameEquals(std::string_view a, std::string_view b);

}  // namespace mfc

#endif  // MFC_SRC_HTTP_HEADER_MAP_H_
