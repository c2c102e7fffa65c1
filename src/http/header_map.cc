#include "src/http/header_map.h"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace mfc {

bool HeaderNameEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

void HeaderMap::Add(std::string_view name, std::string_view value) {
  entries_.push_back(Entry{std::string(name), std::string(value)});
}

void HeaderMap::Set(std::string_view name, std::string_view value) {
  Remove(name);
  Add(name, value);
}

std::optional<std::string_view> HeaderMap::Get(std::string_view name) const {
  for (const Entry& e : entries_) {
    if (HeaderNameEquals(e.name, name)) {
      return std::string_view(e.value);
    }
  }
  return std::nullopt;
}

size_t HeaderMap::Remove(std::string_view name) {
  size_t before = entries_.size();
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const Entry& e) { return HeaderNameEquals(e.name, name); }),
                 entries_.end());
  return before - entries_.size();
}

std::optional<uint64_t> HeaderMap::ContentLength() const {
  std::optional<uint64_t> length;
  for (const Entry& e : entries_) {
    if (!HeaderNameEquals(e.name, "Content-Length")) {
      continue;
    }
    uint64_t n = 0;
    const char* end = e.value.data() + e.value.size();
    auto [ptr, ec] = std::from_chars(e.value.data(), end, n);
    if (ec != std::errc() || ptr != end || (length.has_value() && *length != n)) {
      return std::nullopt;
    }
    length = n;
  }
  return length;
}

}  // namespace mfc
