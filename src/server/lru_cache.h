// Byte-bounded LRU cache used for both the server page cache (static objects)
// and the database query cache (MySQL query_cache_size in the paper's lab
// setup was 16 MB).
#ifndef MFC_SRC_SERVER_LRU_CACHE_H_
#define MFC_SRC_SERVER_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>

namespace mfc {

class LruByteCache {
 public:
  explicit LruByteCache(double capacity_bytes) : capacity_(capacity_bytes) {}

  // Looks up |key|; a hit promotes it to most-recently-used.
  bool Touch(const std::string& key);

  // Inserts (or refreshes) |key| costing |bytes|, evicting LRU entries as
  // needed. Entries larger than the whole capacity are not cached.
  void Insert(const std::string& key, double bytes);

  bool Contains(const std::string& key) const { return index_.count(key) != 0; }
  void Clear();

  double UsedBytes() const { return used_; }
  size_t EntryCount() const { return index_.size(); }

  uint64_t Hits() const { return hits_; }
  uint64_t Misses() const { return misses_; }
  double HitRate() const;

 private:
  struct Entry {
    std::string key;
    double bytes;
  };

  void EvictUntilFits(double incoming);

  double capacity_;
  double used_ = 0.0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace mfc

#endif  // MFC_SRC_SERVER_LRU_CACHE_H_
