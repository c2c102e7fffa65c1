// Back-end database model.
//
// A query identified by its normalized text ("key") touches |rows| rows.
// Query-cache hits cost only the base dispatch CPU; misses pay per-row CPU
// plus a disk scan for the portion of the table not resident in the buffer
// pool, then populate the cache. A bounded connection pool serializes excess
// queries — the back-end contention the paper's Small Query stage exists to
// expose.
#ifndef MFC_SRC_SERVER_DATABASE_H_
#define MFC_SRC_SERVER_DATABASE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "src/server/lru_cache.h"
#include "src/server/resources.h"
#include "src/sim/event_loop.h"
#include "src/sim/record_pool.h"

namespace mfc {

struct DatabaseConfig {
  size_t connection_pool = 32;
  // CPU cost of parsing/dispatching any query.
  double base_query_cpu_s = 0.0015;
  // CPU per row scanned/aggregated on a cache miss.
  double per_row_cpu_s = 4e-6;
  double row_bytes = 100.0;
  // MySQL-style result cache; 0 disables caching.
  double query_cache_bytes = 16e6;
  // Fraction of scanned rows that miss the buffer pool and hit the disk.
  double disk_miss_fraction = 0.05;
};

class Database {
 public:
  Database(EventLoop& loop, const DatabaseConfig& config, CpuResource& cpu, DiskResource& disk);
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // Runs the query; |done| fires when the result is ready to serialize. The
  // key is copied: the caller's string may go before the query completes.
  void Execute(const std::string& key, uint64_t rows, double result_bytes,
               std::function<void()> done);

  size_t ActiveConnections() const { return active_; }
  size_t QueuedQueries() const { return waiting_.size(); }
  const LruByteCache& QueryCache() const { return cache_; }
  uint64_t ExecutedQueries() const { return executed_; }
  // Pooled query records, live or free: the most queries ever in flight
  // (running or waiting) at once.
  size_t QueryRecords() const { return queries_.Capacity(); }

  // Flushes the query cache (table modification, in MySQL semantics).
  void InvalidateCache() { cache_.Clear(); }

 private:
  // One query, pooled from Execute until |done| fires. Each disk and CPU
  // step captures {this, handle}, and a released record keeps its key's
  // buffer for the next query.
  struct Query {
    std::string key;
    uint64_t rows = 0;
    double result_bytes = 0.0;
    std::function<void()> done;
  };
  using QueryHandle = RecordPool<Query>::Handle;

  // The live record |handle| names; every step runs exactly once.
  Query& Record(QueryHandle handle);
  void Admit(QueryHandle handle);
  void Scan(QueryHandle handle);
  void Finish(QueryHandle handle);

  EventLoop& loop_;
  DatabaseConfig config_;
  CpuResource& cpu_;
  DiskResource& disk_;
  LruByteCache cache_;
  size_t active_ = 0;
  uint64_t executed_ = 0;
  RecordPool<Query> queries_;
  std::deque<QueryHandle> waiting_;
};

}  // namespace mfc

#endif  // MFC_SRC_SERVER_DATABASE_H_
