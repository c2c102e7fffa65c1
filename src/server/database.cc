#include "src/server/database.h"

#include <cassert>
#include <utility>

namespace mfc {

Database::Database(EventLoop& loop, const DatabaseConfig& config, CpuResource& cpu,
                   DiskResource& disk)
    : loop_(loop), config_(config), cpu_(cpu), disk_(disk), cache_(config.query_cache_bytes) {}

void Database::Execute(const std::string& key, uint64_t rows, double result_bytes,
                       std::function<void()> done) {
  QueryHandle handle = queries_.Acquire();
  Query& query = Record(handle);
  query.key = key;
  query.rows = rows;
  query.result_bytes = result_bytes;
  query.done = std::move(done);
  if (active_ < config_.connection_pool) {
    Admit(handle);
  } else {
    waiting_.push_back(handle);
  }
}

Database::Query& Database::Record(QueryHandle handle) {
  Query* query = queries_.Find(handle);
  assert(query != nullptr && "query record used after its query finished");
  return *query;
}

void Database::Admit(QueryHandle handle) {
  ++active_;
  ++executed_;
  const Query& query = Record(handle);
  bool cache_hit = config_.query_cache_bytes > 0.0 && cache_.Touch(query.key);
  if (cache_hit) {
    // Result served straight from the query cache: dispatch CPU only.
    cpu_.Submit(config_.base_query_cpu_s, [this, handle] { Finish(handle); });
    return;
  }
  double disk_bytes =
      config_.disk_miss_fraction * config_.row_bytes * static_cast<double>(query.rows);
  // Disk scan for cold rows runs first (buffer-pool misses), then the CPU
  // aggregation pass.
  if (disk_bytes > 0.0) {
    disk_.Submit(disk_bytes, [this, handle] { Scan(handle); });
  } else {
    Scan(handle);
  }
}

void Database::Scan(QueryHandle handle) {
  double scan_cpu = config_.base_query_cpu_s +
                    config_.per_row_cpu_s * static_cast<double>(Record(handle).rows);
  cpu_.Submit(scan_cpu, [this, handle] {
    if (config_.query_cache_bytes > 0.0) {
      const Query& query = Record(handle);
      cache_.Insert(query.key, query.result_bytes);
    }
    Finish(handle);
  });
}

void Database::Finish(QueryHandle handle) {
  // |done| may start the next query, which can take this record.
  std::function<void()> done = std::move(Record(handle).done);
  queries_.Release(handle);
  if (done) {
    done();
  }
  --active_;
  if (!waiting_.empty() && active_ < config_.connection_pool) {
    QueryHandle next = waiting_.front();
    waiting_.pop_front();
    Admit(next);
  }
}

}  // namespace mfc
