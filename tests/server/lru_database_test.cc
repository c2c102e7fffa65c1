#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/server/database.h"
#include "src/server/lru_cache.h"
#include "src/server/resources.h"

namespace mfc {
namespace {

TEST(LruByteCacheTest, MissThenHit) {
  LruByteCache cache(100.0);
  EXPECT_FALSE(cache.Touch("a"));
  cache.Insert("a", 40.0);
  EXPECT_TRUE(cache.Touch("a"));
  EXPECT_EQ(cache.Hits(), 1u);
  EXPECT_EQ(cache.Misses(), 1u);
  EXPECT_DOUBLE_EQ(cache.HitRate(), 0.5);
}

TEST(LruByteCacheTest, EvictsLeastRecentlyUsed) {
  LruByteCache cache(100.0);
  cache.Insert("a", 40.0);
  cache.Insert("b", 40.0);
  cache.Touch("a");          // a is now MRU
  cache.Insert("c", 40.0);   // evicts b
  EXPECT_TRUE(cache.Contains("a"));
  EXPECT_FALSE(cache.Contains("b"));
  EXPECT_TRUE(cache.Contains("c"));
  EXPECT_LE(cache.UsedBytes(), 100.0);
}

TEST(LruByteCacheTest, OversizedEntryNotCached) {
  LruByteCache cache(100.0);
  cache.Insert("huge", 200.0);
  EXPECT_FALSE(cache.Contains("huge"));
  EXPECT_DOUBLE_EQ(cache.UsedBytes(), 0.0);
}

TEST(LruByteCacheTest, ReinsertUpdatesSize) {
  LruByteCache cache(100.0);
  cache.Insert("a", 30.0);
  cache.Insert("a", 60.0);
  EXPECT_DOUBLE_EQ(cache.UsedBytes(), 60.0);
  EXPECT_EQ(cache.EntryCount(), 1u);
}

TEST(LruByteCacheTest, ClearEmpties) {
  LruByteCache cache(100.0);
  cache.Insert("a", 10.0);
  cache.Clear();
  EXPECT_EQ(cache.EntryCount(), 0u);
  EXPECT_FALSE(cache.Contains("a"));
}

TEST(LruByteCacheTest, ManyInsertionsRespectCapacity) {
  LruByteCache cache(1000.0);
  for (int i = 0; i < 500; ++i) {
    cache.Insert("key" + std::to_string(i), 37.0);
    EXPECT_LE(cache.UsedBytes(), 1000.0);
  }
}

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : cpu_(loop_, 1), disk_(loop_, 0.005, 50e6) {}

  Database MakeDb(DatabaseConfig config) { return Database(loop_, config, cpu_, disk_); }

  EventLoop loop_;
  CpuResource cpu_;
  DiskResource disk_;
};

TEST_F(DatabaseTest, CacheMissPaysPerRowCost) {
  DatabaseConfig config;
  config.base_query_cpu_s = 0.001;
  config.per_row_cpu_s = 1e-5;
  config.disk_miss_fraction = 0.0;
  Database db = MakeDb(config);
  SimTime done = 0.0;
  db.Execute("q1", 10000, 500.0, [&] { done = loop_.Now(); });
  loop_.RunUntilIdle();
  EXPECT_NEAR(done, 0.001 + 0.1, 1e-6);
}

TEST_F(DatabaseTest, CacheHitIsCheap) {
  DatabaseConfig config;
  config.base_query_cpu_s = 0.001;
  config.per_row_cpu_s = 1e-5;
  config.disk_miss_fraction = 0.0;
  Database db = MakeDb(config);
  db.Execute("q1", 10000, 500.0, [] {});
  loop_.RunUntilIdle();
  SimTime start = loop_.Now();
  SimTime done = 0.0;
  db.Execute("q1", 10000, 500.0, [&] { done = loop_.Now(); });
  loop_.RunUntilIdle();
  EXPECT_NEAR(done - start, 0.001, 1e-6);
  EXPECT_EQ(db.QueryCache().Hits(), 1u);
}

TEST_F(DatabaseTest, DistinctKeysDoNotShareCache) {
  DatabaseConfig config;
  config.per_row_cpu_s = 1e-5;
  config.disk_miss_fraction = 0.0;
  Database db = MakeDb(config);
  db.Execute("q1", 1000, 100.0, [] {});
  loop_.RunUntilIdle();
  SimTime start = loop_.Now();
  SimTime done = 0.0;
  db.Execute("q2", 1000, 100.0, [&] { done = loop_.Now(); });
  loop_.RunUntilIdle();
  EXPECT_GT(done - start, 0.009);  // paid the scan again
}

TEST_F(DatabaseTest, CacheDisabledAlwaysScans) {
  DatabaseConfig config;
  config.query_cache_bytes = 0.0;
  config.per_row_cpu_s = 1e-5;
  config.disk_miss_fraction = 0.0;
  Database db = MakeDb(config);
  db.Execute("q1", 1000, 100.0, [] {});
  loop_.RunUntilIdle();
  SimTime start = loop_.Now();
  SimTime done = 0.0;
  db.Execute("q1", 1000, 100.0, [&] { done = loop_.Now(); });
  loop_.RunUntilIdle();
  EXPECT_GT(done - start, 0.009);
}

TEST_F(DatabaseTest, InvalidateCacheForcesRescan) {
  DatabaseConfig config;
  config.per_row_cpu_s = 1e-5;
  config.disk_miss_fraction = 0.0;
  Database db = MakeDb(config);
  db.Execute("q1", 1000, 100.0, [] {});
  loop_.RunUntilIdle();
  db.InvalidateCache();
  SimTime start = loop_.Now();
  SimTime done = 0.0;
  db.Execute("q1", 1000, 100.0, [&] { done = loop_.Now(); });
  loop_.RunUntilIdle();
  EXPECT_GT(done - start, 0.009);
}

TEST_F(DatabaseTest, ConnectionPoolSerializesOverflow) {
  DatabaseConfig config;
  config.connection_pool = 2;
  config.base_query_cpu_s = 0.01;
  config.per_row_cpu_s = 0.0;
  config.query_cache_bytes = 0.0;
  config.disk_miss_fraction = 0.0;
  Database db = MakeDb(config);
  int done = 0;
  for (int i = 0; i < 6; ++i) {
    db.Execute("q" + std::to_string(i), 0, 10.0, [&] { ++done; });
  }
  EXPECT_EQ(db.ActiveConnections(), 2u);
  EXPECT_EQ(db.QueuedQueries(), 4u);
  loop_.RunUntilIdle();
  EXPECT_EQ(done, 6);
  EXPECT_EQ(db.ActiveConnections(), 0u);
  EXPECT_EQ(db.ExecutedQueries(), 6u);
}

TEST_F(DatabaseTest, QueryOutlivesTheCallersKey) {
  DatabaseConfig config;
  config.connection_pool = 1;
  config.per_row_cpu_s = 1e-5;
  config.disk_miss_fraction = 0.0;
  Database db = MakeDb(config);
  // Longer than any inline string buffer, so the key lives on the heap and
  // a query that kept a reference to it would read freed memory.
  const std::string key = "/search?q=" + std::string(48, 'k');
  db.Execute("busy", 1000, 100.0, [] {});
  {
    std::string caller_key = key;
    db.Execute(caller_key, 1000, 100.0, [] {});
  }
  // The keyed query waits for the busy one; its cache lookup and insert
  // both run after the caller's string is gone.
  EXPECT_EQ(db.QueuedQueries(), 1u);
  loop_.RunUntilIdle();
  EXPECT_TRUE(db.QueryCache().Contains(key));
  uint64_t hits = db.QueryCache().Hits();
  SimTime start = loop_.Now();
  SimTime done = 0.0;
  db.Execute(key, 1000, 100.0, [&] { done = loop_.Now(); });
  loop_.RunUntilIdle();
  EXPECT_EQ(db.QueryCache().Hits(), hits + 1);
  EXPECT_NEAR(done - start, config.base_query_cpu_s, 1e-6);
}

TEST_F(DatabaseTest, OverflowFiresEachDoneOnceAndReusesRecords) {
  DatabaseConfig config;
  config.connection_pool = 2;
  config.base_query_cpu_s = 0.01;
  config.per_row_cpu_s = 0.0;
  config.query_cache_bytes = 0.0;
  config.disk_miss_fraction = 0.0;
  Database db = MakeDb(config);
  std::vector<int> fired(12, 0);
  for (int i = 0; i < 6; ++i) {
    db.Execute("q" + std::to_string(i), 0, 10.0, [&fired, i] { ++fired[i]; });
  }
  // Running and waiting queries each hold a record.
  EXPECT_EQ(db.ActiveConnections(), 2u);
  EXPECT_EQ(db.QueuedQueries(), 4u);
  EXPECT_EQ(db.QueryRecords(), 6u);
  loop_.RunUntilIdle();
  // A second overflow, each done issuing one more query from inside its
  // callback, runs on the six released records.
  for (int i = 6; i < 9; ++i) {
    db.Execute("q" + std::to_string(i), 0, 10.0, [&db, &fired, i] {
      ++fired[i];
      db.Execute("q" + std::to_string(i + 3), 0, 10.0, [&fired, i] { ++fired[i + 3]; });
    });
  }
  loop_.RunUntilIdle();
  EXPECT_EQ(fired, std::vector<int>(12, 1));
  EXPECT_EQ(db.QueryRecords(), 6u);
  EXPECT_EQ(db.ActiveConnections(), 0u);
  EXPECT_EQ(db.QueuedQueries(), 0u);
  EXPECT_EQ(db.ExecutedQueries(), 12u);
}

TEST_F(DatabaseTest, DiskMissFractionTouchesDisk) {
  DatabaseConfig config;
  config.per_row_cpu_s = 0.0;
  config.base_query_cpu_s = 0.0001;
  config.disk_miss_fraction = 0.5;
  config.row_bytes = 100.0;
  Database db = MakeDb(config);
  SimTime done = 0.0;
  db.Execute("q1", 10000, 100.0, [&] { done = loop_.Now(); });
  loop_.RunUntilIdle();
  // Disk: seek 5 ms + 0.5*10000*100 B / 50 MB/s = 10 ms -> 15 ms, plus CPU.
  EXPECT_GT(done, 0.014);
  EXPECT_GT(disk_.BusySeconds(), 0.014);
}

}  // namespace
}  // namespace mfc
