#include "src/server/web_server.h"

#include <gtest/gtest.h>

#include <vector>

#include "src/telemetry/metrics.h"

namespace mfc {
namespace {

// Transport that delivers instantly and records what was sent.
struct SentRecord {
  HttpStatus status = HttpStatus::kOk;
  double bytes = 0.0;
  bool responded = false;
  SimTime at = 0.0;
};

ResponseTransport Record(EventLoop& loop, SentRecord* out) {
  return [&loop, out](HttpStatus status, double bytes, std::function<void()> on_sent) {
    out->status = status;
    out->bytes = bytes;
    out->responded = true;
    out->at = loop.Now();
    if (on_sent) {
      on_sent();
    }
  };
}

ContentStore SmallSite() {
  ContentStore store;
  WebObject index;
  index.path = "/";
  index.content_class = ContentClass::kText;
  index.body = "<html><a href=\"/big.bin\">big</a></html>";
  index.size_bytes = index.body.size();
  store.Add(index);

  WebObject big;
  big.path = "/big.bin";
  big.content_class = ContentClass::kBinary;
  big.size_bytes = 200 * 1024;
  store.Add(big);

  WebObject query;
  query.path = "/cgi/q.php";
  query.content_class = ContentClass::kQuery;
  query.dynamic = true;
  query.unique_per_query = true;
  query.size_bytes = 2048;
  query.db_rows = 5000;
  store.Add(query);
  return store;
}

HttpRequest Get(const std::string& target) {
  HttpRequest req;
  req.method = HttpMethod::kGet;
  req.target = target;
  req.headers.Set("Host", "t");
  return req;
}

HttpRequest Head(const std::string& target) {
  HttpRequest req = Get(target);
  req.method = HttpMethod::kHead;
  return req;
}

class WebServerTest : public ::testing::Test {
 protected:
  WebServerTest() : content_(SmallSite()) {}

  WebServerConfig DefaultConfig() {
    WebServerConfig config;
    config.cpu_cores = 1;
    config.request_parse_cpu_s = 1e-3;
    config.head_cpu_s = 1e-3;
    config.cgi_cpu_s = 1e-3;
    config.db.base_query_cpu_s = 1e-3;
    config.db.per_row_cpu_s = 1e-5;  // 5000 rows -> 50 ms
    config.db.disk_miss_fraction = 0.0;
    return config;
  }

  EventLoop loop_;
  ContentStore content_;
};

TEST_F(WebServerTest, HeadOfBasePageSucceedsWithHeaderOnlyBytes) {
  WebServer server(loop_, DefaultConfig(), &content_);
  SentRecord rec;
  server.OnRequest(Head("/"), true, Record(loop_, &rec));
  loop_.RunUntilIdle();
  ASSERT_TRUE(rec.responded);
  EXPECT_EQ(rec.status, HttpStatus::kOk);
  EXPECT_DOUBLE_EQ(rec.bytes, DefaultConfig().response_header_bytes);
  EXPECT_NEAR(rec.at, 2e-3, 1e-9);  // parse + head CPU
}

TEST_F(WebServerTest, UnknownPathGets404) {
  WebServer server(loop_, DefaultConfig(), &content_);
  SentRecord rec;
  server.OnRequest(Get("/missing.html"), true, Record(loop_, &rec));
  loop_.RunUntilIdle();
  EXPECT_EQ(rec.status, HttpStatus::kNotFound);
}

TEST_F(WebServerTest, StaticMissReadsDiskThenCacheHitIsFaster) {
  WebServer server(loop_, DefaultConfig(), &content_);
  SentRecord first;
  server.OnRequest(Get("/big.bin"), true, Record(loop_, &first));
  loop_.RunUntilIdle();
  SimTime first_latency = first.at;
  EXPECT_GT(first_latency, DefaultConfig().disk_seek_s);  // paid the disk seek
  EXPECT_DOUBLE_EQ(first.bytes, DefaultConfig().response_header_bytes + 200 * 1024);

  SimTime start = loop_.Now();
  SentRecord second;
  server.OnRequest(Get("/big.bin"), true, Record(loop_, &second));
  loop_.RunUntilIdle();
  EXPECT_LT(second.at - start, first_latency);  // no disk this time
  EXPECT_TRUE(server.PageCache().Contains("/big.bin"));
}

TEST_F(WebServerTest, DynamicQueryRunsThroughDatabase) {
  WebServer server(loop_, DefaultConfig(), &content_);
  SentRecord rec;
  server.OnRequest(Get("/cgi/q.php?id=1"), true, Record(loop_, &rec));
  loop_.RunUntilIdle();
  ASSERT_TRUE(rec.responded);
  EXPECT_EQ(rec.status, HttpStatus::kOk);
  EXPECT_DOUBLE_EQ(rec.bytes, DefaultConfig().response_header_bytes + 2048);
  EXPECT_GT(rec.at, 0.05);  // paid the 5000-row scan
  EXPECT_EQ(server.Db().ExecutedQueries(), 1u);
}

TEST_F(WebServerTest, UniquePerQueryKeysNeverHitCache) {
  WebServer server(loop_, DefaultConfig(), &content_);
  SentRecord a;
  SentRecord b;
  server.OnRequest(Get("/cgi/q.php?id=1"), true, Record(loop_, &a));
  loop_.RunUntilIdle();
  SimTime start = loop_.Now();
  server.OnRequest(Get("/cgi/q.php?id=2"), true, Record(loop_, &b));
  loop_.RunUntilIdle();
  EXPECT_GT(b.at - start, 0.05);  // different key, full scan again
}

TEST_F(WebServerTest, SameQueryStringHitsQueryCache) {
  WebServer server(loop_, DefaultConfig(), &content_);
  SentRecord a;
  SentRecord b;
  server.OnRequest(Get("/cgi/q.php?id=1"), true, Record(loop_, &a));
  loop_.RunUntilIdle();
  SimTime start = loop_.Now();
  server.OnRequest(Get("/cgi/q.php?id=1"), true, Record(loop_, &b));
  loop_.RunUntilIdle();
  EXPECT_LT(b.at - start, 0.02);
}

TEST_F(WebServerTest, CgiModelNoneRejectsQueries) {
  WebServerConfig config = DefaultConfig();
  config.cgi_model = CgiModel::kNone;
  WebServer server(loop_, config, &content_);
  SentRecord rec;
  server.OnRequest(Get("/cgi/q.php?id=1"), true, Record(loop_, &rec));
  loop_.RunUntilIdle();
  EXPECT_EQ(rec.status, HttpStatus::kNotFound);
}

TEST_F(WebServerTest, FastCgiGrowsMemoryDuringRequests) {
  WebServerConfig config = DefaultConfig();
  config.cgi_model = CgiModel::kFastCgi;
  config.cgi_process_memory_bytes = 24e6;
  WebServer server(loop_, config, &content_);
  double base_memory = server.MemoryUsedBytes();
  std::vector<SentRecord> recs(20);
  for (int i = 0; i < 20; ++i) {
    server.OnRequest(Get("/cgi/q.php?id=" + std::to_string(i)), true,
                     Record(loop_, &recs[static_cast<size_t>(i)]));
  }
  // Parse CPU for 20 requests takes ~20 ms; by 0.2 s every request has been
  // admitted to a CGI process but none has cleared its 50 ms DB scan (shared
  // 1-core CPU: the scans alone are 1 s of work).
  loop_.RunUntil(0.2);
  EXPECT_NEAR(server.MemoryUsedBytes(), base_memory + 20 * 24e6, 1.0);
  EXPECT_EQ(server.ActiveCgiProcesses(), 20u);
  loop_.RunUntilIdle();
  EXPECT_NEAR(server.MemoryUsedBytes(), base_memory, 1.0);
  EXPECT_EQ(server.ActiveCgiProcesses(), 0u);
}

TEST_F(WebServerTest, FastCgiMemoryPressureSlowsResponses) {
  WebServerConfig config = DefaultConfig();
  config.cgi_model = CgiModel::kFastCgi;
  config.cgi_process_memory_bytes = 24e6;
  config.ram_bytes = 500e6;
  config.base_memory_bytes = 200e6;
  config.swap_penalty = 12.0;
  WebServer fat(loop_, config, &content_);

  // One request alone vs 30 concurrent (30*24 MB > 300 MB headroom).
  SentRecord solo;
  fat.OnRequest(Get("/cgi/q.php?id=solo"), true, Record(loop_, &solo));
  loop_.RunUntilIdle();
  SimTime solo_latency = solo.at;

  SimTime start = loop_.Now();
  std::vector<SentRecord> recs(30);
  for (int i = 0; i < 30; ++i) {
    fat.OnRequest(Get("/cgi/q.php?id=" + std::to_string(i)), true,
                  Record(loop_, &recs[static_cast<size_t>(i)]));
  }
  loop_.RunUntilIdle();
  SimTime worst = 0.0;
  for (const auto& rec : recs) {
    worst = std::max(worst, rec.at - start);
  }
  // 30x concurrency alone explains 30x; swap pressure must push it beyond.
  EXPECT_GT(worst, 35.0 * solo_latency);
}

TEST_F(WebServerTest, MongrelMemoryStaysFlat) {
  WebServerConfig config = DefaultConfig();
  config.cgi_model = CgiModel::kMongrel;
  config.mongrel_pool = 4;
  WebServer server(loop_, config, &content_);
  double base_memory = server.MemoryUsedBytes();
  std::vector<SentRecord> recs(20);
  for (int i = 0; i < 20; ++i) {
    server.OnRequest(Get("/cgi/q.php?id=" + std::to_string(i)), true,
                     Record(loop_, &recs[static_cast<size_t>(i)]));
  }
  loop_.RunUntil(0.1);  // parsed and admitted up to the pool bound
  EXPECT_NEAR(server.MemoryUsedBytes(), base_memory, 1.0);
  EXPECT_EQ(server.ActiveCgiProcesses(), 4u);  // pool bound
  loop_.RunUntilIdle();
  for (const auto& rec : recs) {
    EXPECT_TRUE(rec.responded);
  }
}

TEST_F(WebServerTest, ThreadPoolExhaustionQueuesRequests) {
  WebServerConfig config = DefaultConfig();
  config.worker_threads = 2;
  WebServer server(loop_, config, &content_);
  std::vector<SentRecord> recs(5);
  for (int i = 0; i < 5; ++i) {
    server.OnRequest(Head("/"), true, Record(loop_, &recs[static_cast<size_t>(i)]));
  }
  EXPECT_EQ(server.ActiveThreads(), 2u);
  EXPECT_EQ(server.AcceptQueueDepth(), 3u);
  loop_.RunUntilIdle();
  for (const auto& rec : recs) {
    EXPECT_TRUE(rec.responded);
    EXPECT_EQ(rec.status, HttpStatus::kOk);
  }
  EXPECT_EQ(server.ActiveThreads(), 0u);
}

TEST_F(WebServerTest, BacklogOverflowGets503WithoutThread) {
  WebServerConfig config = DefaultConfig();
  config.worker_threads = 1;
  config.accept_backlog = 2;
  WebServer server(loop_, config, &content_);
  std::vector<SentRecord> recs(5);
  for (int i = 0; i < 5; ++i) {
    server.OnRequest(Head("/"), true, Record(loop_, &recs[static_cast<size_t>(i)]));
  }
  // 1 in service + 2 queued; 2 rejected immediately.
  EXPECT_EQ(server.Rejected503(), 2u);
  EXPECT_TRUE(recs[3].responded);
  EXPECT_EQ(recs[3].status, HttpStatus::kServiceUnavailable);
  loop_.RunUntilIdle();
  EXPECT_EQ(recs[0].status, HttpStatus::kOk);
}

// Registry entries appear with their first value: a stage's span.* counters
// at its first finished request, server.rejected_503 at the first 503.
// SetTelemetry moves every later write, in-flight requests' included, to the
// newly attached registry.
TEST_F(WebServerTest, MetricEntriesAppearWithTheirFirstValue) {
  WebServerConfig config = DefaultConfig();
  config.worker_threads = 1;
  config.accept_backlog = 1;
  WebServer server(loop_, config, &content_);
  MetricsRegistry first;
  Telemetry telemetry;
  telemetry.metrics = &first;
  telemetry.stage = "Base";
  server.SetTelemetry(&telemetry);
  std::vector<SentRecord> recs(4);
  server.OnRequest(Head("/"), true, Record(loop_, &recs[0]));
  server.OnRequest(Head("/"), true, Record(loop_, &recs[1]));  // queued
  EXPECT_TRUE(first.Empty());
  telemetry.stage = "SmallQuery";
  server.OnRequest(Head("/"), true, Record(loop_, &recs[2]));  // 503, done at once
  EXPECT_EQ(first.Counter("server.rejected_503"), 1.0);
  EXPECT_EQ(first.Counter("span.SmallQuery.count"), 1.0);
  EXPECT_EQ(first.Counters().count("span.Base.count"), 0u);
  loop_.RunUntilIdle();
  EXPECT_EQ(first.Counter("span.Base.count"), 2.0);
  EXPECT_EQ(first.Counter("server.requests_total"), 3.0);

  MetricsRegistry second;
  server.OnRequest(Head("/"), true, Record(loop_, &recs[3]));  // in flight
  const MetricsRegistry first_before = first;
  telemetry.metrics = &second;
  server.SetTelemetry(&telemetry);
  loop_.RunUntilIdle();
  EXPECT_TRUE(first == first_before);
  EXPECT_EQ(second.Counter("span.SmallQuery.count"), 1.0);
  EXPECT_EQ(second.Counter("server.requests_total"), 1.0);
  EXPECT_EQ(second.Counters().count("server.rejected_503"), 0u);
  EXPECT_EQ(second.Counters().count("span.Base.count"), 0u);
}

TEST_F(WebServerTest, AccessLogRecordsEverything) {
  WebServer server(loop_, DefaultConfig(), &content_);
  SentRecord a;
  SentRecord b;
  server.OnRequest(Head("/"), true, Record(loop_, &a));
  server.OnRequest(Get("/missing"), false, Record(loop_, &b));
  loop_.RunUntilIdle();
  ASSERT_EQ(server.AccessLog().size(), 2u);
  EXPECT_TRUE(server.AccessLog()[0].is_mfc);
  EXPECT_FALSE(server.AccessLog()[1].is_mfc);
  EXPECT_EQ(server.AccessLog()[0].status, HttpStatus::kOk);
  EXPECT_EQ(server.AccessLog()[1].status, HttpStatus::kNotFound);
}

TEST_F(WebServerTest, DedicatedDbTierKeepsFrontEndResponsive) {
  // Same workload against a shared-CPU box and a two-tier deployment: HEAD
  // latency under query load should be much better with the dedicated tier.
  auto run = [&](WebServerConfig config) {
    EventLoop loop;
    WebServer server(loop, config, &content_);
    std::vector<SentRecord> queries(10);
    for (int i = 0; i < 10; ++i) {
      server.OnRequest(Get("/cgi/q.php?id=" + std::to_string(i)), true,
                       Record(loop, &queries[static_cast<size_t>(i)]));
    }
    // Let the queries reach their DB scans, then probe the front end.
    loop.RunUntil(0.1);
    SimTime start = loop.Now();
    SentRecord head;
    server.OnRequest(Head("/"), true, Record(loop, &head));
    loop.RunUntilIdle();
    return head.at - start;
  };
  WebServerConfig shared = DefaultConfig();
  WebServerConfig tiered = DefaultConfig();
  tiered.db_dedicated_cores = 2;
  EXPECT_LT(run(tiered), run(shared) / 2.0);
}

TEST_F(WebServerTest, PerConnectionOverheadGrowsWithConcurrency) {
  WebServerConfig config = DefaultConfig();
  config.per_connection_cpu_s = 1e-3;
  WebServer server(loop_, config, &content_);
  SentRecord solo;
  server.OnRequest(Head("/"), true, Record(loop_, &solo));
  loop_.RunUntilIdle();
  SimTime solo_latency = solo.at;

  SimTime start = loop_.Now();
  std::vector<SentRecord> recs(20);
  for (int i = 0; i < 20; ++i) {
    server.OnRequest(Head("/"), true, Record(loop_, &recs[static_cast<size_t>(i)]));
  }
  loop_.RunUntilIdle();
  SimTime worst = 0.0;
  for (const auto& rec : recs) {
    worst = std::max(worst, rec.at - start);
  }
  // Superlinear: 20 connections at ~20x the work each.
  EXPECT_GT(worst, 50.0 * solo_latency);
}

}  // namespace
}  // namespace mfc
