#include <gtest/gtest.h>

#include "src/server/background_traffic.h"
#include "src/server/cluster.h"
#include "src/server/synthetic_server.h"

namespace mfc {
namespace {

HttpRequest Get(const std::string& target) {
  HttpRequest req;
  req.method = HttpMethod::kGet;
  req.target = target;
  return req;
}

TEST(SyntheticServerTest, LinearModelDelaysScaleWithConcurrency) {
  EventLoop loop;
  SyntheticModelServer server(loop, LinearModel(0.010), 0.001, 100.0);
  std::vector<SimTime> done(5, 0.0);
  for (int i = 0; i < 5; ++i) {
    server.OnRequest(Get("/"), true,
                     [&, i](HttpStatus, double, std::function<void()> on_sent) {
                       done[static_cast<size_t>(i)] = loop.Now();
                       on_sent();
                     });
  }
  EXPECT_EQ(server.Concurrent(), 5u);
  loop.RunUntilIdle();
  // Queue-coupled (the paper's instrumented server): simultaneous arrivals
  // all end up delayed by the final queue depth, 0.001 + 0.010 * 5.
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(done[static_cast<size_t>(i)], 0.001 + 0.010 * 5, 1e-9) << i;
  }
  EXPECT_EQ(server.Concurrent(), 0u);
}

TEST(SyntheticServerTest, RecordsArrivals) {
  EventLoop loop;
  SyntheticModelServer server(loop, ConstantModel(0.0));
  server.OnRequest(Get("/"), true, [](HttpStatus, double, std::function<void()> s) { s(); });
  loop.RunUntil(1.0);
  server.OnRequest(Get("/"), true, [](HttpStatus, double, std::function<void()> s) { s(); });
  ASSERT_EQ(server.Arrivals().size(), 2u);
  EXPECT_DOUBLE_EQ(server.Arrivals()[0], 0.0);
  EXPECT_DOUBLE_EQ(server.Arrivals()[1], 1.0);
}

TEST(SyntheticServerTest, ModelShapes) {
  auto linear = LinearModel(0.002);
  EXPECT_DOUBLE_EQ(linear(10), 0.020);
  auto step = StepModel(5, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(step(4), 0.0);
  EXPECT_DOUBLE_EQ(step(5), 1.0);
  auto constant = ConstantModel(0.3);
  EXPECT_DOUBLE_EQ(constant(100), 0.3);
  auto expo = ExponentialModel(0.010, 1.0, 10);
  EXPECT_DOUBLE_EQ(expo(0), 0.0);
  EXPECT_GT(expo(20), expo(10));
  EXPECT_GT(expo(20) - expo(10), expo(10) - expo(0));  // convex
}

ContentStore TinySite() {
  ContentStore store;
  WebObject index;
  index.path = "/";
  index.body = "<html>x</html>";
  index.size_bytes = index.body.size();
  store.Add(index);
  return store;
}

TEST(ClusterTest, SpreadsLoadAcrossReplicas) {
  EventLoop loop;
  WebServerConfig config;
  config.request_parse_cpu_s = 0.01;
  ContentStore content = TinySite();
  ServerCluster cluster(loop, config, 4, &content);
  int responded = 0;
  for (int i = 0; i < 8; ++i) {
    cluster.OnRequest(Get("/"), true,
                      [&](HttpStatus, double, std::function<void()> on_sent) {
                        ++responded;
                        on_sent();
                      });
  }
  // Least-outstanding dispatch: 2 requests per replica.
  for (size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(cluster.Replica(r).AccessLog().size(), 2u);
  }
  loop.RunUntilIdle();
  EXPECT_EQ(responded, 8);
}

TEST(ClusterTest, ClusterIsFasterThanSingleUnderLoad) {
  auto latency = [](size_t replicas) {
    EventLoop loop;
    WebServerConfig config;
    config.cpu_cores = 1;
    config.request_parse_cpu_s = 0.005;
    ContentStore content = TinySite();
    ServerCluster cluster(loop, config, replicas, &content);
    SimTime worst = 0.0;
    for (int i = 0; i < 16; ++i) {
      cluster.OnRequest(Get("/"), true,
                        [&](HttpStatus, double, std::function<void()> on_sent) {
                          worst = std::max(worst, loop.Now());
                          on_sent();
                        });
    }
    loop.RunUntilIdle();
    return worst;
  };
  EXPECT_LT(latency(16), latency(1) / 4.0);
}

TEST(ClusterTest, MergedAccessLogSortedByArrival) {
  EventLoop loop;
  WebServerConfig config;
  ContentStore content = TinySite();
  ServerCluster cluster(loop, config, 2, &content);
  for (int i = 0; i < 6; ++i) {
    loop.ScheduleAt(static_cast<double>(i), [&] {
      cluster.OnRequest(Get("/"), true,
                        [](HttpStatus, double, std::function<void()> s) { s(); });
    });
  }
  loop.RunUntilIdle();
  auto merged = cluster.MergedAccessLog();
  ASSERT_EQ(merged.size(), 6u);
  for (size_t i = 1; i < merged.size(); ++i) {
    EXPECT_LE(merged[i - 1].arrival, merged[i].arrival);
  }
}

TEST(BackgroundTrafficTest, GeneratesRoughlyPoissonLoad) {
  EventLoop loop;
  Rng rng(5);
  ContentStore content = TinySite();
  WebServerConfig config;
  WebServer server(loop, config, &content);
  BackgroundTrafficConfig bg;
  bg.requests_per_second = 10.0;
  BackgroundTraffic traffic(loop, rng, bg, server,
                            [] {
                              return [](HttpStatus, double, std::function<void()> s) { s(); };
                            });
  traffic.Start();
  loop.RunUntil(100.0);
  traffic.Stop();
  EXPECT_NEAR(static_cast<double>(traffic.RequestsIssued()), 1000.0, 120.0);
  EXPECT_EQ(server.AccessLog().size(), traffic.RequestsIssued());
  for (const auto& entry : server.AccessLog()) {
    EXPECT_FALSE(entry.is_mfc);
  }
  // Stop really stops.
  uint64_t n = traffic.RequestsIssued();
  loop.RunUntil(200.0);
  EXPECT_EQ(traffic.RequestsIssued(), n);
}

TEST(BackgroundTrafficTest, ZeroRateNeverStarts) {
  EventLoop loop;
  Rng rng(6);
  ContentStore content = TinySite();
  WebServerConfig config;
  WebServer server(loop, config, &content);
  BackgroundTrafficConfig bg;
  bg.requests_per_second = 0.0;
  BackgroundTraffic traffic(loop, rng, bg, server,
                            [] {
                              return [](HttpStatus, double, std::function<void()> s) { s(); };
                            });
  traffic.Start();
  EXPECT_FALSE(traffic.Running());
  loop.RunUntil(10.0);
  EXPECT_EQ(traffic.RequestsIssued(), 0u);
}

}  // namespace
}  // namespace mfc
