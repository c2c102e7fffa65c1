// End-to-end live-runtime tests: a real HTTP server, real client agents and
// the real coordinator harness, all over loopback sockets on one reactor.
// The crowning test runs the unmodified Coordinator — the same state machine
// the simulation uses — against a live target whose service delay depends on
// concurrency, and checks that it finds the knee.
#include <gtest/gtest.h>

#include <memory>

#include "src/content/site_generator.h"
#include "src/core/coordinator.h"
#include "src/rt/client_agent.h"
#include "src/rt/http_fetch.h"
#include "src/rt/live_harness.h"
#include "src/rt/live_http_server.h"

namespace mfc {
namespace {

// A bare HEAD / request for a crowd plan.
std::shared_ptr<const HttpRequest> HeadRoot() {
  auto request = std::make_shared<HttpRequest>();
  request->method = HttpMethod::kHead;
  request->target = "/";
  return request;
}

ContentStore TestSite() {
  ContentStore store;
  WebObject index;
  index.path = "/";
  index.content_class = ContentClass::kText;
  index.body = "<html><a href=\"/files/big.bin\">big</a></html>";
  index.size_bytes = index.body.size();
  store.Add(index);
  WebObject big;
  big.path = "/files/big.bin";
  big.content_class = ContentClass::kBinary;
  big.size_bytes = 150 * 1024;
  store.Add(big);
  WebObject query;
  query.path = "/cgi/q.php";
  query.content_class = ContentClass::kQuery;
  query.dynamic = true;
  query.unique_per_query = true;
  query.size_bytes = 1024;
  store.Add(query);
  return store;
}

TEST(LiveHttpTest, FetchGetsRealBytes) {
  Reactor reactor;
  ContentStore content = TestSite();
  LiveHttpServer server(reactor, &content);

  HttpRequest request;
  request.method = HttpMethod::kGet;
  request.target = "/files/big.bin";
  request.headers.Set("Host", "127.0.0.1");

  bool done = false;
  FetchResult result;
  auto fetch = HttpFetch::Start(reactor, server.Port(), request, 5.0,
                                [&](const FetchResult& r) {
                                  result = r;
                                  done = true;
                                });
  ASSERT_TRUE(reactor.RunUntil([&] { return done; }, reactor.Now() + 5.0));
  EXPECT_EQ(result.status, HttpStatus::kOk);
  EXPECT_FALSE(result.timed_out);
  EXPECT_GT(result.bytes, 150u * 1024u);  // body + headers, real bytes on the wire
  EXPECT_EQ(server.RequestsServed(), 1u);
}

TEST(LiveHttpTest, HeadCarriesLengthWithoutBody) {
  Reactor reactor;
  ContentStore content = TestSite();
  LiveHttpServer server(reactor, &content);

  HttpRequest request;
  request.method = HttpMethod::kHead;
  request.target = "/files/big.bin";

  bool done = false;
  FetchResult result;
  auto fetch = HttpFetch::Start(reactor, server.Port(), request, 5.0,
                                [&](const FetchResult& r) {
                                  result = r;
                                  done = true;
                                });
  ASSERT_TRUE(reactor.RunUntil([&] { return done; }, reactor.Now() + 5.0));
  EXPECT_EQ(result.status, HttpStatus::kOk);
  EXPECT_LT(result.bytes, 1024u);  // headers only
}

TEST(LiveHttpTest, UnknownPathIs404) {
  Reactor reactor;
  ContentStore content = TestSite();
  LiveHttpServer server(reactor, &content);
  HttpRequest request;
  request.target = "/missing";
  bool done = false;
  FetchResult result;
  auto fetch = HttpFetch::Start(reactor, server.Port(), request, 5.0,
                                [&](const FetchResult& r) {
                                  result = r;
                                  done = true;
                                });
  ASSERT_TRUE(reactor.RunUntil([&] { return done; }, reactor.Now() + 5.0));
  EXPECT_EQ(result.status, HttpStatus::kNotFound);
}

TEST(LiveHttpTest, SlowServerHitsKillTimer) {
  Reactor reactor;
  ContentStore content = TestSite();
  LiveHttpServer server(reactor, &content);
  server.SetServiceDelay([](size_t) { return 2.0; });  // slower than the timeout

  HttpRequest request;
  request.target = "/";
  bool done = false;
  FetchResult result;
  auto fetch = HttpFetch::Start(reactor, server.Port(), request, 0.2,
                                [&](const FetchResult& r) {
                                  result = r;
                                  done = true;
                                });
  ASSERT_TRUE(reactor.RunUntil([&] { return done; }, reactor.Now() + 5.0));
  EXPECT_TRUE(result.timed_out);
  EXPECT_EQ(result.status, HttpStatus::kClientTimeout);
  EXPECT_NEAR(result.elapsed, 0.2, 0.1);
}

class LiveFleetTest : public ::testing::Test {
 protected:
  static constexpr size_t kFleet = 12;

  LiveFleetTest() : content_(TestSite()), server_(reactor_, &content_) {
    harness_ = std::make_unique<LiveHarness>(reactor_, server_.Port(),
                                             std::make_unique<UdpTransport>(reactor_, 0));
    for (size_t i = 0; i < kFleet; ++i) {
      agents_.push_back(std::make_unique<ClientAgent>(
          reactor_, i, std::make_unique<UdpTransport>(reactor_, 0), harness_->ControlAddress()));
      agents_.back()->set_request_timeout(2.0);
      agents_.back()->Register();
    }
    harness_->set_request_timeout(2.0);
    EXPECT_EQ(harness_->WaitForRegistrations(kFleet, 2.0), kFleet);
  }

  Reactor reactor_;
  ContentStore content_;
  LiveHttpServer server_;
  std::unique_ptr<LiveHarness> harness_;
  std::vector<std::unique_ptr<ClientAgent>> agents_;
};

TEST_F(LiveFleetTest, ProbeFindsAllAgents) {
  auto responsive = harness_->ProbeClients(1.0);
  EXPECT_EQ(responsive.size(), kFleet);
}

TEST_F(LiveFleetTest, RttMeasurementsArePlausible) {
  SimDuration coord_rtt = harness_->MeasureCoordRtt(0);
  SimDuration target_rtt = harness_->MeasureTargetRtt(0);
  EXPECT_GT(coord_rtt, 0.0);
  EXPECT_LT(coord_rtt, 0.5);
  EXPECT_GT(target_rtt, 0.0);
  EXPECT_LT(target_rtt, 0.5);
}

TEST_F(LiveFleetTest, FetchOnceMeasuresARealRequest) {
  HttpRequest request;
  request.method = HttpMethod::kHead;
  request.target = "/";
  RequestSample sample = harness_->FetchOnce(3, request);
  EXPECT_EQ(sample.client_id, 3u);
  EXPECT_EQ(sample.code, HttpStatus::kOk);
  EXPECT_FALSE(sample.timed_out);
  EXPECT_GT(sample.response_time, 0.0);
  EXPECT_LT(sample.response_time, 1.0);
}

TEST_F(LiveFleetTest, ExecuteCrowdCollectsAllSamples) {
  std::vector<CrowdRequestPlan> plans;
  double now = reactor_.Now();
  for (size_t i = 0; i < kFleet; ++i) {
    CrowdRequestPlan plan;
    plan.client_id = i;
    plan.request = HeadRoot();
    plan.command_send_time = now + 0.05;
    plan.intended_arrival = now + 0.06;
    plan.connections = 2;  // MFC-mr over real sockets
    plans.push_back(plan);
  }
  auto samples = harness_->ExecuteCrowd(plans, now + 4.0);
  EXPECT_EQ(samples.size(), kFleet * 2);
  for (const auto& sample : samples) {
    EXPECT_EQ(sample.code, HttpStatus::kOk);
  }
  EXPECT_EQ(server_.RequestsServed(), kFleet * 2);
}

TEST_F(LiveFleetTest, HealthTableTracksProbedFleet) {
  auto responsive = harness_->ProbeClients(1.0);
  ASSERT_EQ(responsive.size(), kFleet);
  auto table = harness_->SnapshotAgents();
  ASSERT_EQ(table.size(), kFleet);
  for (size_t i = 0; i < table.size(); ++i) {
    const AgentHealthSnapshot& row = table[i];
    EXPECT_EQ(row.agent_id, i);
    EXPECT_TRUE(row.healthy);
    EXPECT_EQ(row.miss_streak, 0u);
    EXPECT_GE(row.last_seen_age, 0.0);   // everyone just answered
    EXPECT_GT(row.rtt_ewma, 0.0);        // a real loopback RTT was folded in
    EXPECT_LT(row.rtt_ewma, 0.5);
    EXPECT_DOUBLE_EQ(row.loss_estimate, 0.0);
  }
  // Probe bookkeeping must not leak: pending/completed maps drain each round.
  EXPECT_EQ(harness_->PendingControlEntries(), 0u);
}

TEST_F(LiveFleetTest, UnansweredProbesTripTheUnhealthyVerdict) {
  harness_->set_unhealthy_after_misses(2);
  EXPECT_TRUE(harness_->ClientHealthy(0));
  agents_[0].reset();  // agent 0 goes dark but stays registered
  for (int round = 0; round < 2; ++round) {
    auto responsive = harness_->ProbeClients(0.3);
    EXPECT_EQ(responsive.size(), kFleet - 1);
  }
  EXPECT_FALSE(harness_->ClientHealthy(0));
  EXPECT_TRUE(harness_->ClientHealthy(1));

  auto table = harness_->SnapshotAgents();
  ASSERT_EQ(table.size(), kFleet);
  EXPECT_EQ(table[0].agent_id, 0u);
  EXPECT_FALSE(table[0].healthy);
  EXPECT_GE(table[0].miss_streak, 2u);
  EXPECT_GT(table[0].loss_estimate, 0.0);
  for (size_t i = 1; i < table.size(); ++i) {
    EXPECT_TRUE(table[i].healthy);
    EXPECT_EQ(table[i].miss_streak, 0u);
  }

  // With the knob at 0 the same miss streak carries no verdict: the default
  // keeps simulation and legacy behavior untouched.
  harness_->set_unhealthy_after_misses(0);
  EXPECT_TRUE(harness_->ClientHealthy(0));
}

TEST_F(LiveFleetTest, UnmodifiedCoordinatorFindsALiveKnee) {
  // The target degrades sharply beyond 6 concurrent requests.
  server_.SetServiceDelay([](size_t concurrent) {
    return concurrent > 6 ? 0.150 : 0.001;
  });

  ExperimentConfig config;
  config.threshold = Millis(100);
  config.crowd_step = 2;
  config.max_crowd = kFleet;
  config.min_clients = kFleet;
  config.min_crowd_for_inference = 4;
  config.request_timeout = Seconds(2);
  config.schedule_lead = Seconds(0.1);   // loopback: no need for 15 s leads
  config.epoch_gap = Seconds(0.05);
  Coordinator coordinator(*harness_, config, 5);

  StageObjects objects;
  objects.base_page = *ParseUrl("http://127.0.0.1/");
  ExperimentResult result = coordinator.Run(objects, {StageKind::kBase});
  ASSERT_FALSE(result.aborted);
  const StageResult* base = result.Stage(StageKind::kBase);
  ASSERT_NE(base, nullptr);
  EXPECT_TRUE(base->stopped);
  EXPECT_GE(base->stopping_crowd_size, 6u);
  EXPECT_LE(base->stopping_crowd_size, 10u);
}

}  // namespace
}  // namespace mfc
