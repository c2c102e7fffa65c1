#include "src/core/sim_testbed.h"

#include <gtest/gtest.h>

#include <memory>

#include "src/content/site_generator.h"
#include "src/core/sync_scheduler.h"
#include "src/server/synthetic_server.h"
#include "src/server/web_server.h"
#include "src/telemetry/arrival_log.h"

namespace mfc {
namespace {

// A bare HEAD / request for a crowd plan.
std::shared_ptr<const HttpRequest> HeadRoot() {
  auto request = std::make_shared<HttpRequest>();
  request->method = HttpMethod::kHead;
  request->target = "/";
  return request;
}

TestbedConfig QuietConfig() {
  TestbedConfig config;
  config.wan.jitter_sigma = 0.0;
  config.wan.control_loss_rate = 0.0;
  config.wan.server_access_bps = 12.5e6;
  return config;
}

std::vector<ClientNetProfile> UniformFleet(size_t n, SimDuration rtt = 0.080) {
  std::vector<ClientNetProfile> fleet(n);
  for (auto& c : fleet) {
    c.rtt_to_target = rtt;
    c.rtt_to_coordinator = 0.040;
    c.access_down_bps = 1e9;
  }
  return fleet;
}

ContentStore LabSite() {
  Rng rng(3);
  SiteSpec spec;
  spec.page_count = 3;
  spec.image_count = 2;
  spec.binary_count = 1;
  spec.binary_size_min = 100 * 1024;
  spec.binary_size_max = 100 * 1024;
  spec.query_endpoint_count = 1;
  return GenerateSite(rng, spec);
}

TEST(SimTestbedTest, FetchOnceMeasuresHandshakePlusServiceTime) {
  EventLoop* loop = nullptr;
  ContentStore content = LabSite();
  // Synthetic zero-delay server: response time == network time only.
  SimTestbed* testbed_ptr = nullptr;
  (void)loop;
  (void)testbed_ptr;

  // Build against a synthetic server with no service delay.
  struct Wrapper {
    std::unique_ptr<SyntheticModelServer> server;
  } wrapper;
  TestbedConfig config = QuietConfig();
  // Two-phase init: SimTestbed needs the target at construction; allocate a
  // holder whose inner server is created against the testbed's loop.
  class LateTarget : public HttpTarget {
   public:
    HttpTarget* inner = nullptr;
    void OnRequest(const HttpRequest& request, bool is_mfc,
                   ResponseTransport transport) override {
      inner->OnRequest(request, is_mfc, std::move(transport));
    }
  };
  LateTarget late;
  SimTestbed testbed(1, config, UniformFleet(5), late);
  wrapper.server =
      std::make_unique<SyntheticModelServer>(testbed.Loop(), ConstantModel(0.0), 0.0, 100.0);
  late.inner = wrapper.server.get();

  HttpRequest req;
  req.method = HttpMethod::kHead;
  req.target = "/";
  RequestSample sample = testbed.FetchOnce(0, req);
  EXPECT_FALSE(sample.timed_out);
  EXPECT_EQ(sample.code, HttpStatus::kOk);
  // 1.5 RTT to the server + transfer + 0.5 RTT back: >= 2 RTT = 160 ms.
  EXPECT_GE(sample.response_time, 0.160 - 1e-9);
  EXPECT_LT(sample.response_time, 0.250);
}

TEST(SimTestbedTest, SlowServerTriggersClientKillTimer) {
  TestbedConfig config = QuietConfig();
  class BlackHole : public HttpTarget {
   public:
    void OnRequest(const HttpRequest&, bool, ResponseTransport) override {
      // Never responds; the transport is dropped.
    }
  };
  BlackHole hole;
  SimTestbed testbed(2, config, UniformFleet(3), hole);
  testbed.set_request_timeout(Seconds(10));
  HttpRequest req;
  req.target = "/";
  SimTime start = testbed.Now();
  RequestSample sample = testbed.FetchOnce(0, req);
  EXPECT_TRUE(sample.timed_out);
  EXPECT_EQ(sample.code, HttpStatus::kClientTimeout);
  EXPECT_NEAR(sample.response_time, 10.0, 1e-9);
  EXPECT_NEAR(testbed.Now() - start, 10.0, 1e-9);
}

TEST(SimTestbedTest, ProbeClientsFindsWholeQuietFleet) {
  TestbedConfig config = QuietConfig();
  class Null : public HttpTarget {
   public:
    void OnRequest(const HttpRequest&, bool, ResponseTransport t) override {
      t(HttpStatus::kOk, 100.0, [] {});
    }
  };
  Null target;
  SimTestbed testbed(3, config, UniformFleet(60), target);
  EXPECT_EQ(testbed.ProbeClients(Seconds(1)).size(), 60u);
}

TEST(SimTestbedTest, ControlLossShrinksProbeResponses) {
  TestbedConfig config = QuietConfig();
  config.wan.control_loss_rate = 0.4;
  class Null : public HttpTarget {
   public:
    void OnRequest(const HttpRequest&, bool, ResponseTransport t) override {
      t(HttpStatus::kOk, 100.0, [] {});
    }
  };
  Null target;
  SimTestbed testbed(4, config, UniformFleet(100), target);
  size_t responsive = testbed.ProbeClients(Seconds(1)).size();
  EXPECT_LT(responsive, 60u);   // ~0.36 expected survival
  EXPECT_GT(responsive, 15u);
}

TEST(SimTestbedTest, ExecuteCrowdSynchronizesArrivals) {
  TestbedConfig config = QuietConfig();
  config.wan.jitter_sigma = 0.03;  // realistic jitter
  class Late2 : public HttpTarget {
   public:
    HttpTarget* inner = nullptr;
    void OnRequest(const HttpRequest& r, bool m, ResponseTransport t) override {
      inner->OnRequest(r, m, std::move(t));
    }
  };
  Late2 late;
  Rng fleet_rng(77);
  SimTestbed testbed(5, config, MakePlanetLabFleet(fleet_rng, 45, 0), late);
  SyntheticModelServer server(testbed.Loop(), ConstantModel(0.0), 0.001, 200.0);
  late.inner = &server;

  // Build latency estimates the way the coordinator would.
  std::vector<ClientLatencyEstimate> latencies;
  for (size_t i = 0; i < 45; ++i) {
    latencies.push_back(
        ClientLatencyEstimate{i, testbed.MeasureCoordRtt(i), testbed.MeasureTargetRtt(i)});
  }
  SimTime arrival = testbed.Now() + 15.0;
  auto dispatch = ComputeDispatchTimes(latencies, arrival);
  std::vector<CrowdRequestPlan> plans;
  for (size_t i = 0; i < 45; ++i) {
    CrowdRequestPlan plan;
    plan.client_id = i;
    plan.request = HeadRoot();
    plan.command_send_time = dispatch[i].command_send_time;
    plan.intended_arrival = dispatch[i].intended_arrival;
    plans.push_back(plan);
  }
  auto samples = testbed.ExecuteCrowd(plans, arrival + 11.0);
  EXPECT_EQ(samples.size(), 45u);

  // Figure 3's claim: the bulk of requests arrive within tens of ms.
  ASSERT_EQ(server.Arrivals().size(), 45u);
  ArrivalSpread spread = AnalyzeArrivals(server.Arrivals());
  EXPECT_LT(spread.middle90_spread, 0.100);
  EXPECT_GT(MaxFractionWithinWindow(server.Arrivals(), 0.030), 0.6);
}

TEST(SimTestbedTest, CrawlFetchReturnsRealPageBodies) {
  TestbedConfig config = QuietConfig();
  ContentStore content = LabSite();
  class Late3 : public HttpTarget {
   public:
    HttpTarget* inner = nullptr;
    const ContentStore* content = nullptr;
    void OnRequest(const HttpRequest& r, bool m, ResponseTransport t) override {
      inner->OnRequest(r, m, std::move(t));
    }
    const ContentStore* Content() const override { return content; }
  };
  Late3 late;
  late.content = &content;
  SimTestbed testbed(6, config, UniformFleet(3), late);
  WebServerConfig server_config;
  WebServer server(testbed.Loop(), server_config, &content);
  late.inner = &server;

  HttpRequest get;
  get.method = HttpMethod::kGet;
  get.target = "/";
  HttpResponse response = testbed.Fetch(get);
  EXPECT_EQ(response.status, HttpStatus::kOk);
  EXPECT_EQ(response.body, content.Find("/")->body);
  EXPECT_EQ(response.headers.ContentLength().value(), content.Find("/")->size_bytes);

  // HEAD of the binary reports its size without a body.
  const WebObject* big = nullptr;
  for (const auto& object : content.Objects()) {
    if (object.content_class == ContentClass::kBinary) {
      big = &object;
    }
  }
  ASSERT_NE(big, nullptr);
  HttpRequest head;
  head.method = HttpMethod::kHead;
  head.target = big->path;
  HttpResponse head_response = testbed.Fetch(head);
  EXPECT_EQ(head_response.status, HttpStatus::kOk);
  EXPECT_TRUE(head_response.body.empty());
  EXPECT_EQ(head_response.headers.ContentLength().value(), big->size_bytes);

  // Unknown path is a 404.
  HttpRequest missing;
  missing.target = "/definitely-not-there";
  EXPECT_EQ(testbed.Fetch(missing).status, HttpStatus::kNotFound);
}

}  // namespace
}  // namespace mfc
