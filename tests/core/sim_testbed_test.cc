#include "src/core/sim_testbed.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

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

WideAreaConfig QuietConfig() {
  WideAreaConfig config;
  config.jitter_sigma = 0.0;
  config.control_loss_rate = 0.0;
  config.server_access_bps = 12.5e6;
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
  // Synthetic zero-delay server: response time == network time only. It
  // runs on the testbed's loop, so it is bound after the testbed exists.
  SimTestbed testbed(1, QuietConfig(), UniformFleet(5), nullptr);
  SyntheticModelServer server(testbed.Loop(), ConstantModel(0.0), 0.0, 100.0);
  testbed.SetTarget(&server);

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
  WideAreaConfig config = QuietConfig();
  class BlackHole : public HttpTarget {
   public:
    void OnRequest(const HttpRequest&, bool, ResponseTransport) override {
      // Never responds; the transport is dropped.
    }
  };
  BlackHole hole;
  SimTestbed testbed(2, config, UniformFleet(3), &hole);
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
  WideAreaConfig config = QuietConfig();
  class Null : public HttpTarget {
   public:
    void OnRequest(const HttpRequest&, bool, ResponseTransport t) override {
      t(HttpStatus::kOk, 100.0, [] {});
    }
  };
  Null target;
  SimTestbed testbed(3, config, UniformFleet(60), &target);
  EXPECT_EQ(testbed.ProbeClients(Seconds(1)).size(), 60u);
}

TEST(SimTestbedTest, ControlLossShrinksProbeResponses) {
  WideAreaConfig config = QuietConfig();
  config.control_loss_rate = 0.4;
  class Null : public HttpTarget {
   public:
    void OnRequest(const HttpRequest&, bool, ResponseTransport t) override {
      t(HttpStatus::kOk, 100.0, [] {});
    }
  };
  Null target;
  SimTestbed testbed(4, config, UniformFleet(100), &target);
  size_t responsive = testbed.ProbeClients(Seconds(1)).size();
  EXPECT_LT(responsive, 60u);   // ~0.36 expected survival
  EXPECT_GT(responsive, 15u);
}

TEST(SimTestbedTest, ExecuteCrowdSynchronizesArrivals) {
  WideAreaConfig config = QuietConfig();
  config.jitter_sigma = 0.03;  // realistic jitter
  Rng fleet_rng(77);
  SimTestbed testbed(5, config, MakePlanetLabFleet(fleet_rng, 45, 0), nullptr);
  SyntheticModelServer server(testbed.Loop(), ConstantModel(0.0), 0.001, 200.0);
  testbed.SetTarget(&server);

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
  WideAreaConfig config = QuietConfig();
  ContentStore content = LabSite();
  SimTestbed testbed(6, config, UniformFleet(3), nullptr);
  WebServerConfig server_config;
  WebServer server(testbed.Loop(), server_config, &content);
  testbed.SetTarget(&server);

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

// ---- Pooled request records ---------------------------------------------------

// A target that answers each request at once or holds its transport for the
// test to answer late, and counts the on_sent calls of every transport call.
class ScriptedTarget : public HttpTarget {
 public:
  void OnRequest(const HttpRequest& request, bool, ResponseTransport transport) override {
    arrivals.push_back(request.target);
    if (hold) {
      held.push_back(std::move(transport));
      return;
    }
    Answer(std::move(transport), HttpStatus::kOk, answer_bytes);
  }

  // Makes one transport call; its on_sent bumps sent[call].
  void Answer(ResponseTransport transport, HttpStatus status, double bytes) {
    size_t call = sent.size();
    sent.push_back(0);
    transport(status, bytes, [this, call] { ++sent[call]; });
  }

  bool hold = false;
  double answer_bytes = 1000.0;
  std::vector<std::string> arrivals;
  std::vector<ResponseTransport> held;
  std::vector<int> sent;  // on_sent calls per transport call
};

std::shared_ptr<const HttpRequest> Get(const std::string& target) {
  auto request = std::make_shared<HttpRequest>();
  request->target = target;
  return request;
}

// Launches requests and counts the on_done calls each one gets.
struct Launcher {
  explicit Launcher(SimTestbed& testbed) : testbed(testbed) {}

  void Launch(size_t client, const std::string& target) {
    size_t id = done.size();
    done.push_back(0);
    samples.emplace_back();
    testbed.Launch(client, Get(target), [this, id](const RequestSample& s) {
      ++done[id];
      samples[id] = s;
    });
  }

  SimTestbed& testbed;
  std::vector<int> done;  // on_done calls per Launch
  std::vector<RequestSample> samples;
};

void ExpectEachOnce(const std::vector<int>& counts) {
  for (size_t i = 0; i < counts.size(); ++i) {
    EXPECT_EQ(counts[i], 1) << "entry " << i;
  }
}

TEST(SimTestbedRecordTest, KillBeforeArrivalNeverReachesTheTarget) {
  ScriptedTarget target;
  SimTestbed testbed(21, QuietConfig(), UniformFleet(2), &target);
  testbed.set_request_timeout(Millis(50));  // the handshake alone takes 120 ms
  Launcher launcher(testbed);
  launcher.Launch(0, "/a");
  testbed.Loop().RunUntilIdle();
  EXPECT_TRUE(target.arrivals.empty());
  ASSERT_EQ(launcher.done, (std::vector<int>{1}));
  EXPECT_TRUE(launcher.samples[0].timed_out);
  EXPECT_EQ(launcher.samples[0].code, HttpStatus::kClientTimeout);
}

TEST(SimTestbedRecordTest, KillAfterTransportCallAbortsTheFlowAndReleasesOnce) {
  ScriptedTarget target;
  target.answer_bytes = 1e9;  // 80 s at the server link's 12.5 MB/s
  SimTestbed testbed(22, QuietConfig(), UniformFleet(2), &target);
  testbed.set_request_timeout(Seconds(1));
  Launcher launcher(testbed);
  launcher.Launch(0, "/big");
  testbed.Loop().RunUntil(0.5);
  ASSERT_EQ(target.sent, (std::vector<int>{0}));
  EXPECT_EQ(testbed.Wan().Flows().ActiveFlowCount(), 1u);
  testbed.Loop().RunUntilIdle();
  EXPECT_EQ(testbed.Wan().Flows().ActiveFlowCount(), 0u);
  EXPECT_EQ(target.sent, (std::vector<int>{1}));
  ASSERT_EQ(launcher.done, (std::vector<int>{1}));
  EXPECT_TRUE(launcher.samples[0].timed_out);
  EXPECT_NEAR(testbed.Now(), 1.0, 1e-9);  // the aborted flow left no event behind
}

TEST(SimTestbedRecordTest, TransportCallAfterKillReleasesAtOnce) {
  ScriptedTarget target;
  target.hold = true;
  SimTestbed testbed(23, QuietConfig(), UniformFleet(2), &target);
  testbed.set_request_timeout(Seconds(1));
  Launcher launcher(testbed);
  launcher.Launch(1, "/late");
  testbed.Loop().RunUntilIdle();
  ASSERT_EQ(launcher.done, (std::vector<int>{1}));
  EXPECT_TRUE(launcher.samples[0].timed_out);
  ASSERT_EQ(target.held.size(), 1u);
  target.Answer(std::move(target.held[0]), HttpStatus::kOk, 5000.0);
  EXPECT_EQ(target.sent, (std::vector<int>{1}));  // ran inside the transport call
  EXPECT_EQ(testbed.Wan().Flows().ActiveFlowCount(), 0u);
  EXPECT_EQ(testbed.Loop().PendingCount(), 0u);
  EXPECT_EQ(launcher.done, (std::vector<int>{1}));
}

TEST(SimTestbedRecordTest, ClosedLoopOnDoneLaunchesTheNextRequest) {
  ScriptedTarget target;
  SimTestbed testbed(24, QuietConfig(), UniformFleet(4), &target);
  constexpr size_t kRequests = 200;
  std::vector<int> done;
  std::function<void(size_t)> launch = [&](size_t client) {
    size_t id = done.size();
    done.push_back(0);
    testbed.Launch(client, Get("/loop"), [&, id, client](const RequestSample& s) {
      ++done[id];
      EXPECT_FALSE(s.timed_out);
      EXPECT_EQ(s.code, HttpStatus::kOk);
      if (done.size() < kRequests) {
        launch(client);  // reuses the record this request just released
      }
    });
  };
  for (size_t client = 0; client < 4; ++client) {
    launch(client);
  }
  testbed.Loop().RunUntilIdle();
  ASSERT_EQ(done.size(), kRequests);
  ExpectEachOnce(done);
  EXPECT_EQ(target.arrivals.size(), kRequests);
  ASSERT_EQ(target.sent.size(), kRequests);
  ExpectEachOnce(target.sent);
}

TEST(SimTestbedRecordTest, LateCallbacksNeverTouchAReusedRecord) {
  ScriptedTarget target;
  target.hold = true;
  SimTestbed testbed(25, QuietConfig(), UniformFleet(4), &target);
  testbed.set_request_timeout(Seconds(1));
  Launcher launcher(testbed);
  // Eight requests are killed while their transports are held: the pool
  // then has eight records, all free.
  for (size_t i = 0; i < 8; ++i) {
    launcher.Launch(i % 4, "/old");
  }
  testbed.Loop().RunUntilIdle();
  ASSERT_EQ(target.held.size(), 8u);
  std::vector<ResponseTransport> stale = std::move(target.held);
  target.held.clear();

  // Hundreds of settles, never more than four in flight, so they reuse
  // those eight records over and over.
  target.hold = false;
  for (size_t round = 0; round < 100; ++round) {
    for (size_t client = 0; client < 4; ++client) {
      launcher.Launch(client, "/churn");
    }
    testbed.Loop().RunUntilIdle();
  }

  // Eight new requests take all eight records and reach the target.
  target.hold = true;
  for (size_t i = 0; i < 8; ++i) {
    launcher.Launch(i % 4, "/new");
  }
  testbed.Loop().RunUntil(testbed.Now() + 0.5);
  ASSERT_EQ(target.held.size(), 8u);
  size_t pending = testbed.Loop().PendingCount();

  // The stale transports answer now: each releases at once, and none starts
  // a download or settles a new request.
  for (ResponseTransport& transport : stale) {
    target.Answer(std::move(transport), HttpStatus::kInternalServerError, 777.0);
  }
  EXPECT_EQ(testbed.Wan().Flows().ActiveFlowCount(), 0u);
  EXPECT_EQ(testbed.Loop().PendingCount(), pending);
  size_t new_first = launcher.done.size() - 8;
  for (size_t i = new_first; i < launcher.done.size(); ++i) {
    EXPECT_EQ(launcher.done[i], 0) << "request " << i;
  }

  for (ResponseTransport& transport : target.held) {
    target.Answer(std::move(transport), HttpStatus::kOk, 1000.0);
  }
  testbed.Loop().RunUntilIdle();
  ExpectEachOnce(launcher.done);
  ExpectEachOnce(target.sent);
  for (size_t i = new_first; i < launcher.samples.size(); ++i) {
    EXPECT_FALSE(launcher.samples[i].timed_out) << "request " << i;
    EXPECT_EQ(launcher.samples[i].code, HttpStatus::kOk) << "request " << i;
    EXPECT_EQ(launcher.samples[i].bytes, 1000.0) << "request " << i;
  }
}

}  // namespace
}  // namespace mfc
