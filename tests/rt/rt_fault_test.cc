// Control-plane robustness tests for the live runtime: fault-injector
// behavior, lifetime safety of the async fetch/probe paths (ASan
// regressions), retry convergence under injected loss, and the end-to-end
// requirement that a faulted run reaches the same verdict as a clean one.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/content/site_generator.h"
#include "src/core/coordinator.h"
#include "src/rt/client_agent.h"
#include "src/rt/fault_injector.h"
#include "src/rt/http_fetch.h"
#include "src/rt/live_harness.h"
#include "src/rt/live_http_server.h"
#include "src/rt/session.h"
#include "src/rt/transport.h"

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
  index.body = "<html>hello</html>";
  index.size_bytes = index.body.size();
  store.Add(index);
  return store;
}

RetryPolicy FastRetry(size_t attempts) {
  RetryPolicy retry;
  retry.max_attempts = attempts;
  retry.initial_backoff = Millis(25);
  retry.multiplier = 2.0;
  retry.max_backoff = Millis(200);
  return retry;
}

TEST(FaultInjectorTest, SeededPlansAreDeterministic) {
  FaultConfig config;
  config.drop_rate = 0.3;
  config.duplicate_rate = 0.2;
  config.delay_rate = 0.1;
  config.seed = 42;
  FaultInjector a(config);
  FaultInjector b(config);
  for (int i = 0; i < 500; ++i) {
    auto pa = a.PlanDatagram(0.0);
    auto pb = b.PlanDatagram(0.0);
    EXPECT_EQ(pa.drop, pb.drop);
    EXPECT_EQ(pa.copies, pb.copies);
    EXPECT_EQ(pa.delay, pb.delay);
  }
  EXPECT_EQ(a.stats().dropped, b.stats().dropped);
}

TEST(FaultInjectorTest, DropRateRoughlyProportional) {
  FaultConfig config;
  config.drop_rate = 0.5;
  config.seed = 7;
  FaultInjector injector(config);
  for (int i = 0; i < 2000; ++i) {
    injector.PlanDatagram(0.0);
  }
  EXPECT_GT(injector.stats().dropped, 800u);
  EXPECT_LT(injector.stats().dropped, 1200u);
  EXPECT_EQ(injector.stats().datagrams, 2000u);
}

TEST(FaultInjectorTest, DeadAfterSilencesNode) {
  FaultConfig config;
  config.dead_after = 1.0;
  FaultInjector injector(config);
  EXPECT_FALSE(injector.PlanDatagram(10.0).drop);  // clock starts here
  EXPECT_FALSE(injector.PlanDatagram(10.5).drop);
  EXPECT_TRUE(injector.PlanDatagram(11.5).drop);
  EXPECT_TRUE(injector.PlanDatagram(99.0).drop);
}

TEST(FaultInjectorTest, ConnectFailureRateEdges) {
  FaultConfig always;
  always.connect_failure_rate = 1.0;
  FaultInjector fail(always);
  EXPECT_TRUE(fail.FailConnect());

  FaultConfig never;
  FaultInjector ok(never);
  EXPECT_FALSE(ok.FailConnect());
  EXPECT_EQ(ok.stats().failed_connects, 0u);
  EXPECT_EQ(fail.stats().failed_connects, 1u);
}

// Regression: Start() on a vetoed/failed connect schedules a 0-delay task
// reporting the failure. Destroying the fetch before the reactor drains used
// to leave that task dangling on a freed |this| (use-after-free under ASan).
TEST(HttpFetchFaultTest, DestroyWithPendingConnectFailureTaskIsSafe) {
  Reactor reactor;
  FaultConfig config;
  config.connect_failure_rate = 1.0;
  FaultInjector injector(config);

  bool called = false;
  HttpRequest request;
  request.target = "/";
  auto fetch = HttpFetch::Start(reactor, 9, request, 1.0,
                                [&](const FetchResult&) { called = true; }, &injector);
  ASSERT_NE(fetch, nullptr);
  fetch.reset();  // destroy while the failure report is still queued
  reactor.RunUntil([] { return false; }, reactor.Now() + 0.05);
  EXPECT_FALSE(called);  // destroying the handle cancels the operation
}

TEST(HttpFetchFaultTest, VetoedConnectReportsAsynchronously) {
  Reactor reactor;
  FaultConfig config;
  config.connect_failure_rate = 1.0;
  FaultInjector injector(config);

  bool done = false;
  FetchResult result;
  HttpRequest request;
  request.target = "/";
  auto fetch = HttpFetch::Start(reactor, 9, request, 1.0,
                                [&](const FetchResult& r) {
                                  result = r;
                                  done = true;
                                },
                                &injector);
  EXPECT_FALSE(done);  // failure must not be delivered from inside Start
  ASSERT_TRUE(reactor.RunUntil([&] { return done; }, reactor.Now() + 1.0));
  EXPECT_TRUE(result.connect_failed);
  EXPECT_EQ(result.status, HttpStatus::kServiceUnavailable);
}

// Captures control messages a client agent sends back, standing in for the
// coordinator: a session on the coordinator's connection id, so it speaks
// the same framed protocol as LiveHarness.
class FakeCoordinator {
 public:
  explicit FakeCoordinator(Reactor& reactor)
      : transport_(reactor, 0), session_(transport_, CoordinatorConfig()) {
    session_.SetDeliveryHandler([this](const ControlMessage& message, const TransportAddress&) {
      received.push_back(message);
    });
  }

  TransportAddress Address() const { return transport_.LocalAddress(); }
  void Send(const ControlMessage& message, const TransportAddress& agent) {
    session_.SendReliable(message, agent);
  }

  template <typename T>
  size_t CountOf() const {
    size_t n = 0;
    for (const auto& m : received) {
      n += std::holds_alternative<T>(m) ? 1 : 0;
    }
    return n;
  }

  std::vector<ControlMessage> received;

 private:
  static SessionConfig CoordinatorConfig() {
    SessionConfig config;
    config.conn = kCoordinatorConn;
    return config;
  }

  UdpTransport transport_;
  Session session_;
};

// Regression: the RTT-probe completion lambda erases the probe connection via
// a 0-delay task capturing |this|; destroying the agent first used to leave
// the task touching a freed agent.
TEST(ClientAgentFaultTest, DestroyWithInFlightRttProbeIsSafe) {
  Reactor reactor;
  ContentStore content = TestSite();
  LiveHttpServer server(reactor, &content);
  FakeCoordinator coordinator(reactor);

  auto agent = std::make_unique<ClientAgent>(
      reactor, 1, std::make_unique<UdpTransport>(reactor, 0), coordinator.Address());
  coordinator.Send(MsgRttProbe{5, server.Port()}, agent->ControlAddress());
  // Run until the agent's RTT reply lands: the probe's self-erase task is
  // scheduled around now and may still be queued.
  ASSERT_TRUE(reactor.RunUntil([&] { return coordinator.CountOf<MsgRtt>() > 0; },
                               reactor.Now() + 2.0));
  agent.reset();
  reactor.RunUntil([] { return false; }, reactor.Now() + 0.05);  // ASan verdict
}

TEST(ClientAgentFaultTest, DestroyImmediatelyAfterProbeIsSafe) {
  Reactor reactor;
  ContentStore content = TestSite();
  LiveHttpServer server(reactor, &content);
  FakeCoordinator coordinator(reactor);

  auto agent = std::make_unique<ClientAgent>(
      reactor, 1, std::make_unique<UdpTransport>(reactor, 0), coordinator.Address());
  coordinator.Send(MsgRttProbe{5, server.Port()}, agent->ControlAddress());
  // Run until the probe is delivered, so the agent really starts a connect.
  ASSERT_TRUE(reactor.RunUntil([&] { return agent->session_stats().delivered == 1; },
                               reactor.Now() + 2.0));
  agent.reset();  // connect callback may still be pending
  reactor.RunUntil([] { return false; }, reactor.Now() + 0.1);
}

TEST(ClientAgentFaultTest, RttProbeConnectFailureGetsExplicitReply) {
  Reactor reactor;
  FakeCoordinator coordinator(reactor);
  FaultConfig config;
  config.connect_failure_rate = 1.0;
  FaultInjector injector(config);

  ClientAgent agent(reactor, 1, std::make_unique<UdpTransport>(reactor, 0),
                    coordinator.Address());
  agent.set_fault_injector(&injector);
  coordinator.Send(MsgRttProbe{5, 9}, agent.ControlAddress());
  ASSERT_TRUE(reactor.RunUntil([&] { return coordinator.CountOf<MsgRttFail>() > 0; },
                               reactor.Now() + 2.0));
  EXPECT_EQ(coordinator.CountOf<MsgRtt>(), 0u);
}

// Faults moved from UdpSocket into the FaultedTransport decorator; the
// lifetime hazard is the same — a delayed copy's timer must not outlive the
// transport that scheduled it.
TEST(FaultedTransportFaultTest, DestroyWithDelayedSendsIsSafe) {
  Reactor reactor;
  FaultConfig config;
  config.delay_rate = 1.0;
  config.delay = Millis(50);
  FaultInjector injector(config);

  auto receiver = std::make_unique<UdpTransport>(reactor, 0);
  {
    FaultedTransport sender(std::make_unique<UdpTransport>(reactor, 0), &injector);
    sender.Send("PING 1", receiver->LocalAddress());
    // sender destroyed here with the delayed datagram still scheduled
  }
  reactor.RunUntil([] { return false; }, reactor.Now() + 0.1);  // ASan verdict
  EXPECT_EQ(injector.stats().delayed, 1u);
}

// Fleet fixture with injectable faults on both sides of the control plane.
class FaultFleetTest : public ::testing::Test {
 protected:
  FaultFleetTest() : content_(TestSite()), server_(reactor_, &content_) {}

  void StartFleet(size_t fleet, const FaultConfig& agent_faults,
                  const FaultConfig& coord_faults, const RetryPolicy& retry) {
    harness_ = std::make_unique<LiveHarness>(reactor_, server_.Port(),
                                             std::make_unique<UdpTransport>(reactor_, 0));
    harness_->set_request_timeout(2.0);
    harness_->set_retry_policy(retry);
    if (coord_faults.Enabled()) {
      coord_injector_ = std::make_unique<FaultInjector>(coord_faults);
      harness_->set_fault_injector(coord_injector_.get());
    }
    for (size_t i = 0; i < fleet; ++i) {
      auto agent = std::make_unique<ClientAgent>(
          reactor_, i, std::make_unique<UdpTransport>(reactor_, 0), harness_->ControlAddress());
      agent->set_request_timeout(2.0);
      agent->set_retry_policy(retry);
      if (agent_faults.Enabled()) {
        FaultConfig per_agent = agent_faults;
        per_agent.seed = agent_faults.seed + i;  // distinct fault schedules
        agent_injectors_.push_back(std::make_unique<FaultInjector>(per_agent));
        agent->set_fault_injector(agent_injectors_.back().get());
      }
      agent->Register();
      agents_.push_back(std::move(agent));
    }
  }

  Reactor reactor_;
  ContentStore content_;
  LiveHttpServer server_;
  std::unique_ptr<FaultInjector> coord_injector_;
  std::vector<std::unique_ptr<FaultInjector>> agent_injectors_;
  std::unique_ptr<LiveHarness> harness_;
  std::vector<std::unique_ptr<ClientAgent>> agents_;
};

TEST_F(FaultFleetTest, RegistrationRetriesConvergeUnderHeavyLoss) {
  FaultConfig lossy;
  lossy.drop_rate = 0.4;
  lossy.seed = 3;
  StartFleet(6, lossy, lossy, FastRetry(10));
  EXPECT_EQ(harness_->WaitForRegistrations(6, 10.0), 6u);
  reactor_.RunUntil([] { return false; }, reactor_.Now() + 0.2);  // let acks land
  for (const auto& agent : agents_) {
    EXPECT_TRUE(agent->Registered());
  }
  ASSERT_NE(coord_injector_, nullptr);
  EXPECT_GT(coord_injector_->stats().dropped + agent_injectors_[0]->stats().dropped, 0u);
}

TEST_F(FaultFleetTest, FetchOnceRetriesConnectFailures) {
  FaultConfig flaky;
  flaky.connect_failure_rate = 0.5;
  flaky.seed = 9;
  StartFleet(2, flaky, FaultConfig{}, FastRetry(8));
  ASSERT_EQ(harness_->WaitForRegistrations(2, 5.0), 2u);
  HttpRequest request;
  request.method = HttpMethod::kHead;
  request.target = "/";
  RequestSample sample = harness_->FetchOnce(0, request);
  EXPECT_EQ(sample.code, HttpStatus::kOk);
  EXPECT_FALSE(sample.timed_out);
}

TEST_F(FaultFleetTest, RttProbeFailureFallsBackAndIsSurfaced) {
  FaultConfig dead_target;
  dead_target.connect_failure_rate = 1.0;
  StartFleet(1, dead_target, FaultConfig{}, FastRetry(3));
  ASSERT_EQ(harness_->WaitForRegistrations(1, 5.0), 1u);
  SimDuration rtt = harness_->MeasureTargetRtt(0);
  EXPECT_DOUBLE_EQ(rtt, 1.0);  // the documented substitute
  EXPECT_GE(harness_->stats().rtt_failures, 1u);   // explicit RTTFAIL, no silent wait
  EXPECT_EQ(harness_->stats().rtt_fallbacks, 1u);  // the fallback is surfaced
  EXPECT_GE(harness_->stats().rtt_retries, 1u);
}

TEST_F(FaultFleetTest, DuplicatedDatagramsNeverDoubleCount) {
  FaultConfig duper;
  duper.duplicate_rate = 1.0;  // every control datagram sent twice, both ways
  duper.seed = 4;
  StartFleet(4, duper, duper, FastRetry(4));
  ASSERT_EQ(harness_->WaitForRegistrations(4, 5.0), 4u);

  std::vector<CrowdRequestPlan> plans;
  double now = reactor_.Now();
  for (size_t i = 0; i < 4; ++i) {
    CrowdRequestPlan plan;
    plan.client_id = i;
    plan.request = HeadRoot();
    plan.command_send_time = now + 0.02;
    plan.intended_arrival = now + 0.03;
    plan.connections = 2;
    plans.push_back(plan);
  }
  auto samples = harness_->ExecuteCrowd(plans, now + 4.0);
  EXPECT_EQ(samples.size(), 8u);            // duplicates deduplicated
  EXPECT_EQ(server_.RequestsServed(), 8u);  // duplicated FIREs never re-fire
  // Session peers suppress duplicates by (conn, seq) before delivery, so the
  // evidence lives in the session counters now, not the app-level dedup.
  EXPECT_GT(harness_->session_stats().duplicates, 0u);
}

TEST_F(FaultFleetTest, ControlTokenMapsStayBounded) {
  StartFleet(4, FaultConfig{}, FaultConfig{}, FastRetry(4));
  ASSERT_EQ(harness_->WaitForRegistrations(4, 5.0), 4u);

  for (int round = 0; round < 3; ++round) {
    harness_->ProbeClients(0.5);
    harness_->MeasureCoordRtt(0);
    harness_->MeasureTargetRtt(1);
    HttpRequest request;
    request.method = HttpMethod::kHead;
    request.target = "/";
    harness_->FetchOnce(2, request);
    std::vector<CrowdRequestPlan> plans;
    double now = reactor_.Now();
    for (size_t i = 0; i < 4; ++i) {
      CrowdRequestPlan plan;
      plan.client_id = i;
      plan.request = HeadRoot();
      plan.command_send_time = now + 0.02;
      plan.intended_arrival = now + 0.03;
      plans.push_back(plan);
    }
    harness_->ExecuteCrowd(plans, now + 2.0);
  }
  // Let any straggler datagrams drain, then check nothing accumulated.
  reactor_.RunUntil([] { return false; }, reactor_.Now() + 0.2);
  EXPECT_EQ(harness_->PendingControlEntries(), 0u);
}

// The acceptance bar for the whole layer: with 20% control-message loss and
// 5% connect failures injected, the unmodified Coordinator must reach the
// same stopping-crowd-size verdict as the clean run (fixed seed, fixed knee).
TEST_F(FaultFleetTest, FaultedRunReachesSameVerdictAsClean) {
  constexpr size_t kFleet = 12;
  // Knee at >4 concurrent with crowds grown in steps of 2: the first crowd
  // over the knee (6) stays over it even if a straggler or two miss the
  // burst instant, so the verdict window tolerates residual command loss
  // past the retry budget instead of sitting on a one-client knife edge.
  server_.SetServiceDelay([](size_t concurrent) {
    return concurrent > 4 ? 0.150 : 0.030;
  });

  ExperimentConfig config;
  config.threshold = Millis(100);
  config.crowd_step = 2;
  config.max_crowd = kFleet;
  config.min_clients = 10;  // tolerate a straggler registration under loss
  config.min_crowd_for_inference = 4;
  config.request_timeout = Seconds(2);
  // FIREs are (re)transmitted across the lead and held client-side until the
  // burst instant: a 250 ms lead fits five send attempts at 10 ms backoff.
  config.schedule_lead = Seconds(0.25);
  config.epoch_gap = Seconds(0.05);
  RetryPolicy retry = FastRetry(8);
  retry.initial_backoff = Millis(10);
  config.epoch_quorum = 0.5;
  config.evict_after_misses = 3;

  auto run = [&](const FaultConfig& agent_faults, const FaultConfig& coord_faults) {
    agents_.clear();
    harness_.reset();
    agent_injectors_.clear();
    coord_injector_.reset();
    StartFleet(kFleet, agent_faults, coord_faults, retry);
    EXPECT_GE(harness_->WaitForRegistrations(kFleet, 10.0), config.min_clients);
    Coordinator coordinator(*harness_, config, 5);
    StageObjects objects;
    objects.base_page = *ParseUrl("http://127.0.0.1/");
    return coordinator.Run(objects, {StageKind::kBase});
  };

  ExperimentResult clean = run(FaultConfig{}, FaultConfig{});
  FaultConfig agent_faults;
  agent_faults.drop_rate = 0.2;
  agent_faults.connect_failure_rate = 0.05;
  agent_faults.seed = 11;
  FaultConfig coord_faults;
  coord_faults.drop_rate = 0.2;
  coord_faults.seed = 12;
  ExperimentResult faulted = run(agent_faults, coord_faults);

  ASSERT_FALSE(clean.aborted);
  ASSERT_FALSE(faulted.aborted);
  const StageResult* clean_base = clean.Stage(StageKind::kBase);
  const StageResult* faulted_base = faulted.Stage(StageKind::kBase);
  ASSERT_NE(clean_base, nullptr);
  ASSERT_NE(faulted_base, nullptr);

  EXPECT_TRUE(clean_base->stopped);
  EXPECT_TRUE(faulted_base->stopped);
  EXPECT_EQ(clean_base->end_reason, StageEndReason::kConstraintFound);
  EXPECT_EQ(faulted_base->end_reason, StageEndReason::kConstraintFound);
  // Same verdict window as the clean-knee test: the constraint shows between
  // the knee (6 concurrent) and the fleet ceiling.
  EXPECT_GE(clean_base->stopping_crowd_size, 6u);
  EXPECT_LE(clean_base->stopping_crowd_size, 10u);
  EXPECT_GE(faulted_base->stopping_crowd_size, 6u);
  EXPECT_LE(faulted_base->stopping_crowd_size, 10u);
}

}  // namespace
}  // namespace mfc
