// Allocation guard for the simulated request path.
//
// Counts global operator new calls during one fixed-seed epoch of a
// Deployment — the coordinator's epoch bookkeeping, the testbed's command and
// request plumbing, the server's request lifecycle and the flow network — and
// fails when the allocations per launched request grow past the recorded
// budget. A Base epoch covers the HEAD path; a long-tail Small Query epoch
// with background load adds the CGI/database hops and background requests.
// This file replaces the global operator new, so it builds into its own test
// executable.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/core/config.h"
#include "src/core/experiment_runner.h"
#include "src/core/population.h"
#include "src/telemetry/metrics.h"

namespace {

bool g_counting = false;
uint64_t g_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_allocations;
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mfc {
namespace {

// Allocations per launched request measured on the Base epoch: 215 over 50
// requests with pooled request records on the indexed event queue (743 with
// a std::function capture per hop, 2,142 with a copied request per hop).
// Each guard allows 25% growth over its measurement. Since the event loop
// moved onto the shared indexed heap, whose position index grows inside the
// counted epoch, this epoch reads 221.
constexpr double kBaseBudgetPerRequest = 4.30;
// The Small Query epoch of long-tail site 0 (survey seed 1), background
// requests included: 422 over 50 with pooled database queries (501 when each
// query copied its key into a Pending that every CPU and disk step captured
// by value, 1,303 with a std::function capture per hop).
constexpr double kQueryBudgetPerRequest = 8.44;
// The Base epoch on the 16-replica QTP cluster: 318 over 50, with the load
// balancer reading each replica's own in-flight count (412 when it wrapped
// every transport and on_sent in a std::function capture).
constexpr double kClusterBudgetPerRequest = 6.36;

// Forwards every call to the testbed. Counting runs from the return of the
// stage's last sequential base fetch (PrepareClients) to the first
// WaitUntil, which RunStage calls right after the first epoch: exactly one
// epoch of coordinator, testbed and server work.
class EpochWindowHarness : public ClientHarness {
 public:
  explicit EpochWindowHarness(ClientHarness& inner) : inner_(inner) {}

  size_t ClientCount() const override { return inner_.ClientCount(); }
  std::vector<size_t> ProbeClients(SimDuration timeout) override {
    std::vector<size_t> registered = inner_.ProbeClients(timeout);
    registered_ = registered.size();
    return registered;
  }
  SimDuration MeasureCoordRtt(size_t client) override { return inner_.MeasureCoordRtt(client); }
  SimDuration MeasureTargetRtt(size_t client) override {
    return inner_.MeasureTargetRtt(client);
  }
  RequestSample FetchOnce(size_t client, const HttpRequest& request) override {
    RequestSample sample = inner_.FetchOnce(client, request);
    if (++fetches_ == registered_) {
      g_counting = true;
    }
    return sample;
  }
  std::vector<RequestSample> ExecuteCrowd(const std::vector<CrowdRequestPlan>& plans,
                                          SimTime poll_time) override {
    if (g_counting) {
      for (const CrowdRequestPlan& plan : plans) {
        launched_ += plan.connections;
      }
    }
    return inner_.ExecuteCrowd(plans, poll_time);
  }
  SimTime Now() const override { return inner_.Now(); }
  void WaitUntil(SimTime t) override {
    g_counting = false;
    inner_.WaitUntil(t);
  }

  size_t Launched() const { return launched_; }

 private:
  ClientHarness& inner_;
  size_t registered_ = 0;
  size_t fetches_ = 0;
  size_t launched_ = 0;
};

struct EpochCount {
  ExperimentResult result;
  uint64_t allocations = 0;
  double per_request = 0.0;  // allocations per launched request
};

// Runs the first epoch of |stage| against |deployment|, with its background
// load on, and counts the allocations of that epoch alone. A non-null
// |telemetry| is attached to the deployment (the server's request path and
// the flow network) but not to the coordinator, whose per-epoch metric
// writes use the registry's by-name API.
EpochCount CountFirstEpoch(Deployment& deployment, StageKind stage,
                           Telemetry* telemetry = nullptr) {
  ExperimentConfig config;
  config.crowd_step = 50;
  config.max_epochs = 1;
  if (telemetry != nullptr) {
    deployment.SetTelemetry(telemetry);
  }
  EpochWindowHarness harness(deployment.Testbed());
  Coordinator coordinator(harness, config, 5);
  StageObjects objects = deployment.ObjectsFromContent();
  deployment.StartBackground();
  g_allocations = 0;
  EpochCount count;
  count.result = coordinator.Run(objects, {stage});
  g_counting = false;
  deployment.StopBackground();
  EXPECT_EQ(harness.Launched(), 50u);
  count.allocations = g_allocations;
  count.per_request =
      static_cast<double>(g_allocations) / static_cast<double>(harness.Launched());
  std::printf("allocations%s: %llu over %zu launched requests (%.2f per request)\n",
              telemetry != nullptr ? " (metrics on)" : "",
              static_cast<unsigned long long>(g_allocations), harness.Launched(),
              count.per_request);
  return count;
}

TEST(RequestAllocationTest, BaseEpochAllocationsPerRequestStayWithinBudget) {
  DeploymentOptions options;
  options.seed = 11;
  Deployment deployment(MakeQtnpProfile(), options);
  EpochCount count = CountFirstEpoch(deployment, StageKind::kBase);
  ASSERT_FALSE(count.result.aborted);
  ASSERT_EQ(count.result.stages.size(), 1u);
  ASSERT_FALSE(count.result.stages[0].epochs.empty());
  EXPECT_EQ(count.result.stages[0].epochs[0].samples_received, 50u);
  EXPECT_LE(count.per_request, kBaseBudgetPerRequest * 1.25);
}

TEST(RequestAllocationTest, QtpClusterBaseEpochAllocationsPerRequestStayWithinBudget) {
  DeploymentOptions options;
  options.seed = 11;
  Deployment deployment(MakeQtpProfile(), options);
  ASSERT_NE(deployment.Cluster(), nullptr);
  EpochCount count = CountFirstEpoch(deployment, StageKind::kBase);
  ASSERT_FALSE(count.result.aborted);
  ASSERT_EQ(count.result.stages.size(), 1u);
  ASSERT_FALSE(count.result.stages[0].epochs.empty());
  EXPECT_EQ(count.result.stages[0].epochs[0].samples_received, 50u);
  // The crowd spread over the replicas.
  size_t serving = 0;
  for (size_t i = 0; i < deployment.Cluster()->ReplicaCount(); ++i) {
    serving += deployment.Cluster()->Replica(i).AccessLog().empty() ? 0 : 1;
  }
  EXPECT_GT(serving, 1u);
  EXPECT_LE(count.per_request, kClusterBudgetPerRequest * 1.25);
}

TEST(RequestAllocationTest, LongTailQueryEpochAllocationsPerRequestStayWithinBudget) {
  SiteInstance site = SampleSiteAt(1, Cohort::kLongTail, 0);
  ASSERT_GT(site.background_rps, 0.0);
  ASSERT_EQ(site.replicas, 1u);
  DeploymentOptions options;
  options.seed = SiteExperimentSeed(1, Cohort::kLongTail, 0);
  options.background_rps = site.background_rps;
  Deployment deployment(site, options);
  ASSERT_TRUE(deployment.ObjectsFromContent().small_query.has_value());
  uint64_t queries_before = deployment.Server().Db().ExecutedQueries();
  uint64_t background_before = deployment.Server().AccessLog().size();
  EpochCount count = CountFirstEpoch(deployment, StageKind::kSmallQuery);
  ASSERT_FALSE(count.result.aborted);
  ASSERT_EQ(count.result.stages.size(), 1u);
  ASSERT_FALSE(count.result.stages[0].epochs.empty());
  EXPECT_EQ(count.result.stages[0].epochs[0].crowd_size, 50u);
  // The epoch ran the database and served background requests.
  EXPECT_GT(deployment.Server().Db().ExecutedQueries(), queries_before);
  size_t background = 0;
  for (size_t i = background_before; i < deployment.Server().AccessLog().size(); ++i) {
    background += deployment.Server().AccessLog()[i].is_mfc ? 0 : 1;
  }
  EXPECT_GT(background, 0u);
  EXPECT_LE(count.per_request, kQueryBudgetPerRequest * 1.25);
}

// With the server's metrics on, an epoch allocates exactly what it does with
// them off: the server resolves its registry slots at the first finished
// request, a base fetch before the counted window, and from then on a
// finished request only adds through them. (The coordinator is not
// attached, so every request carries the default stage label.)
uint64_t BaseEpochAllocations(Telemetry* telemetry) {
  DeploymentOptions options;
  options.seed = 11;
  Deployment deployment(MakeQtnpProfile(), options);
  return CountFirstEpoch(deployment, StageKind::kBase, telemetry).allocations;
}

uint64_t LongTailQueryEpochAllocations(Telemetry* telemetry) {
  SiteInstance site = SampleSiteAt(1, Cohort::kLongTail, 0);
  DeploymentOptions options;
  options.seed = SiteExperimentSeed(1, Cohort::kLongTail, 0);
  options.background_rps = site.background_rps;
  Deployment deployment(site, options);
  return CountFirstEpoch(deployment, StageKind::kSmallQuery, telemetry).allocations;
}

TEST(RequestAllocationTest, BaseEpochAllocatesTheSameWithMetricsOn) {
  MetricsRegistry metrics;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  uint64_t on = BaseEpochAllocations(&telemetry);
  EXPECT_EQ(on, BaseEpochAllocations(nullptr));
  EXPECT_GT(metrics.Counter("server.requests_total"), 50.0);
}

TEST(RequestAllocationTest, LongTailQueryEpochAllocatesTheSameWithMetricsOn) {
  MetricsRegistry metrics;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  uint64_t on = LongTailQueryEpochAllocations(&telemetry);
  EXPECT_EQ(on, LongTailQueryEpochAllocations(nullptr));
  EXPECT_GT(metrics.Counter("span.idle.db_s"), 0.0);
}

}  // namespace
}  // namespace mfc
