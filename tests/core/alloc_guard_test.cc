// Allocation guard for the simulated request path.
//
// Counts global operator new calls during one fixed-seed Base epoch of a
// Deployment — the coordinator's epoch bookkeeping, the testbed's command and
// request plumbing, the server's request lifecycle and the flow network — and
// fails when the allocations per launched request grow past the recorded
// budget. This file replaces the global operator new, so it builds into its
// own test executable.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <new>

#include "src/core/config.h"
#include "src/core/experiment_runner.h"

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

// Allocations per launched request measured on this epoch: 743 over 50
// requests with the copy-free request path and the virtual-clock CPU (the
// per-copy request path it replaced made 2,142). The guard allows 25%
// growth over it.
constexpr double kBudgetPerRequest = 14.86;

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

TEST(RequestAllocationTest, BaseEpochAllocationsPerRequestStayWithinBudget) {
  DeploymentOptions options;
  options.seed = 11;
  Deployment deployment(MakeQtnpProfile(), options);
  ExperimentConfig config;
  config.crowd_step = 50;
  config.max_epochs = 1;
  EpochWindowHarness harness(deployment.Testbed());
  Coordinator coordinator(harness, config, 5);
  g_allocations = 0;
  ExperimentResult result = coordinator.Run(deployment.ObjectsFromContent(), {StageKind::kBase});
  g_counting = false;

  ASSERT_FALSE(result.aborted);
  ASSERT_EQ(result.stages.size(), 1u);
  ASSERT_FALSE(result.stages[0].epochs.empty());
  EXPECT_EQ(result.stages[0].epochs[0].samples_received, 50u);
  ASSERT_EQ(harness.Launched(), 50u);
  double per_request = static_cast<double>(g_allocations) / static_cast<double>(harness.Launched());
  std::printf("allocations: %llu over %zu launched requests (%.2f per request, budget %.2f)\n",
              static_cast<unsigned long long>(g_allocations), harness.Launched(), per_request,
              kBudgetPerRequest);
  EXPECT_LE(per_request, kBudgetPerRequest * 1.25);
}

}  // namespace
}  // namespace mfc
