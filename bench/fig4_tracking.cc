// Figure 4: MFC's measured median normalized response time tracking the
// target's synthetic response-time models — (a) linear, (b) exponential —
// as a function of crowd size.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/coordinator.h"
#include "src/core/sim_testbed.h"
#include "src/core/sync_scheduler.h"
#include "src/server/synthetic_server.h"
#include "src/telemetry/stats.h"

namespace mfc {
namespace {

// Runs fixed-size synchronized crowds (no stop rule: we want the full curve)
// and returns (crowd, median normalized ms) pairs.
void RunModel(const std::string& name, ResponseTimeModel model,
              ResponseTimeModel ideal /* same shape, for the printed truth */) {
  TestbedConfig config;
  config.wan.jitter_sigma = 0.02;
  Rng fleet_rng(7);
  SimTestbed testbed(1234, config, MakePlanetLabFleet(fleet_rng, 65, 0), nullptr);
  SyntheticModelServer server(testbed.Loop(), std::move(model), 0.002, 500.0);
  testbed.SetTarget(&server);

  // Base response time per client, measured sequentially.
  const size_t kClients = 60;
  std::vector<double> base(kClients, 0.0);
  std::vector<ClientLatencyEstimate> latencies;
  HttpRequest request;
  request.method = HttpMethod::kGet;
  request.target = "/";
  auto shared_request = std::make_shared<const HttpRequest>(request);
  for (size_t i = 0; i < kClients; ++i) {
    latencies.push_back(
        ClientLatencyEstimate{i, testbed.MeasureCoordRtt(i), testbed.MeasureTargetRtt(i)});
    base[i] = testbed.FetchOnce(i, request).response_time;
  }

  printf("\n--- %s model ---\n", name.c_str());
  printf("%-10s %-26s %-26s\n", "crowd", "measured median incr (ms)", "ideal model incr (ms)");
  for (size_t crowd = 5; crowd <= 60; crowd += 5) {
    SimTime arrival = testbed.Now() + 15.0;
    std::vector<ClientLatencyEstimate> chosen(latencies.begin(),
                                              latencies.begin() + static_cast<long>(crowd));
    auto dispatch = ComputeDispatchTimes(chosen, arrival);
    std::vector<CrowdRequestPlan> plans;
    for (size_t i = 0; i < crowd; ++i) {
      CrowdRequestPlan plan;
      plan.client_id = i;
      plan.request = shared_request;
      plan.command_send_time = dispatch[i].command_send_time;
      plan.intended_arrival = dispatch[i].intended_arrival;
      plans.push_back(plan);
    }
    auto samples = testbed.ExecuteCrowd(plans, arrival + 11.0);
    std::vector<double> normalized;
    for (const auto& sample : samples) {
      normalized.push_back(sample.response_time - base[sample.client_id]);
    }
    printf("%-10zu %-26.1f %-26.1f\n", crowd, ToMillis(Median(normalized)),
           ToMillis(ideal(crowd)));
    testbed.WaitUntil(testbed.Now() + 10.0);
  }
}

}  // namespace
}  // namespace mfc

int main() {
  mfc::PrintHeader("Tracking synthetic response-time functions",
                   "Figure 4 (Section 3.1): median tracks linear & exponential models");
  mfc::RunModel("linear (5 ms/request)", mfc::LinearModel(0.005), mfc::LinearModel(0.005));
  mfc::RunModel("exponential", mfc::ExponentialModel(0.010, 2.3, 30),
                mfc::ExponentialModel(0.010, 2.3, 30));
  return 0;
}
