// Figure 3: request arrival times at the target for an MFC crowd of 45
// clients, commands issued 15 s after the latency measurements. The paper
// reports ~70% of requests arriving within 5 ms of each other and ~90%
// within 30 ms.
#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/sim_testbed.h"
#include "src/core/sync_scheduler.h"
#include "src/net/wide_area.h"
#include "src/server/synthetic_server.h"
#include "src/telemetry/arrival_log.h"

namespace mfc {
namespace {

void Run() {
  PrintHeader("Request arrival synchronization, crowd of 45",
              "Figure 3 (Section 3.1): 70% within 5 ms, 90% within 30 ms");

  TestbedConfig config;
  config.wan.jitter_sigma = 0.03;
  Rng fleet_rng(2008);
  SimTestbed testbed(42, config, MakePlanetLabFleet(fleet_rng, 65, 0), nullptr);
  SyntheticModelServer server(testbed.Loop(), ConstantModel(0.0), 0.001, 200.0);
  testbed.SetTarget(&server);

  const size_t kCrowd = 45;
  std::vector<ClientLatencyEstimate> latencies;
  for (size_t i = 0; i < kCrowd; ++i) {
    latencies.push_back(
        ClientLatencyEstimate{i, testbed.MeasureCoordRtt(i), testbed.MeasureTargetRtt(i)});
  }
  SimTime arrival_target = testbed.Now() + 15.0;
  auto dispatch = ComputeDispatchTimes(latencies, arrival_target);
  auto request = std::make_shared<HttpRequest>();
  request->method = HttpMethod::kHead;
  request->target = "/";
  std::vector<CrowdRequestPlan> plans;
  for (size_t i = 0; i < kCrowd; ++i) {
    CrowdRequestPlan plan;
    plan.client_id = i;
    plan.request = request;
    plan.command_send_time = dispatch[i].command_send_time;
    plan.intended_arrival = dispatch[i].intended_arrival;
    plans.push_back(plan);
  }
  testbed.ExecuteCrowd(plans, arrival_target + 11.0);

  std::vector<SimTime> arrivals = server.Arrivals();
  std::vector<SimTime> relative;
  SimTime first = arrivals.empty() ? 0.0 : arrivals[0];
  for (SimTime t : arrivals) {
    first = std::min(first, t);
  }
  for (SimTime t : arrivals) {
    relative.push_back(t - first);
  }
  std::sort(relative.begin(), relative.end());

  printf("\n%-22s %s\n", "client request index", "arrival time offset (ms)");
  for (size_t i = 0; i < relative.size(); ++i) {
    printf("%-22zu %8.2f\n", i + 1, ToMillis(relative[i]));
  }

  ArrivalSpread spread = AnalyzeArrivals(arrivals);
  printf("\nrequests arrived        : %zu of %zu scheduled\n", spread.count, kCrowd);
  printf("full spread             : %.1f ms\n", ToMillis(spread.full_spread));
  printf("middle-90%% spread       : %.1f ms\n", ToMillis(spread.middle90_spread));
  printf("fraction within 5 ms    : %.0f%%   (paper: ~70%%)\n",
         100.0 * MaxFractionWithinWindow(arrivals, Millis(5)));
  printf("fraction within 30 ms   : %.0f%%   (paper: ~90%%)\n",
         100.0 * MaxFractionWithinWindow(arrivals, Millis(30)));
}

}  // namespace
}  // namespace mfc

int main() {
  mfc::Run();
  return 0;
}
