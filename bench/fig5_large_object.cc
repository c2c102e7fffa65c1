// Figure 5: the Large Object lab workload — every client requests the same
// 100 KB object from the Apache box behind a 100 Mbit/s link. Response time
// rises with crowd size while CPU, memory and disk stay flat: the network is
// the constraint. We print the same two panels (median response time, network
// usage) plus the flat resource gauges.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/experiment_runner.h"
#include "src/core/sync_scheduler.h"
#include "src/telemetry/resource_monitor.h"
#include "src/telemetry/stats.h"

namespace mfc {
namespace {

void Run() {
  PrintHeader("Large Object lab workload (same 100 KB object)",
              "Figure 5 (Section 3.2): response time tracks network, other resources flat");

  SiteInstance instance = MakeLabValidationProfile();
  DeploymentOptions options;
  options.seed = 17;
  options.fleet_size = 55;
  options.lan_clients = true;
  options.jitter_sigma = 0.0;
  Deployment deployment(instance, options);
  SimTestbed& testbed = deployment.Testbed();

  // The probe object: the site's single 100 KB binary.
  StageObjects objects = deployment.ObjectsFromContent();
  HttpRequest request = HttpRequest::For(HttpMethod::kGet, *objects.large_object);
  auto shared_request = std::make_shared<const HttpRequest>(request);

  ResourceMonitor monitor(testbed.Loop(), Millis(20));
  monitor.AddGauge("cpu", [&] { return deployment.Server().CpuUtilization(); });
  monitor.AddGauge("mem", [&] { return deployment.Server().MemoryUsedBytes(); });
  monitor.Start();

  const size_t kClients = 50;
  std::vector<double> base(kClients, 0.0);
  std::vector<ClientLatencyEstimate> latencies;
  for (size_t i = 0; i < kClients; ++i) {
    latencies.push_back(
        ClientLatencyEstimate{i, testbed.MeasureCoordRtt(i), testbed.MeasureTargetRtt(i)});
    base[i] = testbed.FetchOnce(i, request).response_time;
  }

  printf("\n%-10s %-22s %-20s %-10s %-12s %-10s\n", "crowd", "median resp time (ms)",
         "net usage (KB/epoch)", "cpu (%)", "mem (MB)", "disk ops");
  for (size_t crowd = 5; crowd <= 50; crowd += 5) {
    double net_before = testbed.Wan().ServerLinkCumulativeBytes();
    double disk_before = deployment.Server().Disk().BusySeconds();
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
    double peak_cpu = monitor.Series("cpu").MaxInWindow(arrival - 1.0, arrival + 11.0);
    double peak_mem = monitor.Series("mem").MaxInWindow(arrival - 1.0, arrival + 11.0) / 1e6;
    std::vector<double> response;
    for (const auto& sample : samples) {
      response.push_back(sample.response_time);
    }
    double net_kb = (testbed.Wan().ServerLinkCumulativeBytes() - net_before) / 1e3;
    double disk_busy = deployment.Server().Disk().BusySeconds() - disk_before;
    printf("%-10zu %-22.1f %-20.0f %-10.1f %-12.0f %-10.3f\n", crowd,
           ToMillis(Median(response)), net_kb, 100.0 * peak_cpu, peak_mem, disk_busy);
    testbed.WaitUntil(testbed.Now() + 10.0);
  }
  printf("\nPaper shape: response time rises to ~400 ms at crowd 50; network KB scales\n"
         "with the crowd; CPU / memory / disk stay negligible throughout.\n");
}

}  // namespace
}  // namespace mfc

int main() {
  mfc::Run();
  return 0;
}
