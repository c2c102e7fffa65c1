// Figure 6: the Small Query lab workload against the FastCGI back-end —
// every client issues the same 50,000-row aggregate query (response < 100 B).
// FastCGI forks a process per in-flight request, each inheriting the parent
// image (footnote 1), so memory climbs with the crowd until the box thrashes;
// response time rises with it. The Mongrel configuration (fixed worker pool)
// is printed alongside: it stays flat, as the paper's text reports.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/experiment_runner.h"
#include "src/core/sync_scheduler.h"
#include "src/telemetry/resource_monitor.h"
#include "src/telemetry/stats.h"

namespace mfc {
namespace {

struct Row {
  size_t crowd;
  double median_ms;
  double cpu_pct;
  double mem_mb;
};

std::vector<Row> RunVariant(CgiModel model) {
  SiteInstance instance = MakeLabValidationProfile();
  instance.server.cgi_model = model;
  DeploymentOptions options;
  options.seed = 23;
  options.fleet_size = 55;
  options.lan_clients = true;
  options.jitter_sigma = 0.0;
  Deployment deployment(instance, options);
  SimTestbed& testbed = deployment.Testbed();

  StageObjects objects = deployment.ObjectsFromContent();
  HttpRequest request = HttpRequest::For(HttpMethod::kGet, *objects.small_query);
  auto shared_request = std::make_shared<const HttpRequest>(request);

  // atop-style sampler on the server box.
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

  std::vector<Row> rows;
  for (size_t crowd = 5; crowd <= 50; crowd += 5) {
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
    Row row;
    row.crowd = crowd;
    row.median_ms = ToMillis(Median(normalized));
    row.cpu_pct = 100.0 * monitor.Series("cpu").MaxInWindow(arrival - 1.0, arrival + 11.0);
    row.mem_mb = monitor.Series("mem").MaxInWindow(arrival - 1.0, arrival + 11.0) / 1e6;
    rows.push_back(row);
    testbed.WaitUntil(testbed.Now() + 10.0);
  }
  monitor.Stop();
  return rows;
}

void Print(const std::string& name, const std::vector<Row>& rows) {
  printf("\n--- %s ---\n", name.c_str());
  printf("%-10s %-26s %-14s %-16s\n", "crowd", "median incr in resp (ms)", "peak cpu (%)",
         "peak memory (MB)");
  for (const Row& row : rows) {
    printf("%-10zu %-26.1f %-14.1f %-16.0f\n", row.crowd, row.median_ms, row.cpu_pct,
           row.mem_mb);
  }
}

}  // namespace
}  // namespace mfc

int main() {
  mfc::PrintHeader("Small Query lab workload (same 50k-row query, <100 B response)",
                   "Figure 6 (Section 3.2): FastCGI memory blow-up; Mongrel stays flat");
  mfc::Print("FastCGI (process per request, inherited image)",
             mfc::RunVariant(mfc::CgiModel::kFastCgi));
  mfc::Print("Mongrel (fixed worker pool) — paper: response stays within ~10 ms",
             mfc::RunVariant(mfc::CgiModel::kMongrel));
  printf("\nPaper shape: FastCGI memory grows toward ~1 GB and response time toward\n"
         "1-2 s by crowd 45-50; Mongrel memory and response time stay flat.\n");
  return 0;
}
