// Table 2: synchronization quality of MFC-mr requests against the QTP
// production system (16 load-balanced servers), from the merged server logs.
// For each epoch: requests scheduled, requests seen in the logs, and the
// time spread of the middle 90% of arrivals, per stage.
//
// Paper: Base/Small Query epochs land within 0.15-1.6 s; Large Object is
// looser (up to ~3.3 s at 375 scheduled requests) because transfers perturb
// the paths the sync estimates were made on.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/experiment_runner.h"
#include "src/core/sync_scheduler.h"
#include "src/telemetry/arrival_log.h"

namespace mfc {
namespace {

struct EpochRow {
  size_t scheduled;
  size_t received;
  double spread90;
};

std::vector<EpochRow> RunStage(Deployment& deployment, const HttpRequest& request_template,
                               bool unique_queries) {
  SimTestbed& testbed = deployment.Testbed();
  ServerCluster* cluster = deployment.Cluster();
  const size_t kClients = 75;
  const size_t kConnections = 5;  // the October 3 experiment: 5 parallel reqs

  std::vector<ClientLatencyEstimate> latencies;
  for (size_t i = 0; i < kClients; ++i) {
    latencies.push_back(
        ClientLatencyEstimate{i, testbed.MeasureCoordRtt(i), testbed.MeasureTargetRtt(i)});
  }

  auto shared_template = std::make_shared<const HttpRequest>(request_template);
  std::vector<EpochRow> rows;
  const size_t kEpochRequests[] = {25, 40, 55, 75, 100, 125, 175, 225, 275, 325, 375};
  for (size_t requests : kEpochRequests) {
    size_t clients = (requests + kConnections - 1) / kConnections;
    clients = std::min(clients, kClients);
    SimTime arrival = testbed.Now() + 15.0;
    std::vector<ClientLatencyEstimate> chosen(latencies.begin(),
                                              latencies.begin() + static_cast<long>(clients));
    auto dispatch = ComputeDispatchTimes(chosen, arrival);

    // Log watermark: arrivals after this index belong to this epoch.
    size_t log_before = cluster->MergedAccessLog().size();
    std::vector<CrowdRequestPlan> plans;
    size_t scheduled = 0;
    for (size_t i = 0; i < clients && scheduled < requests; ++i) {
      CrowdRequestPlan plan;
      plan.client_id = i;
      if (unique_queries) {
        auto request = std::make_shared<HttpRequest>(request_template);
        request->target += "&mfc=" + std::to_string(i);
        plan.request = std::move(request);
      } else {
        plan.request = shared_template;
      }
      plan.command_send_time = dispatch[i].command_send_time;
      plan.intended_arrival = dispatch[i].intended_arrival;
      plan.connections = std::min(kConnections, requests - scheduled);
      scheduled += plan.connections;
      plans.push_back(plan);
    }
    testbed.ExecuteCrowd(plans, arrival + 11.0);

    auto log = cluster->MergedAccessLog();
    std::vector<SimTime> arrivals;
    for (size_t i = log_before; i < log.size(); ++i) {
      if (log[i].is_mfc) {
        arrivals.push_back(log[i].arrival);
      }
    }
    ArrivalSpread spread = AnalyzeArrivals(arrivals);
    rows.push_back(EpochRow{scheduled, spread.count, spread.middle90_spread});
    testbed.WaitUntil(testbed.Now() + 10.0);
  }
  return rows;
}

void Run() {
  PrintHeader("MFC-mr request time spread at QTP (16-server production cluster)",
              "Table 2 (Section 4.1), October 3 experiment, 5 connections/client");

  DeploymentOptions options;
  options.seed = 1003;
  options.fleet_size = 75;
  options.control_loss_rate = 0.01;  // no retransmit: some commands are lost
  options.jitter_sigma = 0.18;  // rough PlanetLab-era path variability
  Deployment deployment(MakeQtpProfile(), options);

  StageObjects objects = deployment.ObjectsFromContent();
  struct StageSpec {
    const char* name;
    HttpRequest request;
    bool unique;
  };
  std::vector<StageSpec> stages;
  stages.push_back({"Base", HttpRequest::For(HttpMethod::kHead, *objects.base_page), false});
  stages.push_back(
      {"Small Qry", HttpRequest::For(HttpMethod::kGet, *objects.small_query), true});
  stages.push_back(
      {"Large Obj", HttpRequest::For(HttpMethod::kGet, *objects.large_object), false});

  for (const StageSpec& stage : stages) {
    printf("\n--- %s stage ---\n", stage.name);
    printf("%-12s %-12s %-20s\n", "scheduled", "in logs", "90% spread (s)");
    for (const EpochRow& row : RunStage(deployment, stage.request, stage.unique)) {
      printf("%-12zu %-12zu %-20.2f\n", row.scheduled, row.received, row.spread90);
    }
  }
  printf("\nPaper shape: nearly all scheduled requests appear in the logs; Base and\n"
         "Small Query spreads stay within ~0.15-1.6 s; Large Object spreads are\n"
         "looser (up to ~3.3 s) since bulk transfers perturb the latency estimates.\n");
}

}  // namespace
}  // namespace mfc

int main() {
  mfc::Run();
  return 0;
}
