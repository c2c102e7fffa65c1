#include "perfbench/timed_harness.h"

#include <algorithm>
#include <memory>
#include <type_traits>

namespace mfc::perfbench {
namespace {

// Runs |fn| and adds its host time to |bucket|.
template <typename Fn>
auto Timed(double& bucket, Fn&& fn) {
  Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    bucket += SecondsSince(start);
  } else {
    auto value = fn();
    bucket += SecondsSince(start);
    return value;
  }
}

void AddServerCounters(WebServer& server, EngineCounters& counters) {
  counters.requests += server.AccessLog().size();
  counters.rejected_503 += server.Rejected503();
  counters.db_queries += server.Db().ExecutedQueries();
  counters.query_cache_hits += server.Db().QueryCache().Hits();
  counters.query_cache_misses += server.Db().QueryCache().Misses();
  counters.page_cache_hits += server.PageCache().Hits();
  counters.page_cache_misses += server.PageCache().Misses();
}

void AddCounters(Deployment& deployment, const ExperimentResult& result,
                 EngineCounters& counters) {
  counters.events += deployment.Loop().ExecutedCount();
  const FlowNetworkStats& net = deployment.Testbed().Wan().Flows().Stats();
  counters.reallocs += net.reallocs;
  counters.full_reallocs += net.full_reallocs;
  counters.flows_touched += net.flows_touched;
  counters.links_touched += net.links_touched;
  counters.no_progress += net.no_progress;
  if (ServerCluster* cluster = deployment.Cluster()) {
    for (size_t i = 0; i < cluster->ReplicaCount(); ++i) {
      AddServerCounters(cluster->Replica(i), counters);
    }
  } else {
    AddServerCounters(deployment.Server(), counters);
  }
  for (const StageResult& stage : result.stages) {
    counters.epochs += stage.epochs.size();
    counters.check_epochs += static_cast<uint64_t>(
        std::count_if(stage.epochs.begin(), stage.epochs.end(),
                      [](const EpochResult& epoch) { return epoch.check_phase; }));
  }
}

}  // namespace

size_t TimedHarness::ClientCount() const {
  return Timed(times_.other, [&] { return inner_.ClientCount(); });
}

std::vector<size_t> TimedHarness::ProbeClients(SimDuration timeout) {
  return Timed(times_.probe_rtt, [&] { return inner_.ProbeClients(timeout); });
}

SimDuration TimedHarness::MeasureCoordRtt(size_t client) {
  return Timed(times_.probe_rtt, [&] { return inner_.MeasureCoordRtt(client); });
}

SimDuration TimedHarness::MeasureTargetRtt(size_t client) {
  return Timed(times_.probe_rtt, [&] { return inner_.MeasureTargetRtt(client); });
}

RequestSample TimedHarness::FetchOnce(size_t client, const HttpRequest& request) {
  return Timed(times_.fetch, [&] { return inner_.FetchOnce(client, request); });
}

std::vector<RequestSample> TimedHarness::ExecuteCrowd(const std::vector<CrowdRequestPlan>& plans,
                                                      SimTime poll_time) {
  return Timed(times_.crowd, [&] { return inner_.ExecuteCrowd(plans, poll_time); });
}

SimTime TimedHarness::Now() const {
  return Timed(times_.other, [&] { return inner_.Now(); });
}

void TimedHarness::WaitUntil(SimTime t) {
  Timed(times_.wait, [&] { inner_.WaitUntil(t); });
}

bool TimedHarness::ClientHealthy(size_t client) const {
  return Timed(times_.other, [&] { return inner_.ClientHealthy(client); });
}

ExperimentResult RunSiteTraced(const SiteInstance& instance, const ExperimentConfig& config,
                               const std::vector<StageKind>& stages, uint64_t seed,
                               Telemetry* telemetry, LayerTimes& times, EngineCounters& counters) {
  // The same steps, options and seeds as RunSiteExperiment
  // (src/core/experiment_runner.cc); the self-test and the per-run gate
  // check that the verdicts match it exactly.
  Clock::time_point start = Clock::now();
  DeploymentOptions options;
  options.seed = seed;
  options.fleet_size = std::max<size_t>(config.min_clients, 85);
  options.background_rps = instance.background_rps;
  auto deployment = std::make_unique<Deployment>(instance, options);
  if (telemetry != nullptr) {
    deployment->SetTelemetry(telemetry);
  }
  StageObjects objects = deployment->ObjectsFromContent();
  TimedHarness harness(deployment->Testbed(), times);
  auto coordinator = std::make_unique<Coordinator>(harness, config, seed ^ 0x9e3779b9);
  if (telemetry != nullptr) {
    coordinator->SetTelemetry(telemetry);
  }
  deployment->StartBackground();
  times.deploy += SecondsSince(start);

  ExperimentResult result =
      Timed(times.coordinator, [&] { return coordinator->Run(objects, stages); });

  Clock::time_point teardown = Clock::now();
  deployment->StopBackground();
  times.deploy += SecondsSince(teardown);
  AddCounters(*deployment, result, counters);  // untimed: benchmark bookkeeping
  teardown = Clock::now();
  coordinator.reset();
  deployment.reset();
  times.deploy += SecondsSince(teardown);
  return result;
}

}  // namespace mfc::perfbench
