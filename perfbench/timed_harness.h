// Per-layer attribution measured from outside the engine.
//
// The traced run replays RunSiteExperiment step by step and times every call
// the benchmark makes into a layer's public API: site sampling (population),
// Deployment construction and teardown (experiment_runner), Coordinator::Run
// (coordinator + inference), and — through a forwarding ClientHarness — each
// call the coordinator makes into the simulated testbed. Host time inside a
// harness call cannot be split among sim, net and server from here; those
// layers are described by the engine's public counters instead.
#ifndef MFC_PERFBENCH_TIMED_HARNESS_H_
#define MFC_PERFBENCH_TIMED_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/core/experiment_runner.h"

namespace mfc::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Host seconds spent inside each layer's calls, summed over sites.
struct LayerTimes {
  double population = 0.0;   // SampleSiteAt
  double deploy = 0.0;       // Deployment + Coordinator construction, stage objects,
                             // background start/stop, teardown
  double coordinator = 0.0;  // Coordinator::Run, harness calls included
  double crowd = 0.0;        // ClientHarness::ExecuteCrowd
  double fetch = 0.0;        // ClientHarness::FetchOnce
  double probe_rtt = 0.0;    // ProbeClients, MeasureCoordRtt, MeasureTargetRtt
  double wait = 0.0;         // WaitUntil
  double other = 0.0;        // Now, ClientCount, ClientHealthy
  double merge = 0.0;        // MetricsRegistry::Merge into the survey registry
  double journal = 0.0;      // site record construction + SurveyJournal::AppendSite

  // Time inside the testbed, i.e. in the engine (sim + net + server).
  double Testbed() const { return crowd + fetch + probe_rtt + wait + other; }
  // Every span the traced run records; the coordinator span covers the testbed.
  double Attributed() const { return population + deploy + coordinator + merge + journal; }

  // Adds |t| with every span multiplied by |scale|.
  void Add(const LayerTimes& t, double scale) {
    population += t.population * scale;
    deploy += t.deploy * scale;
    coordinator += t.coordinator * scale;
    crowd += t.crowd * scale;
    fetch += t.fetch * scale;
    probe_rtt += t.probe_rtt * scale;
    wait += t.wait * scale;
    other += t.other * scale;
    merge += t.merge * scale;
    journal += t.journal * scale;
  }
};

// The engine's public counters, summed over sites.
struct EngineCounters {
  uint64_t events = 0;         // EventLoop::ExecutedCount
  uint64_t reallocs = 0;       // FlowNetworkStats
  uint64_t full_reallocs = 0;
  uint64_t flows_touched = 0;
  uint64_t links_touched = 0;
  uint64_t no_progress = 0;
  uint64_t requests = 0;       // access-log entries, MFC and background
  uint64_t rejected_503 = 0;
  uint64_t db_queries = 0;
  uint64_t query_cache_hits = 0;
  uint64_t query_cache_misses = 0;
  uint64_t page_cache_hits = 0;
  uint64_t page_cache_misses = 0;
  uint64_t epochs = 0;         // coordinator epochs, check-phase crowds included
  uint64_t check_epochs = 0;

  void Add(const EngineCounters& c) {
    events += c.events;
    reallocs += c.reallocs;
    full_reallocs += c.full_reallocs;
    flows_touched += c.flows_touched;
    links_touched += c.links_touched;
    no_progress += c.no_progress;
    requests += c.requests;
    rejected_503 += c.rejected_503;
    db_queries += c.db_queries;
    query_cache_hits += c.query_cache_hits;
    query_cache_misses += c.query_cache_misses;
    page_cache_hits += c.page_cache_hits;
    page_cache_misses += c.page_cache_misses;
    epochs += c.epochs;
    check_epochs += c.check_epochs;
  }
};

// Forwards every ClientHarness call to |inner| and charges its host time to
// the matching LayerTimes bucket.
class TimedHarness : public ClientHarness {
 public:
  TimedHarness(ClientHarness& inner, LayerTimes& times) : inner_(inner), times_(times) {}

  size_t ClientCount() const override;
  std::vector<size_t> ProbeClients(SimDuration timeout) override;
  SimDuration MeasureCoordRtt(size_t client) override;
  SimDuration MeasureTargetRtt(size_t client) override;
  RequestSample FetchOnce(size_t client, const HttpRequest& request) override;
  std::vector<RequestSample> ExecuteCrowd(const std::vector<CrowdRequestPlan>& plans,
                                          SimTime poll_time) override;
  SimTime Now() const override;
  void WaitUntil(SimTime t) override;
  bool ClientHealthy(size_t client) const override;

 private:
  ClientHarness& inner_;
  LayerTimes& times_;
};

// RunSiteExperiment, replayed step by step with every layer call timed into
// |times| and the engine's counters added to |counters| after the run. Must
// return exactly what RunSiteExperiment returns for the same arguments.
ExperimentResult RunSiteTraced(const SiteInstance& instance, const ExperimentConfig& config,
                               const std::vector<StageKind>& stages, uint64_t seed,
                               Telemetry* telemetry, LayerTimes& times, EngineCounters& counters);

}  // namespace mfc::perfbench

#endif  // MFC_PERFBENCH_TIMED_HARNESS_H_
