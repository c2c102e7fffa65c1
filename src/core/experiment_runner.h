// Convenience wiring: SiteInstance -> generated content + server (or
// cluster) + wide-area testbed + optional background traffic + coordinator.
// Benches, examples and integration tests all build deployments this way.
#ifndef MFC_SRC_CORE_EXPERIMENT_RUNNER_H_
#define MFC_SRC_CORE_EXPERIMENT_RUNNER_H_

#include <memory>
#include <optional>

#include "src/core/coordinator.h"
#include "src/core/population.h"
#include "src/core/sim_testbed.h"
#include "src/server/background_traffic.h"
#include "src/server/cluster.h"
#include "src/server/web_server.h"

namespace mfc {

struct DeploymentOptions {
  uint64_t seed = 42;
  size_t fleet_size = 85;          // available PlanetLab-like clients
  double background_rps = 0.0;     // Poisson background request rate
  double jitter_sigma = 0.05;
  double control_loss_rate = 0.0;
  // Use a LAN fleet (Section 3 lab experiments) instead of wide-area clients.
  bool lan_clients = false;
};

// Owns every moving part of one simulated MFC deployment.
class Deployment {
 public:
  Deployment(const SiteInstance& instance, const DeploymentOptions& options);
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  SimTestbed& Testbed() { return *testbed_; }
  HttpTarget& Target() { return *target_; }
  // The single server, or the first replica of a cluster.
  WebServer& Server();
  ServerCluster* Cluster() { return cluster_.get(); }
  const ContentStore& Content() const { return content_; }
  EventLoop& Loop() { return testbed_->Loop(); }

  // Profiles the target by actually crawling it from the coordinator's
  // vantage point (the non-cooperating-site path).
  StageObjects ProfileByCrawl(CrawlLimits limits = {}, ProfileThresholds thresholds = {});
  // The crawl profile itself, for inspection.
  ContentProfile CrawlProfile(CrawlLimits limits = {}, ProfileThresholds thresholds = {});

  // Operator-supplied objects (the cooperating-site path): derived directly
  // from the hosted content without crawling.
  StageObjects ObjectsFromContent() const;

  // Runs a full MFC experiment against this deployment.
  ExperimentResult RunMfc(const ExperimentConfig& config, const StageObjects& objects,
                          uint64_t coordinator_seed = 7);

  void StartBackground();
  void StopBackground();
  uint64_t BackgroundRequests() const;

  // Wires a tracing/metrics sink into the server (every replica of a
  // cluster). Coordinators built on this deployment attach separately via
  // Coordinator::SetTelemetry on the same Telemetry object.
  void SetTelemetry(Telemetry* telemetry);

 private:
  ContentStore content_;
  size_t background_client_ = 0;
  std::unique_ptr<WebServer> server_;
  std::unique_ptr<ServerCluster> cluster_;
  HttpTarget* target_ = nullptr;
  std::unique_ptr<SimTestbed> testbed_;
  std::unique_ptr<BackgroundTraffic> background_;
};

// Deploys |instance|, derives its stage objects from content, and runs the
// requested stages. Fully self-contained (own EventLoop / Rng / testbed), so
// calls with distinct instances are safe to run on distinct threads. When
// |telemetry| is non-null its tracer/metrics (which must be private to this
// call's thread) receive the run's spans and counters.
ExperimentResult RunSiteExperiment(const SiteInstance& instance, const ExperimentConfig& config,
                                   const std::vector<StageKind>& stages, uint64_t seed,
                                   Telemetry* telemetry = nullptr);

}  // namespace mfc

#endif  // MFC_SRC_CORE_EXPERIMENT_RUNNER_H_
