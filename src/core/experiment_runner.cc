#include "src/core/experiment_runner.h"

#include <cassert>
#include <utility>

namespace mfc {

Deployment::Deployment(const SiteInstance& instance, const DeploymentOptions& options) {
  Rng rng(options.seed);
  content_ = GenerateSite(rng, instance.site);

  TestbedConfig testbed_config;
  testbed_config.wan.server_access_bps = instance.server_access_bps;
  testbed_config.wan.jitter_sigma = options.jitter_sigma;
  testbed_config.wan.control_loss_rate = options.control_loss_rate;

  auto fleet = options.lan_clients ? MakeLanFleet(options.fleet_size)
                                   : MakePlanetLabFleet(rng, options.fleet_size);

  // The testbed owns the event loop the server runs on, so the server is
  // built after it and bound as its target.
  testbed_ = std::make_unique<SimTestbed>(rng.NextU64(), testbed_config, std::move(fleet),
                                          nullptr);
  if (instance.replicas > 1) {
    cluster_ = std::make_unique<ServerCluster>(testbed_->Loop(), instance.server,
                                               instance.replicas, &content_);
    target_ = cluster_.get();
  } else {
    server_ = std::make_unique<WebServer>(testbed_->Loop(), instance.server, &content_);
    target_ = server_.get();
  }
  testbed_->SetTarget(target_);

  if (options.background_rps > 0.0) {
    BackgroundTrafficConfig bg;
    bg.requests_per_second = options.background_rps;
    // Background responses stream to random fleet clients so they contend
    // for the same server access link as the probes.
    background_ = std::make_unique<BackgroundTraffic>(
        testbed_->Loop(), rng, bg, *target_, [this]() -> ResponseTransport {
          size_t client = background_client_++ % testbed_->ClientCount();
          return [this, client](HttpStatus, double bytes, std::function<void()> on_sent) {
            testbed_->Wan().StartDownload(client, bytes, std::move(on_sent));
          };
        });
  }
}

WebServer& Deployment::Server() {
  if (server_ != nullptr) {
    return *server_;
  }
  assert(cluster_ != nullptr);
  return cluster_->Replica(0);
}

ContentProfile Deployment::CrawlProfile(CrawlLimits limits, ProfileThresholds thresholds) {
  Url root;
  root.host = "target.example.com";
  Crawler crawler(*testbed_, limits, thresholds);
  return crawler.Crawl(root);
}

StageObjects Deployment::ProfileByCrawl(CrawlLimits limits, ProfileThresholds thresholds) {
  // Query uniqueness is assumed, as in the paper.
  return SelectStageObjects(CrawlProfile(limits, thresholds));
}

StageObjects Deployment::ObjectsFromContent() const {
  StageObjects objects;
  ProfileThresholds thresholds;
  Url root;
  root.host = "target.example.com";
  if (content_.BasePage() != nullptr) {
    Url base = root;
    base.path = content_.BasePage()->path;
    objects.base_page = base;
  }
  const WebObject* best_large = nullptr;
  const WebObject* first_query = nullptr;
  for (const WebObject& object : content_.Objects()) {
    if (!object.dynamic && object.size_bytes >= thresholds.large_object_min_bytes &&
        object.size_bytes <= 2 * 1024 * 1024) {
      if (best_large == nullptr || object.size_bytes > best_large->size_bytes) {
        best_large = &object;
      }
    }
    if (object.dynamic && object.size_bytes < thresholds.small_query_max_bytes &&
        first_query == nullptr) {
      first_query = &object;
    }
  }
  if (best_large != nullptr) {
    Url large = root;
    large.path = best_large->path;
    objects.large_object = large;
  }
  if (first_query != nullptr) {
    Url query = root;
    query.path = first_query->path;
    query.query = "id=0";
    objects.small_query = query;
    objects.small_query_unique = first_query->unique_per_query;
  }
  return objects;
}

ExperimentResult Deployment::RunMfc(const ExperimentConfig& config, const StageObjects& objects,
                                    uint64_t coordinator_seed) {
  Coordinator coordinator(*testbed_, config, coordinator_seed);
  return coordinator.Run(objects);
}

void Deployment::StartBackground() {
  if (background_ != nullptr) {
    background_->Start();
  }
}

void Deployment::StopBackground() {
  if (background_ != nullptr) {
    background_->Stop();
  }
}

uint64_t Deployment::BackgroundRequests() const {
  return background_ != nullptr ? background_->RequestsIssued() : 0;
}

void Deployment::SetTelemetry(Telemetry* telemetry) {
  testbed_->Wan().Flows().SetMetrics(telemetry != nullptr ? telemetry->metrics : nullptr);
  if (server_ != nullptr) {
    server_->SetTelemetry(telemetry);
  }
  if (cluster_ != nullptr) {
    for (size_t i = 0; i < cluster_->ReplicaCount(); ++i) {
      cluster_->Replica(i).SetTelemetry(telemetry);
    }
  }
}

ExperimentResult RunSiteExperiment(const SiteInstance& instance, const ExperimentConfig& config,
                                   const std::vector<StageKind>& stages, uint64_t seed,
                                   Telemetry* telemetry) {
  DeploymentOptions options;
  options.seed = seed;
  options.fleet_size = std::max<size_t>(config.min_clients, 85);
  // Long-tail instances carry ambient visitor load; classic cohorts leave
  // this at 0 and the deployment never constructs a background generator, so
  // their event streams are bit-for-bit what they were before the field
  // existed.
  options.background_rps = instance.background_rps;
  Deployment deployment(instance, options);
  if (telemetry != nullptr) {
    deployment.SetTelemetry(telemetry);
  }
  StageObjects objects = deployment.ObjectsFromContent();
  Coordinator coordinator(deployment.Testbed(), config, seed ^ 0x9e3779b9);
  if (telemetry != nullptr) {
    coordinator.SetTelemetry(telemetry);
  }
  deployment.StartBackground();
  ExperimentResult result = coordinator.Run(objects, stages);
  deployment.StopBackground();
  return result;
}

}  // namespace mfc
