// The MFC coordinator: orchestrates registration, per-stage delay
// computation, epochs, the check phase, and termination (Figure 2a).
#ifndef MFC_SRC_CORE_COORDINATOR_H_
#define MFC_SRC_CORE_COORDINATOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/core/config.h"
#include "src/core/crawler.h"
#include "src/core/harness.h"
#include "src/core/types.h"
#include "src/http/url.h"
#include "src/sim/rng.h"
#include "src/telemetry/trace.h"

namespace mfc {

// The concrete probe objects a run uses, one per stage. Stages whose object
// is absent are skipped (the paper's survey could only run Small Query
// against sites hosting at least one qualifying query URL, etc.).
struct StageObjects {
  std::optional<Url> base_page;
  std::optional<Url> large_object;
  std::optional<Url> small_query;
  // Whether distinct query strings yield distinct dynamic objects; when true
  // each client requests a unique object (Section 2.2.2).
  bool small_query_unique = true;
};

// Derives stage objects from a crawl profile.
StageObjects SelectStageObjects(const ContentProfile& profile, bool unique_queries = true);

// Section 6 "measurers": independent observers that request (possibly
// different) objects concurrently with every crowd, to expose cross-resource
// correlations.
struct MeasurerSpec {
  size_t client_id = 0;
  HttpRequest request;
};

class Coordinator {
 public:
  Coordinator(ClientHarness& harness, ExperimentConfig config, uint64_t seed = 1);

  // Registers measurers to ride along with each epoch. Their samples are
  // excluded from the decision metric and reported separately.
  void SetMeasurers(std::vector<MeasurerSpec> measurers);
  // Measurer samples per (stage, epoch index), populated during Run.
  const std::vector<std::vector<RequestSample>>& MeasurerSamples() const {
    return measurer_samples_;
  }

  // Runs the full experiment: registration check, then the given stages in
  // order. Stage list defaults to the paper's three.
  ExperimentResult Run(const StageObjects& objects);
  ExperimentResult Run(const StageObjects& objects, const std::vector<StageKind>& stages);

  // Optional tracing/metrics sink. When set, the run is wrapped in
  // "experiment" > "stage" > "prepare"/"epoch"/"check_phase"/"stop_decision"
  // spans (the decision metric rides as span attributes), epoch counters and
  // metric histograms accumulate in the registry, the coordinator publishes
  // its current stage label for the server's request spans, and — when
  // telemetry->progress — live per-epoch lines go to stderr.
  void SetTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

  const ExperimentConfig& Config() const { return config_; }

 private:
  struct ClientState {
    size_t id = 0;
    SimDuration coord_rtt = 0.0;
    SimDuration target_rtt = 0.0;
    SimDuration base_response_time = 0.0;
    // The request this client issues throughout the stage, built once.
    std::shared_ptr<const HttpRequest> request;
    bool usable = false;
    // Graceful-degradation bookkeeping: a client that misses (no sample, or
    // nothing but timeouts) config.evict_after_misses epochs in a row is
    // marked unhealthy and silently replaced by a spare from the usable pool.
    size_t consecutive_misses = 0;
    bool healthy = true;
  };

  // Builds the request client |id| issues for |kind|. PrepareClients builds
  // it once per stage; the base measurement and every epoch share it, so
  // they normalize the same object.
  HttpRequest RequestFor(StageKind kind, const StageObjects& objects, size_t client_id) const;

  // Delay computation + sequential base measurements for one stage.
  std::vector<ClientState> PrepareClients(StageKind kind, const StageObjects& objects,
                                          const std::vector<size_t>& registered);

  StageResult RunStage(StageKind kind, const StageObjects& objects,
                       const std::vector<size_t>& registered);

  // Executes one epoch of |crowd_size| concurrent requests; returns the
  // coordinator's view of it.
  EpochResult RunEpoch(StageKind kind, std::vector<ClientState>& clients, size_t crowd_size,
                       bool check_phase);

  double MetricPercentile(StageKind kind) const;

  // Span helpers; no-ops (returning 0) without a tracer.
  SpanId BeginSpan(const char* name, SpanId parent);
  void EndSpan(SpanId id);

  ClientHarness& harness_;
  ExperimentConfig config_;
  Rng rng_;
  std::vector<MeasurerSpec> measurers_;
  // measurers_[i].request, shared by every epoch's plan.
  std::vector<std::shared_ptr<const HttpRequest>> measurer_requests_;
  std::vector<std::vector<RequestSample>> measurer_samples_;
  Telemetry* telemetry_ = nullptr;
  SpanId experiment_span_ = 0;
  // Parent for the next epoch span: the stage span, or the enclosing
  // check-phase span during confirmation runs.
  SpanId epoch_parent_ = 0;
};

}  // namespace mfc

#endif  // MFC_SRC_CORE_COORDINATOR_H_
