#include "src/core/coordinator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>

#include "src/core/sync_scheduler.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/stats.h"

namespace mfc {

StageObjects SelectStageObjects(const ContentProfile& profile, bool unique_queries) {
  StageObjects objects;
  objects.base_page = profile.base_page;
  if (const DiscoveredObject* large = profile.PickLargeObject()) {
    objects.large_object = large->url;
  }
  if (const DiscoveredObject* query = profile.PickSmallQuery()) {
    objects.small_query = query->url;
  }
  objects.small_query_unique = unique_queries;
  return objects;
}

Coordinator::Coordinator(ClientHarness& harness, ExperimentConfig config, uint64_t seed)
    : harness_(harness), config_(config), rng_(seed) {}

SpanId Coordinator::BeginSpan(const char* name, SpanId parent) {
  if (telemetry_ == nullptr || telemetry_->tracer == nullptr) {
    return 0;
  }
  return telemetry_->tracer->StartSpan(name, "coord", parent, harness_.Now());
}

void Coordinator::EndSpan(SpanId id) {
  if (id != 0) {
    telemetry_->tracer->EndSpan(id, harness_.Now());
  }
}

void Coordinator::SetMeasurers(std::vector<MeasurerSpec> measurers) {
  measurers_ = std::move(measurers);
  measurer_requests_.clear();
  for (const MeasurerSpec& m : measurers_) {
    measurer_requests_.push_back(std::make_shared<const HttpRequest>(m.request));
  }
}

double Coordinator::MetricPercentile(StageKind kind) const {
  // Large Object demands that 90% of clients observe the degradation (the
  // 10th percentile must exceed θ) so congestion at shared remote
  // bottlenecks — which only some clients sit behind — is not mistaken for
  // the server's access link (Section 2.2.3). Every other stage uses the
  // median.
  return kind == StageKind::kLargeObject ? config_.large_object_percentile : 50.0;
}

HttpRequest Coordinator::RequestFor(StageKind kind, const StageObjects& objects,
                                    size_t client_id) const {
  switch (kind) {
    case StageKind::kBase:
      return HttpRequest::For(HttpMethod::kHead, *objects.base_page);
    case StageKind::kLargeObject:
      // Every client requests the same large object: server-side caching then
      // keeps the storage sub-system out of the picture (Section 2.2.2).
      return HttpRequest::For(HttpMethod::kGet, *objects.large_object);
    case StageKind::kSmallQuery: {
      Url url = *objects.small_query;
      if (objects.small_query_unique) {
        // A unique dynamically generated object per client. Stable across
        // epochs so the base measurement normalizes the same request.
        std::string param = "mfc=" + std::to_string(client_id);
        url.query = url.query.empty() ? param : url.query + "&" + param;
      }
      return HttpRequest::For(HttpMethod::kGet, url);
    }
  }
  return HttpRequest::For(HttpMethod::kGet, *objects.base_page);
}

std::vector<Coordinator::ClientState> Coordinator::PrepareClients(
    StageKind kind, const StageObjects& objects, const std::vector<size_t>& registered) {
  std::vector<ClientState> clients;
  clients.reserve(registered.size());
  for (size_t id : registered) {
    ClientState state;
    state.id = id;
    state.coord_rtt = harness_.MeasureCoordRtt(id);
    state.target_rtt = harness_.MeasureTargetRtt(id);
    state.request = std::make_shared<const HttpRequest>(RequestFor(kind, objects, id));
    // Base response time, measured sequentially so clients do not perturb
    // each other (Section 2.2.3).
    RequestSample base = harness_.FetchOnce(id, *state.request);
    state.base_response_time = base.response_time;
    state.usable = !base.timed_out && IsSuccess(base.code);
    clients.push_back(state);
  }
  return clients;
}

EpochResult Coordinator::RunEpoch(StageKind kind, std::vector<ClientState>& clients,
                                  size_t crowd_size, bool check_phase) {
  EpochResult result;
  result.crowd_size = crowd_size;
  result.check_phase = check_phase;
  SpanId epoch_span = BeginSpan("epoch", epoch_parent_);

  // Random participant selection (Figure 2a) decouples the measured medians
  // from any one client's local conditions. Measurer hosts never join the
  // crowd: they must observe it from outside.
  std::vector<ClientState*> usable;
  for (ClientState& c : clients) {
    bool is_measurer = false;
    for (const MeasurerSpec& m : measurers_) {
      if (m.client_id == c.id) {
        is_measurer = true;
      }
    }
    if (c.usable && c.healthy && !is_measurer) {
      usable.push_back(&c);
    }
  }
  rng_.Shuffle(usable.begin(), usable.end());
  size_t per_client = std::max<size_t>(1, config_.requests_per_client);
  size_t wanted_clients = (crowd_size + per_client - 1) / per_client;
  size_t n = std::min(wanted_clients, usable.size());

  std::vector<ClientLatencyEstimate> latencies;
  latencies.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    latencies.push_back(ClientLatencyEstimate{usable[i]->id, usable[i]->coord_rtt,
                                              usable[i]->target_rtt});
  }
  for (const MeasurerSpec& m : measurers_) {
    latencies.push_back(ClientLatencyEstimate{m.client_id, 0.0, 0.0});
  }

  SimTime arrival = harness_.Now() + std::max(config_.schedule_lead, RequiredLead(latencies));
  std::vector<DispatchTime> dispatch =
      ComputeDispatchTimes(latencies, arrival, config_.stagger_spacing);

  std::vector<CrowdRequestPlan> plans;
  plans.reserve(n + measurers_.size());
  for (size_t i = 0; i < n; ++i) {
    CrowdRequestPlan plan;
    plan.client_id = usable[i]->id;
    plan.request = usable[i]->request;
    plan.command_send_time = dispatch[i].command_send_time;
    plan.intended_arrival = dispatch[i].intended_arrival;
    plan.connections = per_client;
    plans.push_back(std::move(plan));
  }
  for (size_t i = 0; i < measurers_.size(); ++i) {
    CrowdRequestPlan plan;
    plan.client_id = measurers_[i].client_id;
    plan.request = measurer_requests_[i];
    plan.command_send_time = dispatch[n + i].command_send_time;
    plan.intended_arrival = dispatch[n + i].intended_arrival;
    plan.connections = 1;
    plans.push_back(std::move(plan));
  }

  // All requests start by ~arrival and settle within the kill timer; poll
  // shortly after (Figure 2a: "Wait 10s after all clients are scheduled,
  // then poll each client").
  SimTime last_arrival =
      arrival + config_.stagger_spacing * static_cast<double>(latencies.size());
  SimTime poll = last_arrival + config_.request_timeout + Seconds(1);
  std::vector<RequestSample> raw = harness_.ExecuteCrowd(plans, poll);

  // Normalize against per-client base response times; separate measurers.
  // participant[id] is the index into usable[0, n) of client |id|, if it is
  // in this crowd; answered[i] counts participant i's non-timeout samples.
  constexpr size_t kNotParticipant = SIZE_MAX;
  size_t id_bound = 0;
  for (size_t i = 0; i < n; ++i) {
    id_bound = std::max(id_bound, usable[i]->id + 1);
  }
  std::vector<size_t> participant(id_bound, kNotParticipant);
  for (size_t i = 0; i < n; ++i) {
    participant[usable[i]->id] = i;
  }
  std::vector<size_t> answered(n, 0);
  std::vector<RequestSample> measurer_out;
  std::vector<double> normalized;
  normalized.reserve(raw.size());
  result.samples.reserve(raw.size());
  for (RequestSample& sample : raw) {
    size_t p = sample.client_id < id_bound ? participant[sample.client_id] : kNotParticipant;
    if (p == kNotParticipant) {
      measurer_out.push_back(sample);
      continue;
    }
    sample.normalized = sample.response_time - usable[p]->base_response_time;
    normalized.push_back(sample.normalized);
    if (!sample.timed_out) {
      ++answered[p];
    }
    result.samples.push_back(sample);
  }
  if (!measurers_.empty()) {
    measurer_samples_.push_back(std::move(measurer_out));
  }

  result.samples_received = result.samples.size();
  result.samples_expected = n * per_client;
  result.metric = Percentile(normalized, MetricPercentile(kind));
  result.exceeded_threshold = result.metric > config_.threshold;

  // Health accounting for the participants: a miss is an epoch contributing
  // no sample at all (control plane silent) or nothing but timeouts, i.e. no
  // answered sample. After evict_after_misses consecutive misses the client
  // is marked unhealthy and drops out of the usable pool — spares take its
  // place next epoch.
  for (size_t i = 0; i < n; ++i) {
    ClientState& c = *usable[i];
    bool miss = answered[i] == 0;
    if (miss) {
      ++c.consecutive_misses;
    } else {
      c.consecutive_misses = 0;
    }
    if (config_.evict_after_misses == 0 || !c.healthy) {
      continue;
    }
    // Two eviction triggers, both gated on the same knob: the coordinator's
    // own per-epoch miss count, and the transport's health verdict (for the
    // live harness: consecutive unanswered control probes). The default
    // ClientHealthy is always-true, so simulation behavior is unchanged.
    bool transport_unhealthy = !harness_.ClientHealthy(c.id);
    if (c.consecutive_misses >= config_.evict_after_misses || transport_unhealthy) {
      c.healthy = false;
      if (telemetry_ != nullptr && telemetry_->metrics != nullptr) {
        telemetry_->metrics->Add("coord.clients_evicted");
      }
    }
  }

  if (telemetry_ != nullptr) {
    if (epoch_span != 0) {
      Tracer& tracer = *telemetry_->tracer;
      tracer.Attr(epoch_span, "crowd", static_cast<uint64_t>(crowd_size));
      tracer.Attr(epoch_span, "samples", static_cast<uint64_t>(result.samples_received));
      tracer.Attr(epoch_span, "metric_ms", ToMillis(result.metric));
      tracer.Attr(epoch_span, "exceeded", std::string(result.exceeded_threshold ? "true" : "false"));
      tracer.Attr(epoch_span, "check_phase", std::string(check_phase ? "true" : "false"));
      EndSpan(epoch_span);
    }
    if (telemetry_->metrics != nullptr) {
      MetricsRegistry& m = *telemetry_->metrics;
      m.Add("coord.epochs");
      if (check_phase) {
        m.Add("coord.check_epochs");
      }
      m.Add("coord.requests_scheduled", static_cast<double>(n * per_client + measurers_.size()));
      m.Add("coord.samples_received", static_cast<double>(result.samples_received));
      m.Observe("coord.epoch_metric_ms", ToMillis(result.metric));
      m.HistObserve("coord.epoch_metric_ms", LatencyBucketEdgesMs(), ToMillis(result.metric));
    }
  }
  return result;
}

StageResult Coordinator::RunStage(StageKind kind, const StageObjects& objects,
                                  const std::vector<size_t>& registered) {
  StageResult stage;
  stage.kind = kind;
  stage.started = harness_.Now();

  if (telemetry_ != nullptr) {
    // Publish the stage label so server-side request spans carry it.
    telemetry_->stage = std::string(StageName(kind));
  }
  SpanId stage_span = BeginSpan("stage", experiment_span_);
  if (stage_span != 0) {
    telemetry_->tracer->Attr(stage_span, "name", std::string(StageName(kind)));
  }
  epoch_parent_ = stage_span;

  SpanId prepare_span = BeginSpan("prepare", stage_span);
  std::vector<ClientState> clients = PrepareClients(kind, objects, registered);
  size_t per_client = std::max<size_t>(1, config_.requests_per_client);
  size_t usable = 0;
  for (const ClientState& c : clients) {
    if (c.usable) {
      ++usable;
    }
  }
  if (prepare_span != 0) {
    telemetry_->tracer->Attr(prepare_span, "clients", static_cast<uint64_t>(clients.size()));
    telemetry_->tracer->Attr(prepare_span, "usable", static_cast<uint64_t>(usable));
  }
  EndSpan(prepare_span);
  // The normalized metric of the epoch that decided the stage's fate (the
  // confirming check epoch, or the last epoch seen).
  SimDuration decision_metric = 0.0;

  auto account = [&stage](const EpochResult& epoch) {
    stage.total_requests += epoch.crowd_size;
    stage.max_crowd_tested = std::max(stage.max_crowd_tested, epoch.crowd_size);
  };
  // Evictions shrink the pool mid-stage, so capacity is re-derived per epoch.
  auto usable_capacity = [&clients, per_client] {
    size_t healthy_usable = 0;
    for (const ClientState& c : clients) {
      if (c.usable && c.healthy) {
        ++healthy_usable;
      }
    }
    return healthy_usable * per_client;
  };
  auto below_quorum = [this](const EpochResult& epoch) {
    return config_.epoch_quorum > 0.0 && epoch.samples_expected > 0 &&
           static_cast<double>(epoch.samples_received) <
               config_.epoch_quorum * static_cast<double>(epoch.samples_expected);
  };
  // Runs one epoch; if it falls below the sample quorum, the short epoch is
  // recorded and the crowd is re-run once. |quorum_ok| reports whether the
  // returned (possibly re-run) epoch met quorum — a false means the control
  // plane is too degraded to trust and the stage must end.
  auto run_quorum_epoch = [&](size_t crowd, bool check_phase, bool& quorum_ok) {
    EpochResult epoch = RunEpoch(kind, clients, crowd, check_phase);
    account(epoch);
    if (!below_quorum(epoch)) {
      quorum_ok = true;
      return epoch;
    }
    stage.epochs.push_back(std::move(epoch));
    harness_.WaitUntil(harness_.Now() + config_.epoch_gap);
    if (telemetry_ != nullptr && telemetry_->metrics != nullptr) {
      telemetry_->metrics->Add("coord.epoch_requeues");
    }
    EpochResult rerun = RunEpoch(kind, clients, crowd, check_phase);
    rerun.requeued = true;
    account(rerun);
    quorum_ok = !below_quorum(rerun);
    return rerun;
  };
  auto fail_quorum = [&](const EpochResult& epoch) {
    stage.end_reason = StageEndReason::kQuorumFailed;
    stage.end_detail = "epoch at crowd " + std::to_string(epoch.crowd_size) + " received " +
                       std::to_string(epoch.samples_received) + "/" +
                       std::to_string(epoch.samples_expected) + " samples after re-run";
    if (telemetry_ != nullptr && telemetry_->metrics != nullptr) {
      telemetry_->metrics->Add("coord.quorum_failures");
    }
  };

  for (size_t e = 1; e <= config_.max_epochs; ++e) {
    size_t crowd = config_.crowd_step * e;
    if (crowd > config_.max_crowd || crowd > usable_capacity()) {
      stage.end_detail = "crowd " + std::to_string(crowd) +
                         " exceeds budget or usable-client capacity";
      break;  // ran out of budget or clients: NoStop
    }
    bool quorum_ok = true;
    EpochResult epoch = run_quorum_epoch(crowd, /*check_phase=*/false, quorum_ok);
    bool exceeded = epoch.exceeded_threshold;
    decision_metric = epoch.metric;
    EpochResult quorum_snapshot;
    quorum_snapshot.crowd_size = epoch.crowd_size;
    quorum_snapshot.samples_received = epoch.samples_received;
    quorum_snapshot.samples_expected = epoch.samples_expected;
    stage.epochs.push_back(std::move(epoch));
    harness_.WaitUntil(harness_.Now() + config_.epoch_gap);
    if (!quorum_ok) {
      fail_quorum(quorum_snapshot);
      break;
    }

    if (!exceeded || crowd < config_.min_crowd_for_inference) {
      continue;
    }
    // Check phase: re-run at N-1, N, N+1; any confirmation terminates the
    // stage with stopping size N (Section 2.2.3).
    SpanId check_span = BeginSpan("check_phase", stage_span);
    if (check_span != 0) {
      telemetry_->tracer->Attr(check_span, "candidate_crowd", static_cast<uint64_t>(crowd));
    }
    epoch_parent_ = check_span != 0 ? check_span : stage_span;
    bool confirmed = false;
    bool check_quorum_failed = false;
    for (long delta : {-1L, 0L, 1L}) {
      size_t check_crowd = static_cast<size_t>(static_cast<long>(crowd) + delta);
      bool check_quorum_ok = true;
      EpochResult check = run_quorum_epoch(check_crowd, /*check_phase=*/true, check_quorum_ok);
      bool check_exceeded = check.exceeded_threshold;
      if (check_exceeded) {
        decision_metric = check.metric;
      }
      EpochResult check_snapshot;
      check_snapshot.crowd_size = check.crowd_size;
      check_snapshot.samples_received = check.samples_received;
      check_snapshot.samples_expected = check.samples_expected;
      stage.epochs.push_back(std::move(check));
      harness_.WaitUntil(harness_.Now() + config_.epoch_gap);
      if (!check_quorum_ok) {
        fail_quorum(check_snapshot);
        check_quorum_failed = true;
        break;
      }
      if (check_exceeded) {
        confirmed = true;
        break;
      }
    }
    if (check_span != 0) {
      telemetry_->tracer->Attr(check_span, "confirmed", std::string(confirmed ? "true" : "false"));
    }
    EndSpan(check_span);
    epoch_parent_ = stage_span;
    if (check_quorum_failed) {
      break;
    }
    if (confirmed) {
      stage.stopped = true;
      stage.stopping_crowd_size = crowd;
      stage.end_reason = StageEndReason::kConstraintFound;
      stage.end_detail = "check phase confirmed at crowd " + std::to_string(crowd);
      break;
    }
  }
  stage.finished = harness_.Now();

  if (telemetry_ != nullptr) {
    // Stop decision: an instant span carrying the verdict and the decision
    // metric, so the trace alone explains why the stage ended.
    SpanId decision_span = BeginSpan("stop_decision", stage_span);
    if (decision_span != 0) {
      Tracer& tracer = *telemetry_->tracer;
      tracer.Attr(decision_span, "stopped", std::string(stage.stopped ? "true" : "false"));
      tracer.Attr(decision_span, "end_reason", std::string(StageEndReasonName(stage.end_reason)));
      tracer.Attr(decision_span, "stopping_crowd",
                  static_cast<uint64_t>(stage.stopping_crowd_size));
      tracer.Attr(decision_span, "max_crowd_tested",
                  static_cast<uint64_t>(stage.max_crowd_tested));
      tracer.Attr(decision_span, "decision_metric_ms", ToMillis(decision_metric));
      tracer.Attr(decision_span, "threshold_ms", ToMillis(config_.threshold));
      EndSpan(decision_span);
    }
    if (telemetry_->metrics != nullptr) {
      MetricsRegistry& m = *telemetry_->metrics;
      m.Add("coord.stages");
      if (stage.stopped) {
        m.Add("coord.stages_stopped");
        m.Observe("coord.stopping_crowd", static_cast<double>(stage.stopping_crowd_size));
      }
    }
    telemetry_->stage = "idle";
  }
  EndSpan(stage_span);
  epoch_parent_ = 0;
  return stage;
}

ExperimentResult Coordinator::Run(const StageObjects& objects) {
  return Run(objects,
             {StageKind::kBase, StageKind::kSmallQuery, StageKind::kLargeObject});
}

ExperimentResult Coordinator::Run(const StageObjects& objects,
                                  const std::vector<StageKind>& stages) {
  ExperimentResult result;
  experiment_span_ = BeginSpan("experiment", 0);
  std::vector<size_t> registered = harness_.ProbeClients(Seconds(1));
  result.registered_clients = registered.size();
  if (experiment_span_ != 0) {
    telemetry_->tracer->Attr(experiment_span_, "registered_clients",
                             static_cast<uint64_t>(registered.size()));
  }
  if (registered.size() < config_.min_clients) {
    result.aborted = true;
    result.abort_reason = "only " + std::to_string(registered.size()) +
                          " clients responsive, need " + std::to_string(config_.min_clients);
    if (experiment_span_ != 0) {
      telemetry_->tracer->Attr(experiment_span_, "aborted", std::string("true"));
    }
    if (telemetry_ != nullptr && telemetry_->metrics != nullptr) {
      telemetry_->metrics->Add("coord.aborted");
    }
    EndSpan(experiment_span_);
    experiment_span_ = 0;
    return result;
  }
  for (StageKind kind : stages) {
    bool available = (kind == StageKind::kBase && objects.base_page.has_value()) ||
                     (kind == StageKind::kSmallQuery && objects.small_query.has_value()) ||
                     (kind == StageKind::kLargeObject && objects.large_object.has_value());
    if (!available) {
      continue;
    }
    result.stages.push_back(RunStage(kind, objects, registered));
  }
  EndSpan(experiment_span_);
  experiment_span_ = 0;
  return result;
}

}  // namespace mfc
