#include "src/rt/live_harness.h"

#include <algorithm>

#include "src/rt/client_agent.h"
#include "src/telemetry/metrics.h"

namespace mfc {

LiveHarness::LiveHarness(Reactor& reactor, uint16_t target_port,
                         std::unique_ptr<Transport> transport)
    : reactor_(reactor), target_port_(target_port),
      transport_(std::make_unique<FaultedTransport>(std::move(transport))) {
  SessionConfig config;
  config.conn = kCoordinatorConn;
  config.retry = retry_;
  session_ = std::make_unique<Session>(*transport_, config);
  session_->SetDeliveryHandler(
      [this](const ControlMessage& message, const TransportAddress& from) {
        OnDeliver(message, from);
      });
}

void LiveHarness::set_retry_policy(const RetryPolicy& policy) {
  retry_ = policy;
  session_->set_retry_policy(policy);
}

void LiveHarness::SetMetrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  session_->SetMetrics(metrics);
}

void LiveHarness::Bump(uint64_t& counter, const char* metric, uint64_t delta) {
  counter += delta;
  if (metrics_ != nullptr) {
    metrics_->Add(metric, static_cast<double>(delta));
  }
}

size_t LiveHarness::PendingControlEntries() const {
  return pending_pongs_.size() + completed_pongs_.size() + pong_owner_.size() +
         pending_rtt_probes_.size() + completed_rtts_.size() + session_->PendingReliable();
}

void LiveHarness::CancelTransfers(const std::vector<Session::TransferId>& ids) {
  for (Session::TransferId id : ids) {
    if (id != 0) {
      session_->Cancel(id);
    }
  }
}

void LiveHarness::TouchAgent(size_t client, const AgentStats* stats) {
  AgentHealth& health = health_[client];
  health.last_seen = reactor_.Now();
  if (stats != nullptr) {
    health.has_agent_stats = true;
    health.agent = *stats;
  }
}

bool LiveHarness::ClientHealthy(size_t client) const {
  if (unhealthy_after_misses_ == 0) {
    return true;
  }
  auto it = health_.find(client);
  return it == health_.end() || it->second.miss_streak < unhealthy_after_misses_;
}

std::vector<AgentHealthSnapshot> LiveHarness::SnapshotAgents() const {
  std::vector<AgentHealthSnapshot> rows;
  rows.reserve(clients_.size());
  double now = reactor_.Now();
  for (const auto& [id, addr] : clients_) {
    AgentHealthSnapshot row;
    row.agent_id = id;
    auto it = health_.find(id);
    if (it != health_.end()) {
      const AgentHealth& h = it->second;
      if (h.last_seen >= 0) {
        row.last_seen_age = now - h.last_seen;
      }
      row.miss_streak = h.miss_streak;
      if (h.rtt_ewma >= 0) {
        row.rtt_ewma = h.rtt_ewma;
      }
      if (h.pings_sent > 0) {
        double loss = 1.0 - static_cast<double>(h.pongs_received) /
                                static_cast<double>(h.pings_sent);
        row.loss_estimate = loss < 0 ? 0.0 : loss;
      }
      if (h.has_agent_stats) {
        row.inflight = h.agent.inflight;
        row.fetch_errors = h.agent.fetch_errors;
        row.dedup_hits = h.agent.dedup_hits;
        row.fault_drops = h.agent.fault_drops;
        row.requests_fired = h.agent.requests_fired;
      }
    }
    row.healthy = ClientHealthy(id);
    rows.push_back(row);
  }
  return rows;
}

void LiveHarness::OnDeliver(const ControlMessage& message, const TransportAddress& from) {
  if (const auto* reg = std::get_if<MsgRegister>(&message)) {
    // Re-registrations refresh the address. The agent takes the session ack
    // as its registration receipt.
    size_t id = static_cast<size_t>(reg->client_id);
    clients_[id] = from;
    TouchAgent(id, nullptr);
  } else if (const auto* pong = std::get_if<MsgPong>(&message)) {
    auto it = pending_pongs_.find(pong->seq);
    if (it != pending_pongs_.end()) {
      double rtt = reactor_.Now() - it->second;
      completed_pongs_[pong->seq] = rtt;
      pending_pongs_.erase(it);
      // Fold the answer into the sender's health row: liveness, control-RTT
      // EWMA, and the agent's piggybacked payload.
      auto owner = pong_owner_.find(pong->seq);
      if (owner != pong_owner_.end()) {
        AgentHealth& health = health_[owner->second];
        ++health.pongs_received;
        health.rtt_ewma = health.rtt_ewma < 0 ? rtt : 0.875 * health.rtt_ewma + 0.125 * rtt;
        TouchAgent(owner->second, &pong->stats);
      }
    }
  } else if (const auto* rtt = std::get_if<MsgRtt>(&message)) {
    // Only solicited replies are recorded; late duplicates from earlier
    // attempts would otherwise pile up in completed_rtts_ forever.
    if (pending_rtt_probes_.erase(rtt->token) != 0) {
      completed_rtts_[rtt->token] = static_cast<double>(rtt->microseconds) * 1e-6;
    }
  } else if (const auto* fail = std::get_if<MsgRttFail>(&message)) {
    if (pending_rtt_probes_.erase(fail->token) != 0) {
      completed_rtts_[fail->token] = -1.0;  // explicit failure, not a timeout
      Bump(stats_.rtt_failures, "live.rtt_failures");
    }
  } else if (const auto* sample = std::get_if<MsgSample>(&message)) {
    if (!crowd_.has_value()) {
      return;
    }
    auto it = crowd_->token_to_client.find(sample->token);
    if (it == crowd_->token_to_client.end()) {
      return;
    }
    // Any attributable sample — duplicate or not — proves the agent alive
    // and carries its freshest stats payload.
    TouchAgent(it->second, &sample->stats);
    if (!crowd_->seen.insert({sample->token, sample->sample_id}).second) {
      Bump(stats_.duplicate_samples, "live.duplicate_samples");
      return;
    }
    auto budget = crowd_->budget.find(sample->token);
    if (budget == crowd_->budget.end() || budget->second == 0) {
      Bump(stats_.duplicate_samples, "live.duplicate_samples");
      return;
    }
    --budget->second;
    RequestSample out;
    out.client_id = it->second;
    out.code = static_cast<HttpStatus>(sample->http_code);
    out.bytes = static_cast<double>(sample->bytes);
    out.response_time = static_cast<double>(sample->rt_microseconds) * 1e-6;
    out.timed_out = sample->timed_out;
    crowd_->samples.push_back(out);
  }
}

Session::TransferId LiveHarness::SendTo(size_t client, const ControlMessage& message) {
  auto it = clients_.find(client);
  if (it == clients_.end()) {
    return 0;
  }
  return session_->SendReliable(message, it->second);
}

size_t LiveHarness::WaitForRegistrations(size_t count, double timeout) {
  double deadline = reactor_.Now() + timeout;
  reactor_.RunUntil([this, count] { return clients_.size() >= count; }, deadline);
  return clients_.size();
}

std::vector<size_t> LiveHarness::ProbeClients(SimDuration timeout) {
  // One reliable PING per agent; the session keeps re-sending it across the
  // whole probe window, so no per-attempt re-probing is needed here.
  std::map<uint64_t, size_t> seq_to_client;  // every seq minted by this call
  std::vector<Session::TransferId> transfers;
  std::set<size_t> answered;
  for (const auto& [id, addr] : clients_) {
    uint64_t seq = next_token_++;
    pending_pongs_[seq] = reactor_.Now();
    seq_to_client[seq] = id;
    pong_owner_[seq] = id;
    ++health_[id].pings_sent;
    transfers.push_back(SendTo(id, MsgPing{seq}));
  }
  double deadline = reactor_.Now() + timeout;
  reactor_.RunUntil(
      [this, &seq_to_client, &answered] {
        for (const auto& [seq, client] : seq_to_client) {
          if (completed_pongs_.count(seq) != 0) {
            answered.insert(client);
          }
        }
        return answered.size() >= clients_.size();
      },
      deadline);
  for (const auto& [seq, client] : seq_to_client) {
    if (completed_pongs_.count(seq) != 0) {
      answered.insert(client);
    }
    pending_pongs_.erase(seq);
    completed_pongs_.erase(seq);
    pong_owner_.erase(seq);
  }
  CancelTransfers(transfers);
  // Miss-streak accounting: one probe round answered resets the streak; a
  // silent round extends it. ClientHealthy turns the streak into a verdict
  // once set_unhealthy_after_misses arms it.
  for (const auto& [id, addr] : clients_) {
    if (answered.count(id) != 0) {
      health_[id].miss_streak = 0;
    } else {
      ++health_[id].miss_streak;
    }
  }
  return std::vector<size_t>(answered.begin(), answered.end());
}

SimDuration LiveHarness::MeasureCoordRtt(size_t client) {
  uint64_t seq = next_token_++;
  pending_pongs_[seq] = reactor_.Now();
  pong_owner_[seq] = client;
  ++health_[client].pings_sent;
  Session::TransferId transfer = SendTo(client, MsgPing{seq});
  double deadline = reactor_.Now() + 1.0;
  reactor_.RunUntil([this, seq] { return completed_pongs_.count(seq) != 0; }, deadline);
  SimDuration rtt = 1.0;  // conservative substitute when the window closes empty
  auto it = completed_pongs_.find(seq);
  if (it != completed_pongs_.end()) {
    rtt = it->second;
  }
  pending_pongs_.erase(seq);
  completed_pongs_.erase(seq);
  pong_owner_.erase(seq);
  CancelTransfers({transfer});
  return rtt;
}

SimDuration LiveHarness::MeasureTargetRtt(size_t client) {
  // The datagram legs are reliable, so re-issuing here means "run another
  // TCP probe" (after an explicit RTTFAIL), not "resend a lost datagram".
  size_t attempts = std::max<size_t>(retry_.max_attempts, 1);
  double slice = 1.0 / static_cast<double>(attempts);
  SimDuration rtt = 1.0;
  bool got = false;
  for (size_t attempt = 1; attempt <= attempts && !got; ++attempt) {
    uint64_t token = next_token_++;
    pending_rtt_probes_.insert(token);
    if (attempt > 1) {
      Bump(stats_.rtt_retries, "live.rtt_retries");
    }
    Session::TransferId transfer = SendTo(client, MsgRttProbe{token, target_port_});
    double deadline = reactor_.Now() + slice;
    // An RTTFAIL reply also completes the wait — that is the point of the
    // explicit failure message: retry immediately instead of idling to the
    // deadline.
    reactor_.RunUntil([this, token] { return completed_rtts_.count(token) != 0; },
                      deadline);
    auto it = completed_rtts_.find(token);
    if (it != completed_rtts_.end() && it->second >= 0.0) {
      rtt = it->second;
      got = true;
    }
    pending_rtt_probes_.erase(token);
    completed_rtts_.erase(token);
    CancelTransfers({transfer});
  }
  if (!got) {
    Bump(stats_.rtt_fallbacks, "live.rtt_fallbacks");
  }
  return rtt;
}

RequestSample LiveHarness::FetchOnce(size_t client, const HttpRequest& request) {
  uint64_t token = next_token_++;
  // Reuse the crowd sink for singleton fetches.
  PendingCrowd saved;
  bool had_crowd = crowd_.has_value();
  if (had_crowd) {
    saved = std::move(*crowd_);
  }
  crowd_ = PendingCrowd{};
  crowd_->token_to_client[token] = client;
  crowd_->budget[token] = 1;

  MsgMeasure measure;
  measure.token = token;
  measure.method = request.method;
  measure.tcp_port = target_port_;
  measure.target = request.target;
  Session::TransferId transfer = SendTo(client, measure);

  // The session re-sends the command under loss; one wait with fetch
  // headroom covers both delivery and execution.
  double deadline = reactor_.Now() + request_timeout_ + 1.0;
  reactor_.RunUntil([this] { return !crowd_->samples.empty(); }, deadline);

  RequestSample sample;
  sample.client_id = client;
  if (!crowd_->samples.empty()) {
    sample = crowd_->samples.front();
  } else {
    sample.code = HttpStatus::kClientTimeout;
    sample.timed_out = true;
    sample.response_time = request_timeout_;
  }
  CancelTransfers({transfer});
  crowd_.reset();
  if (had_crowd) {
    crowd_ = std::move(saved);
  }
  return sample;
}

std::vector<RequestSample> LiveHarness::ExecuteCrowd(const std::vector<CrowdRequestPlan>& plans,
                                                     SimTime poll_time) {
  crowd_ = PendingCrowd{};
  crowd_transfers_.clear();
  size_t expected = 0;
  for (const CrowdRequestPlan& plan : plans) {
    uint64_t token = next_token_++;
    crowd_->token_to_client[token] = plan.client_id;
    crowd_->budget[token] = static_cast<uint32_t>(plan.connections);
    expected += plan.connections;

    MsgFire fire;
    fire.token = token;
    fire.connections = static_cast<uint32_t>(plan.connections);
    fire.method = plan.request->method;
    fire.tcp_port = target_port_;
    fire.target = plan.request->target;
    // Ship the burst instant with the command and transmit right away: the
    // agent holds fire until the instant, so the whole schedule lead becomes
    // headroom for retransmitting lost commands instead of dead air.
    fire.fire_at_micros = static_cast<uint64_t>(plan.intended_arrival * 1e6);
    crowd_transfers_.push_back(SendTo(plan.client_id, fire));
  }
  reactor_.RunUntil([this, expected] { return crowd_->samples.size() >= expected; },
                    poll_time);
  std::vector<RequestSample> samples = std::move(crowd_->samples);
  crowd_.reset();
  // Stop retransmitting to agents that never acked: tokens are never
  // reused, so leftovers are pure leak.
  CancelTransfers(crowd_transfers_);
  crowd_transfers_.clear();
  return samples;
}

void LiveHarness::WaitUntil(SimTime t) {
  reactor_.RunUntil([] { return false; }, t);
}

}  // namespace mfc
