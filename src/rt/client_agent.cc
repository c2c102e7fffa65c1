#include "src/rt/client_agent.h"

#include <cmath>
#include <utility>

#include "src/rt/fault_injector.h"

namespace mfc {

ClientAgent::ClientAgent(Reactor& reactor, uint64_t client_id,
                         std::unique_ptr<Transport> transport,
                         const TransportAddress& coordinator)
    : reactor_(reactor), client_id_(client_id), coordinator_(coordinator),
      transport_(std::make_unique<FaultedTransport>(std::move(transport))),
      alive_(std::make_shared<bool>(true)) {
  SessionConfig config;
  config.conn = AgentConn(client_id);
  config.retry = retry_;
  session_ = std::make_unique<Session>(*transport_, config);
  session_->SetDeliveryHandler(
      [this](const ControlMessage& message, const TransportAddress&) { OnDeliver(message); });
}

ClientAgent::~ClientAgent() { *alive_ = false; }

void ClientAgent::set_retry_policy(const RetryPolicy& policy) {
  retry_ = policy;
  session_->set_retry_policy(policy);
}

void ClientAgent::set_fault_injector(FaultInjector* fault) {
  fault_ = fault;
  transport_->set_injector(fault);
}

void ClientAgent::Register() {
  registered_ = false;
  // Registered() means the coordinator's session layer acked our REGISTER —
  // the coordinator processes the frame in the same tick it acks, so the ack
  // doubles as the registration receipt.
  session_->SendReliable(MsgRegister{client_id_}, coordinator_, kLaneControl,
                         [this](bool delivered) {
                           if (delivered) {
                             registered_ = true;
                           }
                         });
}

void ClientAgent::Reply(const ControlMessage& message, uint8_t lane) {
  session_->SendReliable(message, coordinator_, lane);
}

void ClientAgent::OnDeliver(const ControlMessage& message) {
  if (const auto* ping = std::get_if<MsgPing>(&message)) {
    // Piggyback the health payload on the pong the coordinator is owed
    // anyway — the fleet's telemetry rides the existing probe cadence. The
    // pong leg is itself reliable, so a lost reply converges on its own.
    Reply(MsgPong{ping->seq, CurrentStats()});
  } else if (const auto* measure = std::get_if<MsgMeasure>(&message)) {
    HandleMeasure(*measure);
  } else if (const auto* fire = std::get_if<MsgFire>(&message)) {
    HandleFire(*fire);
  } else if (const auto* probe = std::get_if<MsgRttProbe>(&message)) {
    HandleRttProbe(*probe);
  }
}

void ClientAgent::HandleRttProbe(const MsgRttProbe& message) {
  // TCP connect() round trip approximates the SYN RTT to the target.
  double start = transport_->clock().Now();
  uint64_t token = message.token;
  uint64_t probe_id = next_fetch_id_++;
  auto conn = TcpConnection::Connect(
      reactor_, LoopbackEndpoint(message.tcp_port),
      [this, alive = alive_, token, probe_id, start](bool ok) {
        if (!*alive) {
          return;
        }
        double rtt = transport_->clock().Now() - start;
        if (ok) {
          // TCP-style smoothing: 7/8 history, 1/8 new measurement.
          rtt_ewma_ = rtt_ewma_ < 0 ? rtt : 0.875 * rtt_ewma_ + 0.125 * rtt;
          Reply(MsgRtt{token, static_cast<uint64_t>(std::llround(rtt * 1e6))});
        } else {
          // A silent client here would stall the coordinator until its
          // deadline; tell it outright so it can retry or fall back.
          Reply(MsgRttFail{token});
        }
        reactor_.ScheduleAfter(0.0, [this, alive, probe_id] {
          if (*alive) {
            rtt_probes_.erase(probe_id);
          }
        });
      },
      fault_);
  if (conn != nullptr) {
    rtt_probes_[probe_id] = std::move(conn);
  } else {
    Reply(MsgRttFail{token});
  }
}

void ClientAgent::HandleMeasure(const MsgMeasure& message) {
  // Solo measurements tolerate connect retries — there is no crowd to stay
  // synchronized with.
  LaunchFetch(message.token, message.method, message.tcp_port, message.target,
              /*attempt=*/1, /*retry_connect=*/true);
}

void ClientAgent::HandleFire(const MsgFire& message) {
  // Hold fire until the commanded instant: every client joins the burst
  // together no matter when its (possibly retransmitted) copy of the command
  // arrived within the schedule lead.
  double fire_at = static_cast<double>(message.fire_at_micros) * 1e-6;
  if (fire_at > transport_->clock().Now()) {
    transport_->clock().ScheduleAfter(fire_at - transport_->clock().Now(),
                                      [this, alive = alive_, message] {
                                        if (*alive) {
                                          FireNow(message);
                                        }
                                      });
    return;
  }
  FireNow(message);
}

void ClientAgent::FireNow(const MsgFire& message) {
  // MFC-mr: open |connections| parallel connections carrying the same
  // request (Section 4.1). No connect retries: a late re-fire would fall
  // outside the synchronized burst and skew the crowd's response times.
  for (uint32_t c = 0; c < message.connections; ++c) {
    LaunchFetch(message.token, message.method, message.tcp_port, message.target,
                /*attempt=*/1, /*retry_connect=*/false);
  }
}

void ClientAgent::LaunchFetch(uint64_t token, HttpMethod method, uint16_t port,
                              const std::string& target, size_t attempt, bool retry_connect) {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.headers.Set("Host", "127.0.0.1");
  request.headers.Set("User-Agent", "mfc-live-client/1.0");

  ++requests_fired_;
  uint64_t fetch_id = next_fetch_id_++;
  auto fetch = HttpFetch::Start(
      reactor_, port, request, request_timeout_,
      [this, token, fetch_id, method, port, target, attempt,
       retry_connect](const FetchResult& result) {
        if (result.connect_failed || result.timed_out) {
          ++fetch_errors_;
        }
        if (result.connect_failed && retry_connect && attempt < retry_.max_attempts) {
          reactor_.ScheduleAfter(
              retry_.BackoffFor(attempt),
              [this, alive = alive_, token, method, port, target, attempt, retry_connect] {
                if (*alive) {
                  LaunchFetch(token, method, port, target, attempt + 1, retry_connect);
                }
              });
          fetches_.erase(fetch_id);
          return;
        }
        MsgSample sample;
        sample.token = token;
        sample.http_code = static_cast<int>(result.status);
        sample.bytes = result.bytes;
        sample.rt_microseconds = static_cast<uint64_t>(std::llround(result.elapsed * 1e6));
        sample.timed_out = result.timed_out;
        sample.sample_id = next_sample_id_++;
        sample.stats = CurrentStats();
        // The session retransmits the sample until the coordinator's ack
        // lands or attempts run out (coordinator quorum decides then).
        Reply(sample, kLaneBulk);
        fetches_.erase(fetch_id);
      },
      fault_);
  fetches_[fetch_id] = std::move(fetch);
}

AgentStats ClientAgent::CurrentStats() const {
  AgentStats stats;
  stats.inflight = fetches_.size();
  stats.fetch_errors = fetch_errors_;
  if (rtt_ewma_ >= 0) {
    stats.rtt_ewma_us = static_cast<uint64_t>(std::llround(rtt_ewma_ * 1e6));
  }
  stats.dedup_hits = session_->stats().duplicates;
  if (fault_ != nullptr) {
    stats.fault_drops = fault_->stats().dropped;
  }
  stats.requests_fired = requests_fired_;
  return stats;
}

}  // namespace mfc
