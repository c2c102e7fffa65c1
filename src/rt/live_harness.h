// Live-socket implementation of ClientHarness: the real MFC coordinator's
// transport. The very same Coordinator state machine that drives the
// simulation drives this over UDP control + TCP data on real hosts (here:
// loopback agents).
//
// Loss tolerance is delegated to the session layer (src/rt/session.h): every
// command (PING, RTTPROBE, MEASURE, FIRE) is one reliable session send that
// retransmits until the agent's session ack, and every reply leg (PONG,
// RTT/RTTFAIL, SAMPLE) is reliable in the opposite direction — so each leg
// converges independently and this harness schedules no retransmits of its
// own. Duplicate frames are suppressed by (conn, seq) before delivery; a
// crowd's (token, sample_id) set and per-token budget still guard the sample
// count (see PendingCrowd).
#ifndef MFC_SRC_RT_LIVE_HARNESS_H_
#define MFC_SRC_RT_LIVE_HARNESS_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "src/core/config.h"
#include "src/core/harness.h"
#include "src/rt/session.h"
#include "src/rt/sockets.h"
#include "src/rt/transport.h"
#include "src/rt/wire.h"
#include "src/telemetry/snapshot.h"

namespace mfc {

class MetricsRegistry;

// App-level control-plane health counters, exported to MetricsRegistry as
// live.* (transport-level retry/dedup counters moved to the session layer's
// live.session.* family).
struct ControlPlaneStats {
  uint64_t rtt_retries = 0;        // RTT probes re-issued (new token) after RTTFAIL
  uint64_t rtt_failures = 0;       // explicit RTTFAIL replies received
  uint64_t rtt_fallbacks = 0;      // probes that exhausted retries -> 1 s substitute
  uint64_t duplicate_samples = 0;  // over-budget or already-counted SAMPLEs discarded
};

class LiveHarness : public ClientHarness {
 public:
  // |target_port|: TCP port of the server under test (requests carry only the
  // path; the harness owns the endpoint). Control datagrams ride |transport|
  // (a UdpTransport or a MemoryHub endpoint).
  LiveHarness(Reactor& reactor, uint16_t target_port, std::unique_ptr<Transport> transport);

  // Where agents send their control datagrams: the transport's own address.
  TransportAddress ControlAddress() const { return transport_->LocalAddress(); }

  // Blocks (runs the reactor) until |count| clients have registered or
  // |timeout| passes. Returns the registered count.
  size_t WaitForRegistrations(size_t count, double timeout);

  // Per-request client-side kill timer mirrored into fetch deadlines.
  void set_request_timeout(double seconds) { request_timeout_ = seconds; }
  void set_retry_policy(const RetryPolicy& policy);
  // Routes the coordinator's own control datagrams through |fault| (must
  // outlive the harness). nullptr restores fault-free operation.
  void set_fault_injector(FaultInjector* fault) { transport_->set_injector(fault); }
  // Mirrors stats increments into |metrics| under live.* / live.session.*.
  void SetMetrics(MetricsRegistry* metrics);

  const ControlPlaneStats& stats() const { return stats_; }
  const SessionStats& session_stats() const { return session_->stats(); }
  // Total in-flight/leftover control-plane bookkeeping entries — harness
  // token maps plus the session's pending reliable transfers; tests assert
  // this stays bounded across stages (no token-map leaks).
  size_t PendingControlEntries() const;

  // Per-agent health table (DESIGN.md §11): last-seen age, probe miss
  // streak, control RTT EWMA, loss estimate, and the agent's own
  // piggybacked [stats] payload. One row per registered client, id order.
  std::vector<AgentHealthSnapshot> SnapshotAgents() const;

  // After this many consecutive unanswered ProbeClients rounds the agent is
  // reported unhealthy through ClientHealthy (and the coordinator's eviction
  // logic, when enabled, drops it). 0 = never (the default: health is
  // observed but has no effect).
  void set_unhealthy_after_misses(size_t misses) { unhealthy_after_misses_ = misses; }

  // ClientHarness:
  size_t ClientCount() const override { return clients_.size(); }
  std::vector<size_t> ProbeClients(SimDuration timeout) override;
  SimDuration MeasureCoordRtt(size_t client) override;
  SimDuration MeasureTargetRtt(size_t client) override;
  RequestSample FetchOnce(size_t client, const HttpRequest& request) override;
  std::vector<RequestSample> ExecuteCrowd(const std::vector<CrowdRequestPlan>& plans,
                                          SimTime poll_time) override;
  SimTime Now() const override { return reactor_.Now(); }
  void WaitUntil(SimTime t) override;
  bool ClientHealthy(size_t client) const override;

 private:
  // One agent's running health record, folded from every datagram we can
  // attribute to it (registrations, solicited pongs, crowd samples).
  struct AgentHealth {
    double last_seen = -1.0;     // reactor time of the last attributed datagram
    uint64_t miss_streak = 0;    // consecutive ProbeClients rounds unanswered
    double rtt_ewma = -1.0;      // coordinator-side control RTT EWMA, seconds
    uint64_t pings_sent = 0;     // PING rounds addressed to this agent
    uint64_t pongs_received = 0; // solicited PONGs attributed back
    bool has_agent_stats = false;
    AgentStats agent;            // last piggybacked [stats] payload
  };

  // Records a datagram attributed to |client| and merges an optional
  // piggybacked payload.
  void TouchAgent(size_t client, const AgentStats* stats);
  void OnDeliver(const ControlMessage& message, const TransportAddress& from);
  // Reliable session send to a registered client; returns 0 if unknown.
  Session::TransferId SendTo(size_t client, const ControlMessage& message);
  void Bump(uint64_t& counter, const char* metric, uint64_t delta = 1);
  // Cancels any still-pending transfers a wait minted before returning.
  void CancelTransfers(const std::vector<Session::TransferId>& ids);

  Reactor& reactor_;
  uint16_t target_port_;
  std::unique_ptr<FaultedTransport> transport_;
  std::unique_ptr<Session> session_;
  double request_timeout_ = 10.0;
  RetryPolicy retry_;
  ControlPlaneStats stats_;
  MetricsRegistry* metrics_ = nullptr;
  std::map<size_t, TransportAddress> clients_;   // registered agents by id
  std::map<size_t, AgentHealth> health_;         // health rows by client id
  size_t unhealthy_after_misses_ = 0;            // 0 = ClientHealthy always true

  // In-flight expectations, keyed by token / seq. Every wait cleans up the
  // tokens it minted — from the completed maps too — so late or unsolicited
  // replies cannot accumulate across a long experiment.
  uint64_t next_token_ = 1;
  std::map<uint64_t, double> pending_pongs_;    // seq -> send time
  std::map<uint64_t, double> completed_pongs_;  // seq -> rtt
  std::map<uint64_t, size_t> pong_owner_;       // seq -> client, for attribution
  std::set<uint64_t> pending_rtt_probes_;       // tokens with an outstanding probe
  std::map<uint64_t, double> completed_rtts_;   // token -> seconds (-1 = failed)
  struct PendingCrowd {
    std::map<uint64_t, size_t> token_to_client;
    // token -> samples this command may still contribute (connections).
    std::map<uint64_t, uint32_t> budget;
    // (token, sample_id) pairs already counted. The session's (conn, seq)
    // dedup window is bounded, so a sample retransmitted after its pair was
    // evicted is delivered again; this set keeps it out of the crowd and
    // counts it in live.duplicate_samples. The budget does the same for an
    // agent that reports more samples than the command's connections.
    std::set<std::pair<uint64_t, uint64_t>> seen;
    std::vector<RequestSample> samples;
  };
  std::optional<PendingCrowd> crowd_;
  // Reliable transfers the current crowd minted; cancelled when it ends so
  // FIREs to dead agents stop retransmitting into the next stage.
  std::vector<Session::TransferId> crowd_transfers_;
};

}  // namespace mfc

#endif  // MFC_SRC_RT_LIVE_HARNESS_H_
