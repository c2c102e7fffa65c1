// Live MFC client agent (Figure 2b over real sockets).
//
// Registers with the coordinator, answers latency probes, and on command
// fires HTTP requests at the target. FIRE commands carry the burst instant
// (Section 2.2.4's scheduled arrival): the agent holds fire until then, so a
// command re-issued after control loss still joins the crowd on time.
//
// All control reliability lives in the session layer (src/rt/session.h):
// REGISTER, PONG, RTT/RTTFAIL, and SAMPLE are reliable session sends that
// retransmit until the coordinator's session ack; incoming MEASURE/FIRE
// duplicates are suppressed by the session's (conn, seq) dedup. The agent
// itself schedules no retransmits.
#ifndef MFC_SRC_RT_CLIENT_AGENT_H_
#define MFC_SRC_RT_CLIENT_AGENT_H_

#include <map>
#include <memory>

#include "src/core/config.h"
#include "src/rt/http_fetch.h"
#include "src/rt/session.h"
#include "src/rt/sockets.h"
#include "src/rt/transport.h"
#include "src/rt/wire.h"

namespace mfc {

// Session connection ids: the coordinator owns 1, agent |client_id| owns
// |client_id| + 2 — disjoint for any id the examples and tests mint.
inline constexpr uint64_t kCoordinatorConn = 1;
inline uint64_t AgentConn(uint64_t client_id) { return client_id + 2; }

class ClientAgent {
 public:
  // Control datagrams ride |transport| (a UdpTransport or a MemoryHub
  // endpoint); HTTP fetches use |reactor| sockets.
  ClientAgent(Reactor& reactor, uint64_t client_id, std::unique_ptr<Transport> transport,
              const TransportAddress& coordinator);
  ~ClientAgent();
  ClientAgent(const ClientAgent&) = delete;
  ClientAgent& operator=(const ClientAgent&) = delete;

  // Announces this agent to the coordinator; the session layer re-sends with
  // backoff until the coordinator acks (or attempts run out).
  void Register();
  bool Registered() const { return registered_; }

  // Where the coordinator's commands reach this agent.
  TransportAddress ControlAddress() const { return transport_->LocalAddress(); }
  void set_request_timeout(double seconds) { request_timeout_ = seconds; }
  void set_retry_policy(const RetryPolicy& policy);

  // Routes control datagrams and TCP connects through |fault| (which must
  // outlive the agent). nullptr restores fault-free operation.
  void set_fault_injector(FaultInjector* fault);

  const SessionStats& session_stats() const { return session_->stats(); }

  // Health payload piggybacked on every PONG and SAMPLE (wire.h [stats]):
  // instantaneous inflight count plus the agent's cumulative counters.
  AgentStats CurrentStats() const;

 private:
  void OnDeliver(const ControlMessage& message);
  void HandleMeasure(const MsgMeasure& message);
  void HandleFire(const MsgFire& message);
  // Opens the command's parallel connections immediately; HandleFire defers
  // to this at the commanded fire_at instant.
  void FireNow(const MsgFire& message);
  void HandleRttProbe(const MsgRttProbe& message);
  void LaunchFetch(uint64_t token, HttpMethod method, uint16_t port, const std::string& target,
                   size_t attempt, bool retry_connect);
  // Reliable session send to the coordinator.
  void Reply(const ControlMessage& message, uint8_t lane = kLaneControl);

  Reactor& reactor_;
  uint64_t client_id_;
  TransportAddress coordinator_;
  std::unique_ptr<FaultedTransport> transport_;
  std::unique_ptr<Session> session_;
  double request_timeout_ = 10.0;
  RetryPolicy retry_;
  FaultInjector* fault_ = nullptr;
  uint64_t requests_fired_ = 0;
  uint64_t fetch_errors_ = 0;  // failed connects + kill-timer expiries
  double rtt_ewma_ = -1.0;  // target-RTT EWMA from RTTPROBE successes, seconds
  uint64_t next_fetch_id_ = 1;
  uint64_t next_sample_id_ = 1;
  bool registered_ = false;
  std::map<uint64_t, std::unique_ptr<HttpFetch>> fetches_;
  std::map<uint64_t, std::unique_ptr<TcpConnection>> rtt_probes_;
  // Guards every reactor task that captures |this|: the destructor flips it,
  // so tasks still queued when the agent dies become no-ops instead of
  // use-after-frees.
  std::shared_ptr<bool> alive_;
};

}  // namespace mfc

#endif  // MFC_SRC_RT_CLIENT_AGENT_H_
