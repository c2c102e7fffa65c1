// Wide-area topology glue: a server access link, optional shared mid-path
// (POP) bottlenecks, and per-client access links, all over FlowNetwork.
//
// This is the substitute for the paper's live Internet + PlanetLab fleet:
// per-client RTTs and access bandwidths are drawn from heavy-tailed
// distributions, every latency sample is jittered, and control-plane (UDP)
// messages can be lost — the conditions the MFC synchronization algorithm
// was designed to tolerate.
#ifndef MFC_SRC_NET_WIDE_AREA_H_
#define MFC_SRC_NET_WIDE_AREA_H_

#include <functional>
#include <vector>

#include "src/net/flow_network.h"
#include "src/sim/distributions.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"

namespace mfc {

// Network-side identity of one MFC client host.
struct ClientNetProfile {
  SimDuration rtt_to_target = Millis(80);      // base round-trip to the target server
  SimDuration rtt_to_coordinator = Millis(60); // base round-trip to the coordinator
  double access_down_bps = 1.25e6;             // client downlink, bytes/second
  size_t pop = 0;                              // index into pop bottlenecks; ignored if none
};

struct WideAreaConfig {
  // Target server's outbound access-link capacity, bytes/second.
  // 12.5e6 B/s = 100 Mbit/s.
  double server_access_bps = 12.5e6;
  // Optional shared mid-path bottlenecks (bytes/second). Empty = clients see
  // only the server link and their own access link.
  std::vector<double> pop_bottleneck_bps;
  // Multiplicative lognormal jitter (sigma of underlying normal) applied to
  // every latency sample. 0 disables jitter.
  double jitter_sigma = 0.05;
  // Probability that a control-plane (UDP) message is silently dropped.
  double control_loss_rate = 0.0;
};

class WideAreaNetwork {
 public:
  WideAreaNetwork(EventLoop& loop, Rng& rng, WideAreaConfig config,
                  std::vector<ClientNetProfile> clients);
  WideAreaNetwork(const WideAreaNetwork&) = delete;
  WideAreaNetwork& operator=(const WideAreaNetwork&) = delete;

  size_t ClientCount() const { return clients_.size(); }
  const ClientNetProfile& Client(size_t i) const { return clients_[i]; }

  // Base (unjittered) RTTs — what an averaged ping measurement converges to.
  SimDuration BaseTargetRtt(size_t client) const { return clients_[client].rtt_to_target; }
  SimDuration BaseCoordRtt(size_t client) const { return clients_[client].rtt_to_coordinator; }

  // One-way latency samples with jitter, for individual packet deliveries.
  SimDuration SampleTargetOneWay(size_t client);
  SimDuration SampleCoordOneWay(size_t client);

  // Starts a server->client response transfer of |bytes|. |on_done| runs when
  // the last byte reaches the client (propagation of the final byte
  // included). Returns the flow id (abortable).
  FlowId StartDownload(size_t client, double bytes, std::function<void()> on_done);

  void AbortDownload(FlowId id) { flows_.AbortFlow(id); }

  // Delivers a control-plane message to/from a client after one jittered
  // one-way coordinator-client latency; silently dropped with the configured
  // loss probability (the paper's implementation has no retransmit).
  void SendControl(size_t client, std::function<void()> deliver);

  // Telemetry over the server's access link.
  double ServerLinkUtilization() const { return flows_.LinkUtilization(server_link_); }
  double ServerLinkRateBps() const { return flows_.LinkRate(server_link_); }
  double ServerLinkCumulativeBytes() const { return flows_.LinkCumulativeBytes(server_link_); }

  FlowNetwork& Flows() { return flows_; }

 private:
  double Jitter();

  EventLoop& loop_;
  Rng rng_;
  WideAreaConfig config_;
  std::vector<ClientNetProfile> clients_;
  FlowNetwork flows_;
  LinkId server_link_ = 0;
  std::vector<LinkId> pop_links_;
  std::vector<LinkId> client_links_;
  std::vector<LinkId> path_scratch_;  // StartDownload's path, reused
};

// Synthesizes a PlanetLab-like fleet: RTTs lognormal around tens of
// milliseconds, access bandwidths from a bounded Pareto (a few Mbit/s up to
// campus gigabit), clients spread round-robin across POPs.
std::vector<ClientNetProfile> MakePlanetLabFleet(Rng& rng, size_t count, size_t pop_count = 4);

// A LAN fleet for the lab-validation experiments (Section 3): sub-millisecond
// RTTs and fast links, like clients on the same switch as the target.
std::vector<ClientNetProfile> MakeLanFleet(size_t count);

}  // namespace mfc

#endif  // MFC_SRC_NET_WIDE_AREA_H_
