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

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "src/net/flow_network.h"
#include "src/sim/distributions.h"
#include "src/sim/event_loop.h"
#include "src/sim/record_pool.h"
#include "src/sim/rng.h"

namespace mfc {

// A download's handle: a generation-packed id of one WideAreaNetwork's
// download records, not a FlowId of its FlowNetwork (both are uint64_t).
using DownloadId = uint64_t;

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
  // included). Returns the download's id for AbortDownload.
  DownloadId StartDownload(size_t client, double bytes, std::function<void()> on_done);

  // Aborts the transfer; |on_done| never runs. No-op once the last byte has
  // left the server (it is then propagating and still gets delivered) and
  // for a stale id.
  void AbortDownload(DownloadId id);

  // Delivers a control-plane message to/from a client after one jittered
  // one-way coordinator-client latency; silently dropped with the configured
  // loss probability (the paper's implementation has no retransmit).
  void SendControl(size_t client, std::function<void()> deliver);

  // Telemetry over the server's access link.
  double ServerLinkCumulativeBytes() const { return flows_.LinkCumulativeBytes(server_link_); }

  FlowNetwork& Flows() { return flows_; }

 private:
  // One download, pooled: from StartDownload until the last byte reaches the
  // client or the transfer is aborted.
  struct Download {
    size_t client = 0;
    FlowId flow = 0;  // the transfer's flow; 0 once its last byte has left
    std::function<void()> on_done;
  };
  static_assert(std::is_same_v<RecordPool<Download>::Handle, DownloadId>);

  double Jitter();
  // The flow finished: the last byte propagates for one jittered one-way
  // delay, drawn now, before it reaches the client.
  void OnLastByteSent(DownloadId id);
  void OnDelivered(DownloadId id);

  EventLoop& loop_;
  Rng rng_;
  WideAreaConfig config_;
  std::vector<ClientNetProfile> clients_;
  FlowNetwork flows_;
  LinkId server_link_ = 0;
  std::vector<LinkId> pop_links_;
  std::vector<LinkId> client_links_;
  std::vector<LinkId> path_scratch_;  // StartDownload's path, reused
  RecordPool<Download> downloads_;
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
