#include "src/net/wide_area.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace mfc {

WideAreaNetwork::WideAreaNetwork(EventLoop& loop, Rng& rng, WideAreaConfig config,
                                 std::vector<ClientNetProfile> clients)
    : loop_(loop), rng_(rng.Fork()), config_(std::move(config)), clients_(std::move(clients)),
      flows_(loop) {
  server_link_ = flows_.AddLink(config_.server_access_bps);
  pop_links_.reserve(config_.pop_bottleneck_bps.size());
  for (double bps : config_.pop_bottleneck_bps) {
    pop_links_.push_back(flows_.AddLink(bps));
  }
  client_links_.reserve(clients_.size());
  for (const ClientNetProfile& c : clients_) {
    client_links_.push_back(flows_.AddLink(c.access_down_bps));
  }
}

double WideAreaNetwork::Jitter() {
  if (config_.jitter_sigma <= 0.0) {
    return 1.0;
  }
  return std::exp(config_.jitter_sigma * SampleStandardNormal(rng_));
}

SimDuration WideAreaNetwork::SampleTargetOneWay(size_t client) {
  return 0.5 * clients_[client].rtt_to_target * Jitter();
}

SimDuration WideAreaNetwork::SampleCoordOneWay(size_t client) {
  return 0.5 * clients_[client].rtt_to_coordinator * Jitter();
}

DownloadId WideAreaNetwork::StartDownload(size_t client, double bytes,
                                          std::function<void()> on_done) {
  assert(client < clients_.size());
  path_scratch_.clear();
  path_scratch_.push_back(server_link_);
  if (!pop_links_.empty()) {
    path_scratch_.push_back(pop_links_[clients_[client].pop % pop_links_.size()]);
  }
  path_scratch_.push_back(client_links_[client]);
  DownloadId id = downloads_.Acquire();
  Download& download = *downloads_.Find(id);
  download.client = client;
  download.on_done = std::move(on_done);
  FlowId flow = flows_.StartFlow(path_scratch_, bytes, clients_[client].rtt_to_target, TcpParams{},
                                 [this, id] { OnLastByteSent(id); });
  downloads_.Find(id)->flow = flow;
  return id;
}

void WideAreaNetwork::AbortDownload(DownloadId id) {
  Download* download = downloads_.Find(id);
  if (download == nullptr || download->flow == 0) {
    return;
  }
  flows_.AbortFlow(download->flow);
  downloads_.Release(id);
}

void WideAreaNetwork::OnLastByteSent(DownloadId id) {
  Download* download = downloads_.Find(id);
  if (download == nullptr) {
    return;
  }
  download->flow = 0;
  loop_.ScheduleAfter(SampleTargetOneWay(download->client), [this, id] { OnDelivered(id); });
}

void WideAreaNetwork::OnDelivered(DownloadId id) {
  std::function<void()> on_done = std::move(downloads_.Find(id)->on_done);
  downloads_.Release(id);
  on_done();
}

void WideAreaNetwork::SendControl(size_t client, std::function<void()> deliver) {
  if (config_.control_loss_rate > 0.0 && rng_.Chance(config_.control_loss_rate)) {
    return;  // lost UDP datagram; the paper's tooling has no retransmit
  }
  loop_.ScheduleAfter(SampleCoordOneWay(client), std::move(deliver));
}

std::vector<ClientNetProfile> MakePlanetLabFleet(Rng& rng, size_t count, size_t pop_count) {
  std::vector<ClientNetProfile> fleet;
  fleet.reserve(count);
  // Wide-area RTTs: median ~70 ms, long tail to intercontinental paths.
  LognormalDist target_rtt = LognormalDist::FromMedian(0.070, 0.55);
  LognormalDist coord_rtt = LognormalDist::FromMedian(0.050, 0.55);
  // Access bandwidth: most PlanetLab hosts sit on fast campus networks
  // (median ~240 Mbit/s here), with a lognormal tail of thin links.
  LognormalDist bw = LognormalDist::FromMedian(30e6, 1.1);
  for (size_t i = 0; i < count; ++i) {
    ClientNetProfile c;
    c.rtt_to_target = std::min(target_rtt.Sample(rng), 0.450);
    c.rtt_to_coordinator = std::min(coord_rtt.Sample(rng), 0.450);
    c.access_down_bps = std::clamp(bw.Sample(rng), 0.5e6, 125e6);
    c.pop = pop_count == 0 ? 0 : i % pop_count;
    fleet.push_back(c);
  }
  return fleet;
}

std::vector<ClientNetProfile> MakeLanFleet(size_t count) {
  std::vector<ClientNetProfile> fleet;
  fleet.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ClientNetProfile c;
    c.rtt_to_target = Millis(0.3);
    c.rtt_to_coordinator = Millis(0.3);
    c.access_down_bps = 125e6;  // GigE
    c.pop = 0;
    fleet.push_back(c);
  }
  return fleet;
}

}  // namespace mfc
