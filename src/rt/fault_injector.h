// Control-plane fault injection for the live runtime.
//
// The paper's deployment ran against flaky PlanetLab nodes and a lossy wide
// area; the simulation models that with WideAreaConfig::control_loss_rate.
// FaultInjector gives the live substrate the same failure model: through a
// FaultedTransport (src/rt/transport.h), which wraps any control-plane
// transport, it drops, delays, and duplicates control datagrams; hooked into
// TcpConnection::Connect it fails connection attempts — each with a
// configurable probability drawn from its own deterministic stream, so a
// fixed seed reproduces the same fault schedule.
#ifndef MFC_SRC_RT_FAULT_INJECTOR_H_
#define MFC_SRC_RT_FAULT_INJECTOR_H_

#include <cstdint>

#include "src/sim/rng.h"
#include "src/sim/sim_time.h"

namespace mfc {

struct FaultConfig {
  double drop_rate = 0.0;             // P(control datagram silently lost)
  double duplicate_rate = 0.0;        // P(datagram delivered twice)
  double delay_rate = 0.0;            // P(datagram held back |delay| seconds)
  SimDuration delay = Millis(20);     // reordering window for delayed datagrams
  double connect_failure_rate = 0.0;  // P(TCP connect attempt fails outright)
  // Half-dead node: after this many seconds past the first datagram, every
  // datagram is dropped regardless of |drop_rate|. <= 0 disables.
  SimDuration dead_after = 0.0;
  uint64_t seed = 1;

  bool AffectsDatagrams() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || delay_rate > 0.0 || dead_after > 0.0;
  }
  bool Enabled() const { return AffectsDatagrams() || connect_failure_rate > 0.0; }
};

struct FaultStats {
  uint64_t datagrams = 0;  // datagrams offered to the injector
  uint64_t dropped = 0;
  uint64_t duplicated = 0;
  uint64_t delayed = 0;
  uint64_t connects = 0;  // connect attempts offered
  uint64_t failed_connects = 0;
};

class FaultInjector {
 public:
  explicit FaultInjector(const FaultConfig& config) : config_(config), rng_(config.seed) {}

  struct DatagramPlan {
    bool drop = false;
    uint32_t copies = 1;
    SimDuration delay = 0.0;  // 0 = deliver immediately
  };

  // Fate of one outgoing control datagram; |now| feeds the dead_after clock.
  DatagramPlan PlanDatagram(double now);

  // True if this TCP connect attempt should fail.
  bool FailConnect();

  const FaultConfig& config() const { return config_; }
  const FaultStats& stats() const { return stats_; }

 private:
  FaultConfig config_;
  Rng rng_;
  FaultStats stats_;
  double first_datagram_at_ = -1.0;
};

}  // namespace mfc

#endif  // MFC_SRC_RT_FAULT_INJECTOR_H_
