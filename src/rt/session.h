// Generic reliable-datagram session layer (DESIGN.md §13).
//
// One mechanism makes every control message reliable, libquicr-style, so no
// message type needs a retry or dedup path of its own:
//
//   * every endpoint owns a connection id; outgoing frames carry
//     (conn, seq) and a lane,
//   * SendReliable retransmits a frame with RetryPolicy backoff until the
//     peer's session-level ack arrives (or attempts run out), driven by a
//     single time-ordered retry queue with ONE armed clock timer,
//   * receivers ack every frame — duplicates included, so the sender's
//     loop always terminates — and deduplicate by (conn, seq) before
//     delivery, so the application sees each frame exactly once (within a
//     window of 60 s and at most 4096 pairs, oldest forgotten first),
//   * two priority lanes: when a retry batch comes due, control frames
//     (PING/RTTPROBE/MEASURE/FIRE/...) retransmit before bulk (SAMPLE),
//     so a loss burst can't starve command delivery behind sample backlog.
//
// Datagrams without session framing are counted in decode_errors and
// dropped, like any other undecodable datagram.
//
// The layer is transport- and clock-agnostic: the same Session runs over
// real UDP on the reactor, the in-process MemoryHub, or the simulation
// EventLoop via SimTimerSource — which is how the perf suite measures
// retransmit behavior deterministically.
#ifndef MFC_SRC_RT_SESSION_H_
#define MFC_SRC_RT_SESSION_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>
#include <utility>

#include "src/core/config.h"
#include "src/rt/transport.h"
#include "src/rt/wire.h"

namespace mfc {

class MetricsRegistry;

struct SessionConfig {
  // Endpoint's connection id; must be unique fleet-wide.
  uint64_t conn = 1;
  RetryPolicy retry;
};

// Mirrored to MetricsRegistry under live.session.* when SetMetrics is set.
struct SessionStats {
  uint64_t frames_sent = 0;     // first transmissions
  uint64_t retransmits = 0;     // reliable frames re-sent after backoff
  uint64_t delivered = 0;       // unique frames handed to the application
  uint64_t duplicates = 0;      // (conn, seq) repeats suppressed before delivery
  uint64_t acks_sent = 0;
  uint64_t acks_received = 0;   // acks that completed a pending transfer
  uint64_t gave_up = 0;         // reliable transfers that exhausted attempts
  uint64_t decode_errors = 0;   // undecodable datagrams dropped
};

class Session {
 public:
  using TransferId = uint64_t;
  using DeliveryHandler =
      std::function<void(const ControlMessage& message, const TransportAddress& from)>;
  // Fired exactly once per SendReliable: true when the peer acked, false
  // when attempts ran out. Cancelled transfers fire nothing.
  using SendOutcome = std::function<void(bool delivered)>;

  Session(Transport& transport, const SessionConfig& config);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  void SetDeliveryHandler(DeliveryHandler handler);

  // Sends |message| framed on |lane| and retransmits with the configured
  // backoff until acked. Returns a handle for Cancel.
  TransferId SendReliable(const ControlMessage& message, const TransportAddress& to,
                          uint8_t lane = kLaneControl, SendOutcome outcome = nullptr);

  // Drops a pending transfer (no further retransmits, outcome never fires).
  // Returns false if it already completed.
  bool Cancel(TransferId id);

  // Reliable transfers still awaiting ack or give-up. Tests assert this
  // drains back to zero between stages.
  size_t PendingReliable() const { return pending_.size(); }

  const SessionStats& stats() const { return stats_; }
  // Mirrors every stats increment into |metrics| under live.session.*.
  void SetMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  uint64_t conn() const { return config_.conn; }
  void set_retry_policy(const RetryPolicy& retry) { config_.retry = retry; }

 private:
  struct PendingTransfer {
    std::string encoded;  // framed bytes, re-sent verbatim
    TransportAddress to;
    uint8_t lane = kLaneControl;
    size_t attempts = 1;  // transmissions so far
    double due = 0.0;     // next retransmit (or give-up) instant
    SendOutcome outcome;
  };

  void OnDatagram(std::string_view payload, const TransportAddress& from);
  void OnAck(const SessionAck& ack);
  // True if (conn, seq) was already delivered; records it otherwise.
  bool SeenFrame(uint64_t conn, uint64_t seq);
  void ArmRetryTimer();
  void OnRetryTimer();
  void Bump(uint64_t& counter, const char* metric, uint64_t delta = 1);

  Transport& transport_;
  SessionConfig config_;
  DeliveryHandler handler_;
  MetricsRegistry* metrics_ = nullptr;
  SessionStats stats_;

  uint64_t next_seq_ = 1;
  std::map<TransferId, PendingTransfer> pending_;  // keyed by our seq
  // Time-ordered retry index over pending_; the earliest entry decides the
  // single armed clock timer.
  std::multimap<double, TransferId> retry_queue_;
  uint64_t armed_timer_ = 0;
  double armed_due_ = -1.0;

  // Receiver dedup: (sender conn, seq) -> receipt time, pruned FIFO.
  std::map<std::pair<uint64_t, uint64_t>, double> seen_;
  std::deque<std::pair<uint64_t, uint64_t>> seen_order_;
};

}  // namespace mfc

#endif  // MFC_SRC_RT_SESSION_H_
