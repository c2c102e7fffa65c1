#include "src/rt/session.h"

#include <vector>

#include "src/telemetry/metrics.h"

namespace mfc {
namespace {

// Receiver-side dedup window: (conn, seq) pairs older than kDedupTtl seconds
// are forgotten, and at most kDedupCap pairs are held (oldest evicted first).
constexpr double kDedupTtl = 60.0;
constexpr size_t kDedupCap = 4096;

}  // namespace

Session::Session(Transport& transport, const SessionConfig& config)
    : transport_(transport), config_(config) {
  transport_.SetReceiver([this](std::string_view payload, const TransportAddress& from) {
    OnDatagram(payload, from);
  });
}

Session::~Session() {
  if (armed_timer_ != 0) {
    transport_.clock().Cancel(armed_timer_);
  }
  // The transport may outlive this session (it is typically a sibling
  // member); a datagram arriving in that window must not call into freed
  // session state.
  transport_.SetReceiver([](std::string_view, const TransportAddress&) {});
}

void Session::SetDeliveryHandler(DeliveryHandler handler) { handler_ = std::move(handler); }

void Session::Bump(uint64_t& counter, const char* metric, uint64_t delta) {
  counter += delta;
  if (metrics_ != nullptr) {
    metrics_->Add(metric, static_cast<double>(delta));
  }
}

Session::TransferId Session::SendReliable(const ControlMessage& message,
                                          const TransportAddress& to, uint8_t lane,
                                          SendOutcome outcome) {
  SessionFrame frame;
  frame.conn = config_.conn;
  frame.seq = next_seq_++;
  frame.lane = lane;
  frame.body = message;

  PendingTransfer transfer;
  transfer.encoded = EncodeSessionFrame(frame);
  transfer.to = to;
  transfer.lane = lane;
  transfer.attempts = 1;
  transfer.due = transport_.clock().Now() + config_.retry.BackoffFor(1);
  transfer.outcome = std::move(outcome);

  transport_.Send(transfer.encoded, to);
  Bump(stats_.frames_sent, "live.session.frames_sent");

  TransferId id = frame.seq;
  retry_queue_.emplace(transfer.due, id);
  pending_.emplace(id, std::move(transfer));
  ArmRetryTimer();
  return id;
}

bool Session::Cancel(TransferId id) {
  auto it = pending_.find(id);
  if (it == pending_.end()) {
    return false;
  }
  for (auto entry = retry_queue_.find(it->second.due); entry != retry_queue_.end();
       ++entry) {
    if (entry->first != it->second.due) {
      break;
    }
    if (entry->second == id) {
      retry_queue_.erase(entry);
      break;
    }
  }
  pending_.erase(it);
  ArmRetryTimer();
  return true;
}

void Session::ArmRetryTimer() {
  if (retry_queue_.empty()) {
    if (armed_timer_ != 0) {
      transport_.clock().Cancel(armed_timer_);
      armed_timer_ = 0;
      armed_due_ = -1.0;
    }
    return;
  }
  double earliest = retry_queue_.begin()->first;
  if (armed_timer_ != 0 && armed_due_ <= earliest) {
    return;  // already armed at or before the earliest deadline
  }
  if (armed_timer_ != 0) {
    transport_.clock().Cancel(armed_timer_);
  }
  armed_due_ = earliest;
  double delay = earliest - transport_.clock().Now();
  armed_timer_ =
      transport_.clock().ScheduleAfter(delay < 0.0 ? 0.0 : delay, [this] { OnRetryTimer(); });
}

void Session::OnRetryTimer() {
  armed_timer_ = 0;
  armed_due_ = -1.0;
  double now = transport_.clock().Now();

  // Collect everything due, then service the control lane before bulk: a
  // retry burst must re-send lost FIREs/PINGs before it re-sends SAMPLE
  // backlog.
  std::vector<TransferId> due[2];
  for (auto it = retry_queue_.begin();
       it != retry_queue_.end() && it->first <= now + 1e-9;) {
    auto pending = pending_.find(it->second);
    if (pending != pending_.end()) {
      uint8_t lane = pending->second.lane <= kLaneBulk ? pending->second.lane : kLaneBulk;
      due[lane].push_back(it->second);
    }
    it = retry_queue_.erase(it);
  }
  for (const std::vector<TransferId>& batch : due) {
    for (TransferId id : batch) {
      auto it = pending_.find(id);
      if (it == pending_.end()) {
        continue;  // acked while an earlier entry in this batch ran
      }
      PendingTransfer& transfer = it->second;
      if (transfer.attempts >= config_.retry.max_attempts) {
        Bump(stats_.gave_up, "live.session.gave_up");
        SendOutcome outcome = std::move(transfer.outcome);
        pending_.erase(it);
        if (outcome) {
          outcome(false);
        }
        continue;
      }
      ++transfer.attempts;
      transport_.Send(transfer.encoded, transfer.to);
      Bump(stats_.retransmits, "live.session.retransmits");
      transfer.due = now + config_.retry.BackoffFor(transfer.attempts);
      retry_queue_.emplace(transfer.due, id);
    }
  }
  ArmRetryTimer();
}

bool Session::SeenFrame(uint64_t conn, uint64_t seq) {
  double now = transport_.clock().Now();
  while (!seen_order_.empty() &&
         (seen_order_.size() >= kDedupCap || now - seen_[seen_order_.front()] > kDedupTtl)) {
    seen_.erase(seen_order_.front());
    seen_order_.pop_front();
  }
  auto [it, inserted] = seen_.emplace(std::make_pair(conn, seq), now);
  (void)it;
  if (inserted) {
    seen_order_.emplace_back(conn, seq);
  }
  return !inserted;
}

void Session::OnAck(const SessionAck& ack) {
  if (ack.conn != config_.conn) {
    return;  // acks someone else's frame; not ours to complete
  }
  auto it = pending_.find(ack.seq);
  if (it == pending_.end()) {
    return;  // late duplicate ack
  }
  Bump(stats_.acks_received, "live.session.acks_received");
  double due = it->second.due;
  for (auto entry = retry_queue_.find(due); entry != retry_queue_.end(); ++entry) {
    if (entry->first != due) {
      break;
    }
    if (entry->second == ack.seq) {
      retry_queue_.erase(entry);
      break;
    }
  }
  SendOutcome outcome = std::move(it->second.outcome);
  pending_.erase(it);
  ArmRetryTimer();
  if (outcome) {
    outcome(true);
  }
}

void Session::OnDatagram(std::string_view payload, const TransportAddress& from) {
  auto datagram = DecodeDatagram(payload);
  if (!datagram.has_value()) {
    Bump(stats_.decode_errors, "live.session.decode_errors");
    return;
  }
  if (const auto* ack = std::get_if<SessionAck>(&*datagram)) {
    OnAck(*ack);
    return;
  }
  const SessionFrame& frame = std::get<SessionFrame>(*datagram);
  // Ack before the dedup check — duplicates mean the first ack was lost, and
  // only another ack stops the sender's retransmit loop.
  transport_.Send(EncodeSessionAck({frame.conn, frame.seq}), from);
  Bump(stats_.acks_sent, "live.session.acks_sent");
  if (SeenFrame(frame.conn, frame.seq)) {
    Bump(stats_.duplicates, "live.session.duplicates");
    return;
  }
  Bump(stats_.delivered, "live.session.delivered");
  if (handler_) {
    handler_(frame.body, from);
  }
}

}  // namespace mfc
