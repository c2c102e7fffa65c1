// Session + transport layer tests (DESIGN.md §13): MemoryHub datagram
// switching, reliable delivery with deterministic retransmits under injected
// loss (virtual time via SimTimerSource), receiver dedup, give-up, lane
// priority, cancellation, undecodable input, and a real-UDP end-to-end pass.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/rt/fault_injector.h"
#include "src/rt/session.h"
#include "src/rt/transport.h"
#include "src/rt/wire.h"
#include "src/sim/event_loop.h"

namespace mfc {
namespace {

RetryPolicy FastRetry(size_t attempts) {
  RetryPolicy retry;
  retry.max_attempts = attempts;
  retry.initial_backoff = Millis(25);
  retry.multiplier = 2.0;
  retry.max_backoff = Millis(200);
  return retry;
}

SessionConfig ConnConfig(uint64_t conn, size_t attempts = 4) {
  SessionConfig config;
  config.conn = conn;
  config.retry = FastRetry(attempts);
  return config;
}

// Records every datagram handed to Send and delivers nothing — for
// observing the exact retransmit order the retry queue produces.
class RecordingTransport : public Transport {
 public:
  explicit RecordingTransport(TimerSource& clock) : clock_(clock) {}
  void Send(std::string_view payload, const TransportAddress& to) override {
    (void)to;
    sent.emplace_back(payload);
  }
  void SetReceiver(RecvCallback on_datagram) override { receiver_ = std::move(on_datagram); }
  TransportAddress LocalAddress() const override { return TransportAddress::Node(99); }
  TimerSource& clock() override { return clock_; }

  std::vector<std::string> sent;

 private:
  TimerSource& clock_;
  RecvCallback receiver_;
};

TEST(MemoryHubTest, DeliversBetweenEndpoints) {
  EventLoop loop;
  SimTimerSource clock(loop);
  MemoryHub hub(clock);
  auto a = hub.CreateEndpoint();
  auto b = hub.CreateEndpoint();

  std::string got;
  TransportAddress got_from;
  b->SetReceiver([&](std::string_view payload, const TransportAddress& from) {
    got = std::string(payload);
    got_from = from;
  });
  a->Send("hello", b->LocalAddress());
  EXPECT_TRUE(got.empty());  // delivery is asynchronous, like a socket
  loop.RunUntilIdle();
  EXPECT_EQ(got, "hello");
  EXPECT_TRUE(got_from == a->LocalAddress());
  EXPECT_EQ(hub.Delivered(), 1u);
}

TEST(MemoryHubTest, SendToMissingNodeIsDroppedLikeClosedPort) {
  EventLoop loop;
  SimTimerSource clock(loop);
  MemoryHub hub(clock);
  auto a = hub.CreateEndpoint();
  a->Send("into the void", TransportAddress::Node(12345));
  loop.RunUntilIdle();
  EXPECT_EQ(hub.Delivered(), 0u);
}

TEST(MemoryHubTest, EndpointDestroyedBeforeDeliveryDropsSafely) {
  EventLoop loop;
  SimTimerSource clock(loop);
  MemoryHub hub(clock);
  auto a = hub.CreateEndpoint();
  auto b = hub.CreateEndpoint();
  a->Send("late", b->LocalAddress());
  b.reset();  // destination gone while the delivery task is queued
  loop.RunUntilIdle();
  EXPECT_EQ(hub.Delivered(), 0u);
}

TEST(SessionTest, ReliableSendDeliversOnceAndAcks) {
  EventLoop loop;
  SimTimerSource clock(loop);
  MemoryHub hub(clock);
  auto send_ep = hub.CreateEndpoint();
  auto recv_ep = hub.CreateEndpoint();
  TransportAddress recv_addr = recv_ep->LocalAddress();
  Session sender(*send_ep, ConnConfig(10));
  Session receiver(*recv_ep, ConnConfig(20));

  size_t delivered = 0;
  receiver.SetDeliveryHandler([&](const ControlMessage& message, const TransportAddress&) {
    delivered += std::holds_alternative<MsgPing>(message) ? 1 : 0;
  });
  bool outcome_delivered = false;
  sender.SendReliable(MsgPing{7}, recv_addr, kLaneControl,
                      [&](bool ok) { outcome_delivered = ok; });
  EXPECT_EQ(sender.PendingReliable(), 1u);
  loop.RunUntilIdle();

  EXPECT_EQ(delivered, 1u);
  EXPECT_TRUE(outcome_delivered);
  EXPECT_EQ(sender.PendingReliable(), 0u);
  EXPECT_EQ(sender.stats().frames_sent, 1u);
  EXPECT_EQ(sender.stats().retransmits, 0u);
  EXPECT_EQ(sender.stats().acks_received, 1u);
  EXPECT_EQ(receiver.stats().acks_sent, 1u);
  EXPECT_EQ(receiver.stats().delivered, 1u);
}

TEST(SessionTest, RetransmitsConvergeUnderDeterministicLoss) {
  // Virtual time + a seeded injector: the retransmit schedule is a pure
  // function of the seed, so two identical runs agree exactly.
  auto run_once = [](uint64_t seed) {
    EventLoop loop;
    SimTimerSource clock(loop);
    MemoryHub hub(clock);
    FaultConfig lossy;
    lossy.drop_rate = 0.5;
    lossy.seed = seed;
    FaultInjector injector(lossy);
    FaultedTransport lossy_ep(hub.CreateEndpoint(), &injector);
    auto recv_ep = hub.CreateEndpoint();
    Session sender(lossy_ep, ConnConfig(10, 10));
    Session receiver(*recv_ep, ConnConfig(20));
    size_t delivered = 0;
    receiver.SetDeliveryHandler(
        [&](const ControlMessage&, const TransportAddress&) { ++delivered; });
    size_t acked = 0;
    for (int i = 0; i < 20; ++i) {
      sender.SendReliable(MsgPing{static_cast<uint64_t>(i)}, recv_ep->LocalAddress(),
                          kLaneControl, [&](bool ok) { acked += ok ? 1 : 0; });
    }
    loop.RunUntilIdle();
    EXPECT_EQ(delivered, 20u);
    EXPECT_EQ(acked, 20u);
    EXPECT_EQ(sender.PendingReliable(), 0u);
    EXPECT_GT(sender.stats().retransmits, 0u);
    return std::pair<uint64_t, uint64_t>(sender.stats().retransmits,
                                         injector.stats().dropped);
  };
  auto first = run_once(42);
  auto second = run_once(42);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, run_once(43));  // and the seed actually matters
}

TEST(SessionTest, DuplicatedFramesDeliverOnceButAckEveryCopy) {
  EventLoop loop;
  SimTimerSource clock(loop);
  MemoryHub hub(clock);
  FaultConfig duper;
  duper.duplicate_rate = 1.0;  // every datagram sent twice
  duper.seed = 4;
  FaultInjector injector(duper);
  FaultedTransport dup_ep(hub.CreateEndpoint(), &injector);
  auto recv_ep = hub.CreateEndpoint();
  Session sender(dup_ep, ConnConfig(10));
  Session receiver(*recv_ep, ConnConfig(20));
  size_t delivered = 0;
  receiver.SetDeliveryHandler([&](const ControlMessage&, const TransportAddress&) { ++delivered; });
  sender.SendReliable(MsgPing{1}, recv_ep->LocalAddress());
  loop.RunUntilIdle();

  EXPECT_EQ(delivered, 1u);  // exactly once despite the duplicate
  EXPECT_GE(receiver.stats().duplicates, 1u);
  // Duplicates are acked too (the first ack may have been the lost one).
  EXPECT_GE(receiver.stats().acks_sent, 2u);
  EXPECT_EQ(sender.PendingReliable(), 0u);
}

TEST(SessionTest, GivesUpAfterMaxAttempts) {
  EventLoop loop;
  SimTimerSource clock(loop);
  MemoryHub hub(clock);
  auto send_ep = hub.CreateEndpoint();
  Session sender(*send_ep, ConnConfig(10, 3));

  bool fired = false;
  bool outcome_delivered = true;
  sender.SendReliable(MsgPing{1}, TransportAddress::Node(404), kLaneControl, [&](bool ok) {
    fired = true;
    outcome_delivered = ok;
  });
  loop.RunUntilIdle();

  EXPECT_TRUE(fired);
  EXPECT_FALSE(outcome_delivered);
  EXPECT_EQ(sender.PendingReliable(), 0u);
  EXPECT_EQ(sender.stats().gave_up, 1u);
  // 1 first transmission + 2 retransmits = 3 attempts.
  EXPECT_EQ(sender.stats().frames_sent, 1u);
  EXPECT_EQ(sender.stats().retransmits, 2u);
}

TEST(SessionTest, CancelStopsRetransmitsAndSuppressesOutcome) {
  EventLoop loop;
  SimTimerSource clock(loop);
  MemoryHub hub(clock);
  auto send_ep = hub.CreateEndpoint();
  Session sender(*send_ep, ConnConfig(10, 8));

  bool fired = false;
  Session::TransferId id = sender.SendReliable(MsgPing{1}, TransportAddress::Node(404),
                                               kLaneControl, [&](bool) { fired = true; });
  EXPECT_TRUE(sender.Cancel(id));
  EXPECT_FALSE(sender.Cancel(id));  // already gone
  EXPECT_EQ(sender.PendingReliable(), 0u);
  loop.RunUntilIdle();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sender.stats().retransmits, 0u);
}

TEST(SessionTest, ControlLaneRetransmitsBeforeBulk) {
  EventLoop loop;
  SimTimerSource clock(loop);
  RecordingTransport blackhole(clock);
  Session sender(blackhole, ConnConfig(10, 2));

  // Bulk first, control second — identical due times, so the retry batch
  // order is purely the lane policy's doing.
  MsgSample sample;
  sample.token = 1;
  sender.SendReliable(sample, TransportAddress::Node(1), kLaneBulk);
  sender.SendReliable(MsgPing{2}, TransportAddress::Node(1), kLaneControl);
  loop.RunUntilIdle();

  ASSERT_EQ(blackhole.sent.size(), 4u);  // 2 first sends + 1 retransmit each
  auto lane_of = [](const std::string& datagram) {
    auto decoded = DecodeDatagram(datagram);
    const auto* frame = decoded.has_value() ? std::get_if<SessionFrame>(&*decoded) : nullptr;
    EXPECT_NE(frame, nullptr) << datagram;
    return frame != nullptr ? frame->lane : uint8_t{255};
  };
  EXPECT_EQ(lane_of(blackhole.sent[0]), kLaneBulk);     // send order
  EXPECT_EQ(lane_of(blackhole.sent[1]), kLaneControl);
  EXPECT_EQ(lane_of(blackhole.sent[2]), kLaneControl);  // retry batch: control first
  EXPECT_EQ(lane_of(blackhole.sent[3]), kLaneBulk);
}

TEST(SessionTest, UndecodableDatagramsAreCountedAndDropped) {
  EventLoop loop;
  SimTimerSource clock(loop);
  MemoryHub hub(clock);
  auto raw = hub.CreateEndpoint();
  auto session_ep = hub.CreateEndpoint();
  Session receiver(*session_ep, ConnConfig(20));
  size_t delivered = 0;
  receiver.SetDeliveryHandler([&](const ControlMessage&, const TransportAddress&) { ++delivered; });
  raw->Send("!! not a control message !!", session_ep->LocalAddress());
  raw->Send("S1 truncated", session_ep->LocalAddress());
  // A well-formed control message without a session frame is undecodable too.
  raw->Send(EncodeMessage(MsgRegister{5}), session_ep->LocalAddress());
  loop.RunUntilIdle();
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(receiver.stats().decode_errors, 3u);
  EXPECT_EQ(receiver.stats().acks_sent, 0u);
}

TEST(SessionTest, ReliableRoundTripOverRealUdp) {
  Reactor reactor;
  UdpTransport a(reactor, 0);
  UdpTransport b(reactor, 0);
  Session alice(a, ConnConfig(10));
  Session bob(b, ConnConfig(20));

  size_t bob_got = 0;
  bob.SetDeliveryHandler([&](const ControlMessage& message, const TransportAddress& from) {
    if (std::holds_alternative<MsgPing>(message)) {
      ++bob_got;
      bob.SendReliable(MsgPong{std::get<MsgPing>(message).seq, {}}, from);
    }
  });
  size_t alice_got = 0;
  alice.SetDeliveryHandler([&](const ControlMessage& message, const TransportAddress&) {
    alice_got += std::holds_alternative<MsgPong>(message) ? 1 : 0;
  });
  alice.SendReliable(MsgPing{7}, b.LocalAddress());
  ASSERT_TRUE(reactor.RunUntil([&] { return alice_got == 1; }, reactor.Now() + 5.0));
  // Alice's ack for the PONG is still in flight when she delivers it; let
  // Bob's side of the exchange finish too.
  ASSERT_TRUE(reactor.RunUntil([&] { return bob.PendingReliable() == 0; },
                               reactor.Now() + 5.0));
  EXPECT_EQ(bob_got, 1u);
  EXPECT_EQ(alice.PendingReliable(), 0u);
  EXPECT_EQ(bob.PendingReliable(), 0u);
  EXPECT_EQ(alice.stats().acks_received, 1u);
  EXPECT_EQ(bob.stats().acks_received, 1u);
}

TEST(SessionTest, UdpBatchedReceiveDrainsBurst) {
  // recvmmsg batching: a burst of datagrams larger than one recv batch must
  // all arrive, and the socket's batch counter must show fewer syscall
  // rounds than datagrams.
  Reactor reactor;
  UdpTransport sender(reactor, 0);
  UdpTransport receiver(reactor, 0);
  size_t got = 0;
  receiver.SetReceiver([&](std::string_view, const TransportAddress&) { ++got; });
  constexpr size_t kBurst = 100;
  for (size_t i = 0; i < kBurst; ++i) {
    sender.Send("PING " + std::to_string(i), receiver.LocalAddress());
  }
  ASSERT_TRUE(reactor.RunUntil([&] { return got == kBurst; }, reactor.Now() + 5.0));
  EXPECT_EQ(got, kBurst);
}

}  // namespace
}  // namespace mfc
