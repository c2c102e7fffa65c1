#include <gtest/gtest.h>

#include <vector>

#include "src/rt/reactor.h"
#include "src/rt/sockets.h"
#include "src/rt/wire.h"

namespace mfc {
namespace {

TEST(ReactorTest, NowIsMonotonic) {
  Reactor reactor;
  double a = reactor.Now();
  double b = reactor.Now();
  EXPECT_GE(b, a);
}

TEST(ReactorTest, TimerFiresApproximatelyOnTime) {
  Reactor reactor;
  double fired_at = -1.0;
  double start = reactor.Now();
  reactor.ScheduleAfter(0.02, [&] { fired_at = reactor.Now(); });
  reactor.RunUntil([&] { return fired_at >= 0.0; }, start + 1.0);
  ASSERT_GE(fired_at, 0.0);
  EXPECT_GE(fired_at - start, 0.018);
  EXPECT_LT(fired_at - start, 0.3);  // generous: CI boxes stall
}

TEST(ReactorTest, TimersFireInOrder) {
  Reactor reactor;
  std::vector<int> order;
  reactor.ScheduleAfter(0.02, [&] { order.push_back(2); });
  reactor.ScheduleAfter(0.01, [&] { order.push_back(1); });
  reactor.ScheduleAfter(0.03, [&] { order.push_back(3); });
  reactor.RunUntil([&] { return order.size() == 3; }, reactor.Now() + 1.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ReactorTest, CancelledTimerNeverFires) {
  Reactor reactor;
  bool fired = false;
  auto id = reactor.ScheduleAfter(0.01, [&] { fired = true; });
  EXPECT_TRUE(reactor.CancelTimer(id));
  EXPECT_FALSE(reactor.CancelTimer(id));
  reactor.RunUntil([] { return false; }, reactor.Now() + 0.05);
  EXPECT_FALSE(fired);
}

// A deadline before the last poll is clamped to that poll's instant, so
// overdue timers fire on the next poll, in scheduling order.
TEST(ReactorTest, TimerDueInThePastFiresOnNextPoll) {
  Reactor reactor;
  reactor.PollOnce(0.0);
  std::vector<int> order;
  reactor.ScheduleAt(reactor.Now() - 5.0, [&] { order.push_back(1); });
  reactor.ScheduleAt(reactor.Now() - 10.0, [&] { order.push_back(2); });
  double start = reactor.Now();
  reactor.PollOnce(1.0);
  EXPECT_LT(reactor.Now() - start, 0.5);  // the due timers cut the wait short
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(ReactorTest, RunUntilHonorsDeadline) {
  Reactor reactor;
  double start = reactor.Now();
  bool satisfied = reactor.RunUntil([] { return false; }, start + 0.05);
  EXPECT_FALSE(satisfied);
  EXPECT_GE(reactor.Now() - start, 0.045);
}

TEST(UdpSocketTest, RoundTrip) {
  Reactor reactor;
  UdpSocket a(reactor, 0);
  UdpSocket b(reactor, 0);
  std::string received;
  sockaddr_in from{};
  b.SetReceiver([&](std::string_view payload, const sockaddr_in& sender) {
    received = std::string(payload);
    from = sender;
  });
  a.SetReceiver([](std::string_view, const sockaddr_in&) {});
  a.SendTo("hello over udp", LoopbackEndpoint(b.Port()));
  reactor.RunUntil([&] { return !received.empty(); }, reactor.Now() + 1.0);
  EXPECT_EQ(received, "hello over udp");
  EXPECT_EQ(ntohs(from.sin_port), a.Port());
}

TEST(TcpTest, ConnectSendReceive) {
  Reactor reactor;
  std::unique_ptr<TcpConnection> server_side;
  TcpListener listener(reactor, 0, [&](std::unique_ptr<TcpConnection> conn) {
    server_side = std::move(conn);
    server_side->SetCallbacks(
        [&](std::string_view data) {
          // Echo.
          server_side->Write(data);
        },
        [] {});
  });

  std::string echoed;
  bool connected = false;
  auto client = TcpConnection::Connect(reactor, LoopbackEndpoint(listener.Port()),
                                       [&](bool ok) { connected = ok; });
  ASSERT_NE(client, nullptr);
  reactor.RunUntil([&] { return connected; }, reactor.Now() + 1.0);
  ASSERT_TRUE(connected);
  client->SetCallbacks([&](std::string_view data) { echoed.append(data); }, [] {});
  client->Write("ping");
  reactor.RunUntil([&] { return echoed.size() >= 4; }, reactor.Now() + 1.0);
  EXPECT_EQ(echoed, "ping");
  EXPECT_EQ(client->BytesReceived(), 4u);
}

TEST(TcpTest, ConnectToClosedPortFails) {
  Reactor reactor;
  // Grab an ephemeral port then close it so nothing listens there.
  uint16_t dead_port;
  {
    TcpListener listener(reactor, 0, [](std::unique_ptr<TcpConnection>) {});
    dead_port = listener.Port();
  }
  bool done = false;
  bool ok = true;
  auto client = TcpConnection::Connect(reactor, LoopbackEndpoint(dead_port), [&](bool result) {
    ok = result;
    done = true;
  });
  ASSERT_NE(client, nullptr);
  reactor.RunUntil([&] { return done; }, reactor.Now() + 1.0);
  EXPECT_TRUE(done);
  EXPECT_FALSE(ok);
}

TEST(WireTest, EncodeDecodeRoundTrip) {
  std::vector<ControlMessage> messages = {
      MsgRegister{42},
      MsgPing{7},
      MsgPong{7, {}},
      MsgRttProbe{9, 8080},
      MsgRtt{9, 1234},
      MsgMeasure{11, HttpMethod::kHead, 8080, "/index.html"},
      MsgFire{12, 5, HttpMethod::kGet, 8080, "/cgi/q.php?mfc=3", 0},
      MsgSample{12, 200, 102400, 83211, false, 0, {}},
  };
  for (const ControlMessage& message : messages) {
    std::string wire = EncodeMessage(message);
    auto decoded = DecodeMessage(wire);
    ASSERT_TRUE(decoded.has_value()) << wire;
    EXPECT_EQ(EncodeMessage(*decoded), wire);
  }
}

TEST(WireTest, DecodeRejectsMalformed) {
  const char* bad[] = {
      "",
      "NOPE 1",
      "REGISTER",
      "REGISTER abc",
      "PING 1 2",
      "MEASURE 1 BREW 80 /x",       // bad method
      "MEASURE 1 GET 80 noslash",   // target must start with '/'
      "FIRE 1 2 GET notaport /x 0",
      "SAMPLE 1 200 5",             // missing fields
      "PONG 7",                     // no stats tail
      "SAMPLE 1 200 5 83211 0 31",  // no stats tail
      "FIRE 1 2 GET 80 /x",         // no fire-at word
      "REGACK 1",                   // no such verb: session acks do this job
      "CMDACK 1",
      "SAMPLEACK 1",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(DecodeMessage(line).has_value()) << line;
  }
}

TEST(WireTest, PongStatsTailRoundTrips) {
  AgentStats stats;
  stats.inflight = 2;
  stats.fetch_errors = 1;
  stats.rtt_ewma_us = 1500;
  stats.dedup_hits = 3;
  stats.fault_drops = 4;
  stats.requests_fired = 9;

  std::string wire = EncodeMessage(MsgPong{7, stats});
  EXPECT_EQ(wire, "PONG 7 2 1 1500 3 4 9");
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  const auto& pong = std::get<MsgPong>(*decoded);
  EXPECT_EQ(pong.seq, 7u);
  EXPECT_EQ(pong.stats, stats);
}

TEST(WireTest, SampleStatsTailRoundTrips) {
  AgentStats stats;
  stats.inflight = 5;
  stats.requests_fired = 6;
  MsgSample sample{12, 200, 102400, 83211, true, 31, stats};
  std::string wire = EncodeMessage(sample);
  auto decoded = DecodeMessage(wire);
  ASSERT_TRUE(decoded.has_value());
  const auto& got = std::get<MsgSample>(*decoded);
  EXPECT_EQ(got.token, 12u);
  EXPECT_TRUE(got.timed_out);
  EXPECT_EQ(got.sample_id, 31u);
  EXPECT_EQ(got.stats, stats);
  EXPECT_EQ(EncodeMessage(got), wire);
}

// A truncated or oversized stats tail is malformed, not silently accepted.
TEST(WireTest, PartialStatsTailRejected) {
  const char* bad[] = {
      "PONG 7 1",               // 1 of 6 stats words
      "PONG 7 1 2 3 4 5",       // 5 of 6
      "PONG 7 1 2 3 4 5 6 7",   // 7 of 6
      "PONG 7 1 2 3 4 5 x",     // non-numeric stats word
  };
  for (const char* line : bad) {
    EXPECT_FALSE(DecodeMessage(line).has_value()) << line;
  }
}

}  // namespace
}  // namespace mfc
