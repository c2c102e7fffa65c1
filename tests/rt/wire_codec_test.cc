// Wire-codec robustness: every control message and session frame must
// round-trip exactly, and the decoders must reject (never crash on, never
// mis-parse) truncated, overlong, and randomly mutated datagrams — the
// control plane reads raw UDP payloads straight off the wire.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/rt/wire.h"
#include "src/sim/rng.h"

namespace mfc {
namespace {

AgentStats SomeStats() {
  AgentStats stats;
  stats.inflight = 3;
  stats.fetch_errors = 1;
  stats.rtt_ewma_us = 1500;
  stats.dedup_hits = 2;
  stats.fault_drops = 7;
  stats.requests_fired = 42;
  return stats;
}

// One representative of every ControlMessage alternative, extreme values
// included (u64 max exercises the full from_chars range).
std::vector<ControlMessage> AllMessages() {
  std::vector<ControlMessage> all;
  all.push_back(MsgRegister{7});
  all.push_back(MsgRegister{UINT64_MAX});
  all.push_back(MsgPing{1});
  all.push_back(MsgPong{5, {}});
  all.push_back(MsgPong{5, SomeStats()});
  all.push_back(MsgRttProbe{9, 8080});
  all.push_back(MsgRtt{9, 1234567});
  all.push_back(MsgRttFail{9});
  all.push_back(MsgMeasure{11, "GET", 80, "/index.html"});
  all.push_back(MsgMeasure{12, "HEAD", 65535, "/"});
  all.push_back(MsgFire{13, 4, "GET", 8080, "/big.bin", 1700000000000000ull});
  MsgSample sample;
  sample.token = 13;
  sample.http_code = 200;
  sample.bytes = 150 * 1024;
  sample.rt_microseconds = 98765;
  sample.timed_out = false;
  sample.sample_id = 3;
  all.push_back(sample);
  sample.timed_out = true;
  sample.stats = SomeStats();
  all.push_back(sample);
  return all;
}

// Whatever the decoder accepts must re-encode to a canonical form that
// decodes to itself — the "no mis-parse" invariant the mutation corpus
// leans on (a decode that silently reinterprets bytes would break it).
void ExpectCanonicalOrRejected(std::string_view datagram) {
  if (LooksLikeSessionDatagram(datagram)) {
    auto frame = DecodeSessionFrame(datagram);
    auto ack = DecodeSessionAck(datagram);
    if (frame.has_value()) {
      std::string canonical = EncodeSessionFrame(*frame);
      auto again = DecodeSessionFrame(canonical);
      ASSERT_TRUE(again.has_value()) << canonical;
      EXPECT_EQ(EncodeSessionFrame(*again), canonical);
    }
    if (ack.has_value()) {
      EXPECT_EQ(EncodeSessionAck(*DecodeSessionAck(EncodeSessionAck(*ack))),
                EncodeSessionAck(*ack));
    }
    return;
  }
  auto message = DecodeMessage(datagram);
  if (message.has_value()) {
    std::string canonical = EncodeMessage(*message);
    auto again = DecodeMessage(canonical);
    ASSERT_TRUE(again.has_value()) << canonical;
    EXPECT_EQ(EncodeMessage(*again), canonical);
  }
}

TEST(WireCodecTest, EveryMessageTypeRoundTrips) {
  for (const ControlMessage& message : AllMessages()) {
    std::string wire = EncodeMessage(message);
    auto decoded = DecodeMessage(wire);
    ASSERT_TRUE(decoded.has_value()) << wire;
    EXPECT_EQ(decoded->index(), message.index()) << wire;
    EXPECT_EQ(EncodeMessage(*decoded), wire);
  }
}

TEST(WireCodecTest, EveryMessageTypeRoundTripsInsideSessionFrames) {
  uint64_t seq = 1;
  for (const ControlMessage& message : AllMessages()) {
    SessionFrame frame;
    frame.conn = 42;
    frame.seq = seq++;
    frame.lane = std::holds_alternative<MsgSample>(message) ? kLaneBulk : kLaneControl;
    frame.reliable = (seq % 2) == 0;
    frame.body = message;
    std::string wire = EncodeSessionFrame(frame);
    EXPECT_TRUE(LooksLikeSessionDatagram(wire));
    auto decoded = DecodeSessionFrame(wire);
    ASSERT_TRUE(decoded.has_value()) << wire;
    EXPECT_EQ(decoded->conn, frame.conn);
    EXPECT_EQ(decoded->seq, frame.seq);
    EXPECT_EQ(decoded->lane, frame.lane);
    EXPECT_EQ(decoded->reliable, frame.reliable);
    EXPECT_EQ(decoded->body.index(), frame.body.index());
    EXPECT_EQ(EncodeSessionFrame(*decoded), wire);
  }
}

TEST(WireCodecTest, SessionAckRoundTrips) {
  SessionAck ack{UINT64_MAX, 123456789};
  std::string wire = EncodeSessionAck(ack);
  EXPECT_TRUE(LooksLikeSessionDatagram(wire));
  auto decoded = DecodeSessionAck(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->conn, ack.conn);
  EXPECT_EQ(decoded->seq, ack.seq);
}

TEST(WireCodecTest, SessionPrefixDetection) {
  EXPECT_TRUE(LooksLikeSessionDatagram("S1 1 2 0 1 PING 5"));
  EXPECT_TRUE(LooksLikeSessionDatagram("A1 1 2"));
  EXPECT_FALSE(LooksLikeSessionDatagram("PING 5"));
  EXPECT_FALSE(LooksLikeSessionDatagram("SAMPLE 1 200 0 5 0 1"));
  EXPECT_FALSE(LooksLikeSessionDatagram(""));
  EXPECT_FALSE(LooksLikeSessionDatagram("S1"));
  EXPECT_FALSE(LooksLikeSessionDatagram("S2 1 2 0 1 PING 5"));
}

TEST(WireCodecTest, TruncatedDatagramsNeverMisparse) {
  for (const ControlMessage& message : AllMessages()) {
    std::string wire = EncodeMessage(message);
    for (size_t len = 0; len < wire.size(); ++len) {
      // A prefix may still be a valid shorter message (e.g. a truncated
      // number) but must never decode to something that fails to re-encode
      // canonically — and a partial <stats> tail must reject.
      ExpectCanonicalOrRejected(std::string_view(wire).substr(0, len));
    }
  }
}

TEST(WireCodecTest, PartialStatsTailsAreRejected) {
  MsgPong pong{5, SomeStats()};
  std::string wire = EncodeMessage(pong);
  // Chop the stats tail one word at a time: the tail is required, so any of
  // 0..5 stats words present must fail.
  for (int words_removed = 1; words_removed <= 6; ++words_removed) {
    std::string chopped = wire;
    for (int w = 0; w < words_removed; ++w) {
      chopped = chopped.substr(0, chopped.rfind(' '));
    }
    EXPECT_FALSE(DecodeMessage(chopped).has_value()) << chopped;
  }
}

TEST(WireCodecTest, OverlongDatagramsAreRejected) {
  for (const ControlMessage& message : AllMessages()) {
    std::string wire = EncodeMessage(message) + " 99";
    EXPECT_FALSE(DecodeMessage(wire).has_value()) << "accepted overlong datagram: " << wire;
  }
  EXPECT_FALSE(DecodeSessionFrame("S1 1 2 0 1 PING 5 6").has_value());
  EXPECT_FALSE(DecodeSessionAck("A1 1 2 3").has_value());
}

TEST(WireCodecTest, GarbageDatagramsAreRejected) {
  EXPECT_FALSE(DecodeMessage("").has_value());
  EXPECT_FALSE(DecodeMessage("   ").has_value());
  EXPECT_FALSE(DecodeMessage("NOSUCHVERB 1 2 3").has_value());
  EXPECT_FALSE(DecodeMessage("PING").has_value());
  EXPECT_FALSE(DecodeMessage("PING x").has_value());
  EXPECT_FALSE(DecodeMessage("PING -1").has_value());
  EXPECT_FALSE(DecodeMessage("PING 99999999999999999999999").has_value());
  EXPECT_FALSE(DecodeMessage("MEASURE 1 PUT 80 /").has_value());  // bad method
  EXPECT_FALSE(DecodeSessionFrame("S1 1 2 9 1 PING 5").has_value());  // bad lane
  EXPECT_FALSE(DecodeSessionFrame("S1 1 2 0 7 PING 5").has_value());  // bad rel
  EXPECT_FALSE(DecodeSessionFrame("S1 1 2 0 1 NOSUCHVERB 5").has_value());
  EXPECT_FALSE(DecodeSessionFrame("S1 x 2 0 1 PING 5").has_value());
  EXPECT_FALSE(DecodeSessionAck("A1 x 2").has_value());
  EXPECT_FALSE(DecodeSessionAck("A1 1").has_value());
}

// Seeded random-mutation corpus: flip/insert/delete bytes and truncate both
// bare messages and session frames; the decoders must never crash and every
// accepted mutant must satisfy the canonical round-trip invariant.
TEST(WireCodecTest, SeededMutationCorpusNeverCrashesOrMisparses) {
  Rng rng(20260809);
  std::vector<std::string> corpus;
  uint64_t seq = 1;
  for (const ControlMessage& message : AllMessages()) {
    corpus.push_back(EncodeMessage(message));
    SessionFrame frame;
    frame.conn = 3;
    frame.seq = seq++;
    frame.reliable = true;
    frame.body = message;
    corpus.push_back(EncodeSessionFrame(frame));
    corpus.push_back(EncodeSessionAck(SessionAck{3, seq}));
  }
  const std::string alphabet = " 0123456789ABCZaz-+.\x01\x7f\xff";
  for (const std::string& seedling : corpus) {
    for (int round = 0; round < 200; ++round) {
      std::string mutant = seedling;
      size_t edits = 1 + rng.NextBelow(4);
      for (size_t e = 0; e < edits && !mutant.empty(); ++e) {
        size_t at = rng.NextBelow(mutant.size());
        switch (rng.NextBelow(4)) {
          case 0:  // flip
            mutant[at] = alphabet[rng.NextBelow(alphabet.size())];
            break;
          case 1:  // delete
            mutant.erase(at, 1);
            break;
          case 2:  // insert
            mutant.insert(at, 1, alphabet[rng.NextBelow(alphabet.size())]);
            break;
          default:  // truncate
            mutant.resize(at);
            break;
        }
      }
      ExpectCanonicalOrRejected(mutant);
      if (::testing::Test::HasFatalFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace mfc
