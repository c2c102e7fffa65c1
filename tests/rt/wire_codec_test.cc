// Wire-codec robustness: every control message and session frame must
// round-trip exactly, and the decoders must reject (never crash on, never
// mis-parse) truncated, overlong, non-canonical and randomly mutated
// datagrams — the control plane reads raw UDP payloads straight off the wire.
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
  all.push_back(MsgMeasure{11, HttpMethod::kGet, 80, "/index.html"});
  all.push_back(MsgMeasure{12, HttpMethod::kHead, 65535, "/"});
  all.push_back(MsgFire{13, 4, HttpMethod::kGet, 8080, "/big.bin", 1700000000000000ull});
  all.push_back(MsgFire{12, 5, HttpMethod::kHead, 8080, "/cgi/q.php?mfc=3", 0});
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

std::string Reencode(const SessionDatagram& datagram) {
  if (const auto* frame = std::get_if<SessionFrame>(&datagram)) {
    return EncodeSessionFrame(*frame);
  }
  return EncodeSessionAck(std::get<SessionAck>(datagram));
}

// Whatever a decoder accepts must re-encode to exactly the bytes it read:
// the readers are canonical, so every message has one spelling, and a decode
// that silently reinterprets bytes cannot pass.
void ExpectCanonicalOrRejected(std::string_view text) {
  if (auto datagram = DecodeDatagram(text)) {
    EXPECT_EQ(Reencode(*datagram), text);
  }
  if (auto message = DecodeMessage(text)) {
    EXPECT_EQ(EncodeMessage(*message), text);
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
    frame.body = message;
    std::string wire = EncodeSessionFrame(frame);
    EXPECT_EQ(wire, "S1 42 " + std::to_string(frame.seq) + " " + std::to_string(frame.lane) +
                        " " + EncodeMessage(message));
    auto decoded = DecodeDatagram(wire);
    ASSERT_TRUE(decoded.has_value()) << wire;
    const auto& got = std::get<SessionFrame>(*decoded);
    EXPECT_EQ(got.conn, frame.conn);
    EXPECT_EQ(got.seq, frame.seq);
    EXPECT_EQ(got.lane, frame.lane);
    EXPECT_EQ(got.body.index(), frame.body.index());
    EXPECT_EQ(EncodeSessionFrame(got), wire);
  }
}

TEST(WireCodecTest, SessionAckRoundTrips) {
  SessionAck ack{UINT64_MAX, 123456789};
  std::string wire = EncodeSessionAck(ack);
  auto decoded = DecodeDatagram(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<SessionAck>(*decoded).conn, ack.conn);
  EXPECT_EQ(std::get<SessionAck>(*decoded).seq, ack.seq);
}

// DecodeDatagram tells frames from acks by their first word and refuses
// everything else, bare control messages included.
TEST(WireCodecTest, SessionPrefixDetection) {
  auto frame = DecodeDatagram("S1 1 2 0 PING 5");
  ASSERT_TRUE(frame.has_value());
  EXPECT_TRUE(std::holds_alternative<SessionFrame>(*frame));
  auto ack = DecodeDatagram("A1 1 2");
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(std::holds_alternative<SessionAck>(*ack));
  EXPECT_FALSE(DecodeDatagram("PING 5").has_value());
  EXPECT_FALSE(DecodeDatagram("SAMPLE 1 200 0 5 0 1 0 0 0 0 0 0").has_value());
  EXPECT_FALSE(DecodeDatagram("").has_value());
  EXPECT_FALSE(DecodeDatagram("S1").has_value());
  EXPECT_FALSE(DecodeDatagram("S2 1 2 0 PING 5").has_value());
  EXPECT_FALSE(DecodeDatagram("A1 1 2 0 PING 5").has_value());
}

TEST(WireCodecTest, TruncatedDatagramsNeverMisparse) {
  for (const ControlMessage& message : AllMessages()) {
    std::string wire = EncodeMessage(message);
    for (size_t len = 0; len < wire.size(); ++len) {
      // A prefix may still be a valid shorter message (e.g. a truncated
      // number) but must never decode to something that re-encodes
      // differently — and a partial <stats> tail must reject.
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
  EXPECT_FALSE(DecodeDatagram("S1 1 2 0 PING 5 6").has_value());
  EXPECT_FALSE(DecodeDatagram("A1 1 2 3").has_value());
}

TEST(WireCodecTest, GarbageDatagramsAreRejected) {
  const char* bad_messages[] = {
      "",
      "   ",
      "NOSUCHVERB 1 2 3",
      "PING",
      "PING x",
      "PING 99999999999999999999999",
      "RTTPROBE 1 65536",  // port out of range
  };
  for (const char* line : bad_messages) {
    EXPECT_FALSE(DecodeMessage(line).has_value()) << line;
  }
  EXPECT_FALSE(DecodeDatagram("S1 1 2 0 NOSUCHVERB 5").has_value());
  EXPECT_FALSE(DecodeDatagram("S1 x 2 0 PING 5").has_value());
  EXPECT_FALSE(DecodeDatagram("S1 1 2 0").has_value());
  EXPECT_FALSE(DecodeDatagram("A1 x 2").has_value());
  EXPECT_FALSE(DecodeDatagram("A1 1").has_value());
}

// Spellings no encoder writes. Each bare message must be refused on its own
// and inside an otherwise valid frame.
TEST(WireCodecTest, NonCanonicalDatagramsAreRejected) {
  const std::string bad_messages[] = {
      "PING   5",  // extra spaces
      "PING  5",
      " PING 5",
      "PING 5 ",
      "PING5",
      "PONG 5 0 0 0 0  0 0",
      "PING 007",  // a sign or a leading zero
      "PING 00",
      "PING +7",
      "PING -7",
      "PONG 5 0 0 09 0 0 0",
      "SAMPLE 13 -200 10 10 0 1 0 0 0 0 0 0",
      "SAMPLE 13 200 10 10 2 1 0 0 0 0 0 0",  // timed_out is 0 or 1
      "SAMPLE 13 200 10 10 01 1 0 0 0 0 0 0",
      "MEASURE 11 POST 80 /x",  // GET or HEAD only
      "MEASURE 11 get 80 /x",
      "FIRE 13 4 BREW 8080 /x 0",
      "MEASURE 11 GET 80 x",  // a target starts with '/' ...
      "MEASURE 11 GET 80 noslash",
      "MEASURE 11 GET 80 /a\x01z",  // ... and holds only '!'..'~'
      "MEASURE 11 GET 80 /a\x7fz",
      "MEASURE 11 GET 80 /a\xffz",
      "FIRE 13 4 GET 8080 /a\tb 0",
  };
  for (const std::string& line : bad_messages) {
    EXPECT_FALSE(DecodeMessage(line).has_value()) << line;
    EXPECT_FALSE(DecodeDatagram("S1 3 1 0 " + line).has_value()) << line;
  }
  const char* bad_datagrams[] = {
      "S1 3 1 0 1 PING 5",  // the retired <rel> word
      "S1 3 1 2 PING 5",    // lane above kLaneBulk
      "S1 3 1 9 PING 5",
      "S1 03 1 0 PING 5",
      "S1 3 1 00 PING 5",
      "S1  3 1 0 PING 5",
      "S1 3 1 0  PING 5",
      "S1 3 1 0 PING 5 ",
      " S1 3 1 0 PING 5",
      "A1 03 8",
      "A1 3 -8",
      "A1  3 8",
      "A1 3 8 ",
      "A13 8",
  };
  for (const char* datagram : bad_datagrams) {
    EXPECT_FALSE(DecodeDatagram(datagram).has_value()) << datagram;
  }
  // The canonical neighbours are accepted.
  for (const char* line : {"PING 0", "PING 7", "SAMPLE 13 200 10 10 1 1 0 0 0 0 0 0",
                           "MEASURE 11 GET 80 /a!~z", "FIRE 13 4 HEAD 8080 / 0"}) {
    EXPECT_TRUE(DecodeMessage(line).has_value()) << line;
    EXPECT_TRUE(DecodeDatagram(std::string("S1 3 1 1 ") + line).has_value()) << line;
  }
  EXPECT_TRUE(DecodeDatagram("A1 3 8").has_value());
  EXPECT_TRUE(DecodeDatagram("A1 0 0").has_value());
}

// Seeded random-mutation corpus: flip/insert/delete bytes and truncate both
// bare messages and session frames; the decoders must never crash and every
// accepted mutant must re-encode to its own bytes.
TEST(WireCodecTest, SeededMutationCorpusNeverCrashesOrMisparses) {
  Rng rng(20260809);
  std::vector<std::string> corpus;
  uint64_t seq = 1;
  for (const ControlMessage& message : AllMessages()) {
    corpus.push_back(EncodeMessage(message));
    SessionFrame frame;
    frame.conn = 3;
    frame.seq = seq++;
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
      if (::testing::Test::HasFailure()) {
        return;
      }
    }
  }
}

}  // namespace
}  // namespace mfc
