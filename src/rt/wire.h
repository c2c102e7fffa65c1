// Control-plane wire protocol between the live coordinator and client
// agents. UDP datagrams carrying one space-separated text line each. The
// paper sent every control message as a plain UDP datagram with no
// retransmission; here every message rides inside a session frame (below),
// and the session layer acks, retransmits and deduplicates frames, so lost
// commands, registrations and samples converge without ever executing twice.
//
//   client -> coordinator   REGISTER <client_id>
//   coordinator -> client   PING <seq>
//   client -> coordinator   PONG <seq> <stats>
//   coordinator -> client   RTTPROBE <token> <tcp_port>
//   client -> coordinator   RTT <token> <microseconds>
//   client -> coordinator   RTTFAIL <token>            (probe connect failed)
//   coordinator -> client   MEASURE <token> <method> <tcp_port> <target>
//   coordinator -> client   FIRE <token> <connections> <method> <tcp_port> <target> <fire_at_us>
//   client -> coordinator   SAMPLE <token> <http_code> <bytes> <rt_us> <timed_out> <sample_id> <stats>
//
// <stats> is the 6-word agent health payload piggybacked on replies the
// client already owes the coordinator (no extra datagrams, no extra loss
// exposure):
//
//   <inflight> <fetch_errors> <rtt_ewma_us> <dedup_hits> <fault_drops> <requests_fired>
//
// Words are separated by exactly one space. Numbers are decimal with no sign
// and no leading zero, <timed_out> is 0 or 1, <method> is GET or HEAD, and
// <target> starts with '/' and holds only the bytes '!'..'~'.
#ifndef MFC_SRC_RT_WIRE_H_
#define MFC_SRC_RT_WIRE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "src/http/message.h"

namespace mfc {

struct MsgRegister {
  uint64_t client_id = 0;
};
struct MsgPing {
  uint64_t seq = 0;
};
// Compact agent-side health payload piggybacked on PONG and SAMPLE replies
// (see the <stats> grammar above). All counters are cumulative since agent
// start except |inflight|, an instantaneous level.
struct AgentStats {
  uint64_t inflight = 0;        // fetches currently open
  uint64_t fetch_errors = 0;    // failed connects + kill-timer expiries
  uint64_t rtt_ewma_us = 0;     // agent's own target-RTT EWMA, microseconds (0 = none yet)
  uint64_t dedup_hits = 0;      // duplicate commands/probes discarded
  uint64_t fault_drops = 0;     // datagrams the agent's fault injector dropped
  uint64_t requests_fired = 0;  // HTTP requests launched

  bool operator==(const AgentStats&) const = default;
};
struct MsgPong {
  uint64_t seq = 0;
  AgentStats stats;
};
struct MsgRttProbe {
  uint64_t token = 0;
  uint16_t tcp_port = 0;
};
struct MsgRtt {
  uint64_t token = 0;
  uint64_t microseconds = 0;
};
// Explicit probe-failure reply: without it the coordinator would block until
// its deadline and silently substitute a fallback RTT.
struct MsgRttFail {
  uint64_t token = 0;
};
struct MsgMeasure {
  uint64_t token = 0;
  HttpMethod method = HttpMethod::kGet;  // kGet or kHead
  uint16_t tcp_port = 0;
  std::string target;
};
struct MsgFire {
  uint64_t token = 0;
  uint32_t connections = 1;
  HttpMethod method = HttpMethod::kGet;  // kGet or kHead
  uint16_t tcp_port = 0;
  std::string target;
  // Absolute reactor-clock instant (microseconds) at which the client must
  // launch its requests; 0 means fire on receipt. Commands are sent a
  // schedule_lead ahead of the burst, so a copy re-issued after control-plane
  // loss still joins the crowd at the same instant as everyone else.
  uint64_t fire_at_micros = 0;
};
struct MsgSample {
  uint64_t token = 0;
  int http_code = 0;
  uint64_t bytes = 0;
  uint64_t rt_microseconds = 0;
  bool timed_out = false;
  // Unique per client; (token, sample_id) identifies one sample so
  // retransmitted or duplicated reports are counted once.
  uint64_t sample_id = 0;
  AgentStats stats;
};

using ControlMessage = std::variant<MsgRegister, MsgPing, MsgPong, MsgRttProbe, MsgRtt,
                                    MsgMeasure, MsgFire, MsgSample, MsgRttFail>;

// Every codec below is canonical: a decoder accepts exactly the bytes its
// encoder writes and returns nullopt on anything else.
std::string EncodeMessage(const ControlMessage& message);
std::optional<ControlMessage> DecodeMessage(std::string_view line);

// --- Session framing (DESIGN.md §13) ---------------------------------------
//
// The session layer wraps control messages in a thin text frame so one
// generic ack/retransmit/dedup mechanism covers every message type:
//
//   data  S1 <conn> <seq> <lane> <inner control message>
//   ack   A1 <conn> <seq>
//
// <conn> is the sender's connection id, <seq> a per-connection sequence
// number, <lane> 0 = control / 1 = bulk. Every frame is retransmitted until
// the receiver replies A1. The session layer drops any other datagram as
// undecodable.

inline constexpr uint8_t kLaneControl = 0;  // PING/RTT/MEASURE/FIRE/REGISTER/...
inline constexpr uint8_t kLaneBulk = 1;     // SAMPLE

struct SessionFrame {
  uint64_t conn = 0;
  uint64_t seq = 0;
  uint8_t lane = kLaneControl;
  ControlMessage body;
};

struct SessionAck {
  uint64_t conn = 0;
  uint64_t seq = 0;
};

using SessionDatagram = std::variant<SessionFrame, SessionAck>;

std::string EncodeSessionFrame(const SessionFrame& frame);
std::string EncodeSessionAck(const SessionAck& ack);
std::optional<SessionDatagram> DecodeDatagram(std::string_view datagram);

}  // namespace mfc

#endif  // MFC_SRC_RT_WIRE_H_
