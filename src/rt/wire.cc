#include "src/rt/wire.h"

#include <charconv>
#include <vector>

namespace mfc {
namespace {

std::vector<std::string_view> SplitWords(std::string_view line) {
  std::vector<std::string_view> words;
  size_t pos = 0;
  while (pos < line.size()) {
    while (pos < line.size() && line[pos] == ' ') {
      ++pos;
    }
    size_t end = pos;
    while (end < line.size() && line[end] != ' ') {
      ++end;
    }
    if (end > pos) {
      words.push_back(line.substr(pos, end - pos));
    }
    pos = end;
  }
  return words;
}

template <typename T>
bool ParseNumber(std::string_view word, T& out) {
  auto [ptr, ec] = std::from_chars(word.data(), word.data() + word.size(), out);
  return ec == std::errc() && ptr == word.data() + word.size();
}

bool ValidMethod(std::string_view method) { return method == "GET" || method == "HEAD"; }

// The 6-word <stats> tail shared by PONG and SAMPLE.
std::string EncodeStats(const AgentStats& s) {
  return " " + std::to_string(s.inflight) + " " + std::to_string(s.fetch_errors) + " " +
         std::to_string(s.rtt_ewma_us) + " " + std::to_string(s.dedup_hits) + " " +
         std::to_string(s.fault_drops) + " " + std::to_string(s.requests_fired);
}

bool ParseStats(const std::vector<std::string_view>& words, size_t at, AgentStats& out) {
  return ParseNumber(words[at], out.inflight) && ParseNumber(words[at + 1], out.fetch_errors) &&
         ParseNumber(words[at + 2], out.rtt_ewma_us) &&
         ParseNumber(words[at + 3], out.dedup_hits) &&
         ParseNumber(words[at + 4], out.fault_drops) &&
         ParseNumber(words[at + 5], out.requests_fired);
}

}  // namespace

std::string EncodeMessage(const ControlMessage& message) {
  struct Encoder {
    std::string operator()(const MsgRegister& m) const {
      return "REGISTER " + std::to_string(m.client_id);
    }
    std::string operator()(const MsgPing& m) const { return "PING " + std::to_string(m.seq); }
    std::string operator()(const MsgPong& m) const {
      return "PONG " + std::to_string(m.seq) + EncodeStats(m.stats);
    }
    std::string operator()(const MsgRttProbe& m) const {
      return "RTTPROBE " + std::to_string(m.token) + " " + std::to_string(m.tcp_port);
    }
    std::string operator()(const MsgRtt& m) const {
      return "RTT " + std::to_string(m.token) + " " + std::to_string(m.microseconds);
    }
    std::string operator()(const MsgMeasure& m) const {
      return "MEASURE " + std::to_string(m.token) + " " + m.method + " " +
             std::to_string(m.tcp_port) + " " + m.target;
    }
    std::string operator()(const MsgFire& m) const {
      return "FIRE " + std::to_string(m.token) + " " + std::to_string(m.connections) + " " +
             m.method + " " + std::to_string(m.tcp_port) + " " + m.target + " " +
             std::to_string(m.fire_at_micros);
    }
    std::string operator()(const MsgSample& m) const {
      return "SAMPLE " + std::to_string(m.token) + " " + std::to_string(m.http_code) + " " +
             std::to_string(m.bytes) + " " + std::to_string(m.rt_microseconds) + " " +
             (m.timed_out ? "1" : "0") + " " + std::to_string(m.sample_id) +
             EncodeStats(m.stats);
    }
    std::string operator()(const MsgRttFail& m) const {
      return "RTTFAIL " + std::to_string(m.token);
    }
  };
  return std::visit(Encoder{}, message);
}

std::optional<ControlMessage> DecodeMessage(std::string_view line) {
  auto words = SplitWords(line);
  if (words.empty()) {
    return std::nullopt;
  }
  std::string_view verb = words[0];
  if (verb == "REGISTER" && words.size() == 2) {
    MsgRegister m;
    if (ParseNumber(words[1], m.client_id)) {
      return m;
    }
  } else if (verb == "PING" && words.size() == 2) {
    MsgPing m;
    if (ParseNumber(words[1], m.seq)) {
      return m;
    }
  } else if (verb == "PONG" && words.size() == 8) {
    MsgPong m;
    if (ParseNumber(words[1], m.seq) && ParseStats(words, 2, m.stats)) {
      return m;
    }
  } else if (verb == "RTTPROBE" && words.size() == 3) {
    MsgRttProbe m;
    if (ParseNumber(words[1], m.token) && ParseNumber(words[2], m.tcp_port)) {
      return m;
    }
  } else if (verb == "RTT" && words.size() == 3) {
    MsgRtt m;
    if (ParseNumber(words[1], m.token) && ParseNumber(words[2], m.microseconds)) {
      return m;
    }
  } else if (verb == "MEASURE" && words.size() == 5) {
    MsgMeasure m;
    m.method = std::string(words[2]);
    m.target = std::string(words[4]);
    if (ParseNumber(words[1], m.token) && ValidMethod(m.method) &&
        ParseNumber(words[3], m.tcp_port) && !m.target.empty() && m.target[0] == '/') {
      return m;
    }
  } else if (verb == "FIRE" && words.size() == 7) {
    MsgFire m;
    m.method = std::string(words[3]);
    m.target = std::string(words[5]);
    if (ParseNumber(words[1], m.token) && ParseNumber(words[2], m.connections) &&
        ValidMethod(m.method) && ParseNumber(words[4], m.tcp_port) && !m.target.empty() &&
        m.target[0] == '/' && ParseNumber(words[6], m.fire_at_micros)) {
      return m;
    }
  } else if (verb == "SAMPLE" && words.size() == 13) {
    MsgSample m;
    int timed_out = 0;
    if (ParseNumber(words[1], m.token) && ParseNumber(words[2], m.http_code) &&
        ParseNumber(words[3], m.bytes) && ParseNumber(words[4], m.rt_microseconds) &&
        ParseNumber(words[5], timed_out) && ParseNumber(words[6], m.sample_id) &&
        ParseStats(words, 7, m.stats)) {
      m.timed_out = timed_out != 0;
      return m;
    }
  } else if (verb == "RTTFAIL" && words.size() == 2) {
    MsgRttFail m;
    if (ParseNumber(words[1], m.token)) {
      return m;
    }
  }
  return std::nullopt;
}

std::string EncodeSessionFrame(const SessionFrame& frame) {
  return "S1 " + std::to_string(frame.conn) + " " + std::to_string(frame.seq) + " " +
         std::to_string(frame.lane) + " " + (frame.reliable ? "1" : "0") + " " +
         EncodeMessage(frame.body);
}

std::string EncodeSessionAck(const SessionAck& ack) {
  return "A1 " + std::to_string(ack.conn) + " " + std::to_string(ack.seq);
}

bool LooksLikeSessionDatagram(std::string_view datagram) {
  return datagram.size() >= 3 && datagram[2] == ' ' && datagram[1] == '1' &&
         (datagram[0] == 'S' || datagram[0] == 'A');
}

std::optional<SessionFrame> DecodeSessionFrame(std::string_view datagram) {
  if (datagram.size() < 3 || datagram.substr(0, 3) != "S1 ") {
    return std::nullopt;
  }
  // Header = 4 fixed words after the magic; the rest of the line is the
  // inner message, decoded by the plain codec.
  std::string_view rest = datagram.substr(3);
  SessionFrame frame;
  uint32_t lane = 0;
  uint32_t rel = 0;
  uint32_t* header_u32[] = {&lane, &rel};
  uint64_t* header_u64[] = {&frame.conn, &frame.seq};
  size_t word = 0;
  size_t pos = 0;
  while (word < 4) {
    while (pos < rest.size() && rest[pos] == ' ') {
      ++pos;
    }
    size_t end = pos;
    while (end < rest.size() && rest[end] != ' ') {
      ++end;
    }
    if (end == pos) {
      return std::nullopt;  // ran out of header words
    }
    std::string_view token = rest.substr(pos, end - pos);
    bool ok = word < 2 ? ParseNumber(token, *header_u64[word])
                       : ParseNumber(token, *header_u32[word - 2]);
    if (!ok) {
      return std::nullopt;
    }
    pos = end;
    ++word;
  }
  if (lane > kLaneBulk || rel > 1) {
    return std::nullopt;
  }
  frame.lane = static_cast<uint8_t>(lane);
  frame.reliable = rel == 1;
  auto body = DecodeMessage(rest.substr(pos));
  if (!body.has_value()) {
    return std::nullopt;
  }
  frame.body = std::move(*body);
  return frame;
}

std::optional<SessionAck> DecodeSessionAck(std::string_view datagram) {
  if (datagram.size() < 3 || datagram.substr(0, 3) != "A1 ") {
    return std::nullopt;
  }
  auto words = SplitWords(datagram.substr(3));
  if (words.size() != 2) {
    return std::nullopt;
  }
  SessionAck ack;
  if (!ParseNumber(words[0], ack.conn) || !ParseNumber(words[1], ack.seq)) {
    return std::nullopt;
  }
  return ack;
}

}  // namespace mfc
