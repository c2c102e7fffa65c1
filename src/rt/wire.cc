#include "src/rt/wire.h"

#include <charconv>
#include <limits>
#include <type_traits>

namespace mfc {
namespace {

// ---- field lists -----------------------------------------------------------
//
// Each message has one field list naming its words in order with their
// encodings. Driven by a Writer it appends the canonical words; driven by a
// Reader it consumes exactly those words and fails on anything else, so a
// decoder never accepts a datagram that would re-encode differently. Every
// word after the first carries its one leading space. Each primitive returns
// whether it succeeded, a Writer's always, so a field list is one && chain.

class Writer {
 public:
  static constexpr bool kWrites = true;

  explicit Writer(std::string& out) : out_(out) {}

  bool Lit(std::string_view text) {
    out_ += text;
    return true;
  }
  bool Num(uint64_t v, uint64_t /*max*/ = 0) {
    char buf[20];
    out_ += ' ';
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    return true;
  }
  bool Bit(bool v) { return Lit(v ? " 1" : " 0"); }
  bool Method(HttpMethod v) { return Lit(" ") && Lit(MethodName(v)); }
  bool Target(std::string_view v) { return Lit(" ") && Lit(v); }
  template <class... T>
  bool OneOf(const std::variant<T...>& v) {
    return std::visit([this](const auto& alt) { return Fields(*this, alt); }, v);
  }

 private:
  std::string& out_;
};

class Reader {
 public:
  static constexpr bool kWrites = false;

  explicit Reader(std::string_view in) : in_(in) {}

  bool Done() const { return pos_ == in_.size(); }

  bool Lit(std::string_view text) {
    if (in_.substr(pos_, text.size()) != text) {
      return false;
    }
    pos_ += text.size();
    return true;
  }
  // "0", or digits with no leading zero (from_chars takes no sign), at most
  // |max|.
  template <class T>
  bool Num(T& v, T max = std::numeric_limits<T>::max()) {
    if (!Lit(" ")) {
      return false;
    }
    const char* first = in_.data() + pos_;
    const char* last = in_.data() + in_.size();
    uint64_t x = 0;
    auto [end, ec] = std::from_chars(first, first != last && *first == '0' ? first + 1 : last, x);
    if (ec != std::errc() || x > static_cast<uint64_t>(max)) {
      return false;
    }
    pos_ += static_cast<size_t>(end - first);
    v = static_cast<T>(x);
    return true;
  }
  bool Bit(bool& v) { return (v = Lit(" 1")) || Lit(" 0"); }
  bool Method(HttpMethod& v) {
    const bool head = Lit(" HEAD");
    v = head ? HttpMethod::kHead : HttpMethod::kGet;
    return head || Lit(" GET");
  }
  // An origin-form path: '/' then printable bytes up to the next space.
  bool Target(std::string& v) {
    if (!Lit(" /")) {
      return false;
    }
    size_t end = pos_;
    while (end < in_.size() && in_[end] >= '!' && in_[end] <= '~') {
      ++end;
    }
    v.assign(in_.substr(pos_ - 1, end - pos_ + 1));
    pos_ = end;
    return true;
  }
  // The one alternative whose field list accepts the input. Lists start with
  // distinct verbs and a verb's next word starts with a space, so at most one
  // alternative matches ("RTT" cannot read "RTTFAIL 9").
  template <class... T>
  bool OneOf(std::variant<T...>& v) {
    const size_t start = pos_;
    return ((pos_ = start, Fields(*this, v.template emplace<T>())) || ...);
  }

 private:
  std::string_view in_;
  size_t pos_ = 0;
};

// A field list's message: const when writing.
template <class IO, class T>
using Rec = std::conditional_t<IO::kWrites, const T, T>;

template <class IO>
bool Fields(IO& io, Rec<IO, AgentStats>& s) {
  return io.Num(s.inflight) && io.Num(s.fetch_errors) && io.Num(s.rtt_ewma_us) &&
         io.Num(s.dedup_hits) && io.Num(s.fault_drops) && io.Num(s.requests_fired);
}

template <class IO>
bool Fields(IO& io, Rec<IO, MsgRegister>& m) {
  return io.Lit("REGISTER") && io.Num(m.client_id);
}

template <class IO>
bool Fields(IO& io, Rec<IO, MsgPing>& m) {
  return io.Lit("PING") && io.Num(m.seq);
}

template <class IO>
bool Fields(IO& io, Rec<IO, MsgPong>& m) {
  return io.Lit("PONG") && io.Num(m.seq) && Fields(io, m.stats);
}

template <class IO>
bool Fields(IO& io, Rec<IO, MsgRttProbe>& m) {
  return io.Lit("RTTPROBE") && io.Num(m.token) && io.Num(m.tcp_port);
}

template <class IO>
bool Fields(IO& io, Rec<IO, MsgRtt>& m) {
  return io.Lit("RTT") && io.Num(m.token) && io.Num(m.microseconds);
}

template <class IO>
bool Fields(IO& io, Rec<IO, MsgRttFail>& m) {
  return io.Lit("RTTFAIL") && io.Num(m.token);
}

template <class IO>
bool Fields(IO& io, Rec<IO, MsgMeasure>& m) {
  return io.Lit("MEASURE") && io.Num(m.token) && io.Method(m.method) && io.Num(m.tcp_port) &&
         io.Target(m.target);
}

template <class IO>
bool Fields(IO& io, Rec<IO, MsgFire>& m) {
  return io.Lit("FIRE") && io.Num(m.token) && io.Num(m.connections) && io.Method(m.method) &&
         io.Num(m.tcp_port) && io.Target(m.target) && io.Num(m.fire_at_micros);
}

template <class IO>
bool Fields(IO& io, Rec<IO, MsgSample>& m) {
  return io.Lit("SAMPLE") && io.Num(m.token) && io.Num(m.http_code) && io.Num(m.bytes) &&
         io.Num(m.rt_microseconds) && io.Bit(m.timed_out) && io.Num(m.sample_id) &&
         Fields(io, m.stats);
}

template <class IO>
bool Fields(IO& io, Rec<IO, SessionFrame>& f) {
  return io.Lit("S1") && io.Num(f.conn) && io.Num(f.seq) && io.Num(f.lane, kLaneBulk) &&
         io.Lit(" ") && Fields(io, f.body);
}

template <class IO>
bool Fields(IO& io, Rec<IO, SessionAck>& a) {
  return io.Lit("A1") && io.Num(a.conn) && io.Num(a.seq);
}

// A message, or a datagram, is the alternative whose field list matches.
template <class IO>
bool Fields(IO& io, Rec<IO, ControlMessage>& m) {
  return io.OneOf(m);
}

template <class IO>
bool Fields(IO& io, Rec<IO, SessionDatagram>& d) {
  return io.OneOf(d);
}

template <class T>
std::string Encode(const T& value) {
  std::string out;
  Writer writer(out);
  Fields(writer, value);
  return out;
}

template <class T>
std::optional<T> Decode(std::string_view in) {
  T value;
  Reader reader(in);
  if (!Fields(reader, value) || !reader.Done()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::string EncodeMessage(const ControlMessage& message) { return Encode(message); }

std::optional<ControlMessage> DecodeMessage(std::string_view line) {
  return Decode<ControlMessage>(line);
}

std::string EncodeSessionFrame(const SessionFrame& frame) { return Encode(frame); }

std::string EncodeSessionAck(const SessionAck& ack) { return Encode(ack); }

std::optional<SessionDatagram> DecodeDatagram(std::string_view datagram) {
  return Decode<SessionDatagram>(datagram);
}

}  // namespace mfc
