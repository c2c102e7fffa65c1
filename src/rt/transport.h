// Pluggable datagram transports for the live control plane (DESIGN.md §13).
//
// The session layer (src/rt/session.h) is written against this interface so
// the same reliable-datagram code runs over three backends:
//
//   * UdpTransport     — real UDP sockets on the epoll reactor (deployment).
//   * MemoryHub        — in-process datagram switching with no file
//                        descriptors, delivered through reactor timers:
//                        hundreds of endpoints on one loopback box cost no
//                        fds and no kernel round trips.
//   * MemoryHub + SimTimerSource — the same hub driven by the simulation's
//                        EventLoop, so session retransmit/backoff logic runs
//                        under virtual time, deterministically.
//
// Faults are a decorator (FaultedTransport), not a socket feature: any
// backend becomes lossy/duplicating/delaying by wrapping it, which is how
// the PR-3 FaultInjector now reaches every transport uniformly.
#ifndef MFC_SRC_RT_TRANSPORT_H_
#define MFC_SRC_RT_TRANSPORT_H_

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <string_view>

#include "src/rt/sockets.h"
#include "src/sim/event_loop.h"

namespace mfc {

class FaultInjector;

// Datagram source/destination, generic over backends: UDP endpoints carry a
// sockaddr_in, hub endpoints a small node id. Key() gives a total order so
// addresses can index maps regardless of kind.
struct TransportAddress {
  enum class Kind : uint8_t { kNode = 0, kUdp = 1 };
  Kind kind = Kind::kNode;
  uint64_t node = 0;  // kNode
  sockaddr_in udp{};  // kUdp

  static TransportAddress Node(uint64_t id) {
    TransportAddress address;
    address.kind = Kind::kNode;
    address.node = id;
    return address;
  }
  static TransportAddress Udp(const sockaddr_in& sa) {
    TransportAddress address;
    address.kind = Kind::kUdp;
    address.udp = sa;
    return address;
  }

  // kUdp keys pack (ip, port) under a high tag bit; kNode keys are the id.
  uint64_t Key() const {
    if (kind == Kind::kUdp) {
      return (1ull << 63) | (static_cast<uint64_t>(ntohl(udp.sin_addr.s_addr)) << 16) |
             static_cast<uint64_t>(ntohs(udp.sin_port));
    }
    return node;
  }
  bool operator==(const TransportAddress& other) const { return Key() == other.Key(); }
  bool operator<(const TransportAddress& other) const { return Key() < other.Key(); }
};

// Timer surface the session layer drives its retransmit queue with. Real
// transports back it with the epoll Reactor; the in-sim backend with the
// simulation EventLoop — the session code cannot tell the difference.
class TimerSource {
 public:
  virtual ~TimerSource() = default;
  virtual double Now() const = 0;
  virtual uint64_t ScheduleAfter(double delay, std::function<void()> callback) = 0;
  virtual bool Cancel(uint64_t id) = 0;
};

class ReactorTimerSource : public TimerSource {
 public:
  explicit ReactorTimerSource(Reactor& reactor) : reactor_(reactor) {}
  double Now() const override { return reactor_.Now(); }
  uint64_t ScheduleAfter(double delay, std::function<void()> callback) override {
    return reactor_.ScheduleAfter(delay, std::move(callback));
  }
  bool Cancel(uint64_t id) override { return reactor_.CancelTimer(id); }

 private:
  Reactor& reactor_;
};

class SimTimerSource : public TimerSource {
 public:
  explicit SimTimerSource(EventLoop& loop) : loop_(loop) {}
  double Now() const override { return loop_.Now(); }
  uint64_t ScheduleAfter(double delay, std::function<void()> callback) override {
    return loop_.ScheduleAfter(delay, std::move(callback));
  }
  bool Cancel(uint64_t id) override { return loop_.Cancel(id); }

 private:
  EventLoop& loop_;
};

// Unreliable datagram transport: send, receive, and a clock. Reliability,
// dedup, and priorities live one layer up, in Session.
class Transport {
 public:
  using RecvCallback =
      std::function<void(std::string_view payload, const TransportAddress& from)>;

  virtual ~Transport() = default;
  virtual void Send(std::string_view payload, const TransportAddress& to) = 0;
  virtual void SetReceiver(RecvCallback on_datagram) = 0;
  virtual TransportAddress LocalAddress() const = 0;
  virtual TimerSource& clock() = 0;
};

// Real UDP over the reactor. LocalAddress() is the bound loopback endpoint.
class UdpTransport : public Transport {
 public:
  // |port| 0 = ephemeral.
  UdpTransport(Reactor& reactor, uint16_t port);

  void Send(std::string_view payload, const TransportAddress& to) override;
  void SetReceiver(RecvCallback on_datagram) override;
  TransportAddress LocalAddress() const override;
  TimerSource& clock() override { return clock_; }

 private:
  ReactorTimerSource clock_;
  UdpSocket socket_;
};

// In-process datagram switch: endpoints register under small node ids and
// exchange datagrams through zero-delay clock tasks (so delivery is always
// asynchronous, exactly like a socket — a receive handler never runs inside
// the sender's Send call). Destinations that disappeared drop the datagram,
// as UDP to a closed port would. The hub must outlive its endpoints'
// *useful* life, but delivery tasks hold the internal state alive, so
// destruction order with pending tasks is safe in any order.
class MemoryHub {
 public:
  explicit MemoryHub(TimerSource& clock);
  ~MemoryHub();
  MemoryHub(const MemoryHub&) = delete;
  MemoryHub& operator=(const MemoryHub&) = delete;

  // A new endpoint with the next free node id.
  std::unique_ptr<Transport> CreateEndpoint();

  // Datagrams delivered (handed to a receiver) so far, across all endpoints.
  uint64_t Delivered() const;

 private:
  class Endpoint;
  struct State;
  std::shared_ptr<State> state_;
};

// Fault-injecting decorator: every Send consults |injector| (drop /
// duplicate / delay, per PR 3's deterministic streams). A null injector is a
// passthrough, so owners can wrap unconditionally and arm faults later.
// Delayed copies are delivered through clock timers, cancelled on
// destruction so no task outlives the decorator.
class FaultedTransport : public Transport {
 public:
  explicit FaultedTransport(std::unique_ptr<Transport> inner,
                            FaultInjector* injector = nullptr);
  ~FaultedTransport() override;

  void set_injector(FaultInjector* injector) { injector_ = injector; }
  FaultInjector* injector() const { return injector_; }
  Transport& inner() { return *inner_; }

  void Send(std::string_view payload, const TransportAddress& to) override;
  void SetReceiver(RecvCallback on_datagram) override;
  TransportAddress LocalAddress() const override;
  TimerSource& clock() override { return inner_->clock(); }

 private:
  std::unique_ptr<Transport> inner_;
  FaultInjector* injector_ = nullptr;
  std::set<uint64_t> pending_sends_;  // delayed-copy timers, cancelled in dtor
};

}  // namespace mfc

#endif  // MFC_SRC_RT_TRANSPORT_H_
