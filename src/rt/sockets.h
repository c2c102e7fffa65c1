// Thin RAII socket wrappers over the reactor: nonblocking TCP listener,
// TCP connection with buffered writes, and UDP datagram socket. Loopback-
// oriented (the test deployment), but nothing here is loopback-specific.
#ifndef MFC_SRC_RT_SOCKETS_H_
#define MFC_SRC_RT_SOCKETS_H_

#include <netinet/in.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <string>

#include "src/rt/reactor.h"

namespace mfc {

class FaultInjector;

// Closes the fd on destruction.
class ScopedFd {
 public:
  ScopedFd() = default;
  explicit ScopedFd(int fd) : fd_(fd) {}
  ~ScopedFd() { Reset(); }
  ScopedFd(ScopedFd&& other) noexcept : fd_(other.Release()) {}
  ScopedFd& operator=(ScopedFd&& other) noexcept;
  ScopedFd(const ScopedFd&) = delete;
  ScopedFd& operator=(const ScopedFd&) = delete;

  int Get() const { return fd_; }
  bool Valid() const { return fd_ >= 0; }
  int Release();
  void Reset(int fd = -1);

 private:
  int fd_ = -1;
};

// IPv4 loopback endpoint helper.
sockaddr_in LoopbackEndpoint(uint16_t port);

class TcpConnection {
 public:
  using DataCallback = std::function<void(std::string_view)>;
  using ClosedCallback = std::function<void()>;

  // Adopts a connected (or connecting) nonblocking socket.
  TcpConnection(Reactor& reactor, ScopedFd fd);
  ~TcpConnection();
  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  // Initiates a nonblocking connect; |on_connected| fires when writable.
  // A non-null |fault| may veto the attempt (returns nullptr, as for any
  // immediate local failure).
  static std::unique_ptr<TcpConnection> Connect(Reactor& reactor, const sockaddr_in& addr,
                                                std::function<void(bool ok)> on_connected,
                                                FaultInjector* fault = nullptr);

  void SetCallbacks(DataCallback on_data, ClosedCallback on_closed);

  // Queues |data| and flushes as the socket drains.
  void Write(std::string_view data);

  // Total payload bytes received so far.
  uint64_t BytesReceived() const { return bytes_received_; }
  void Close();

 private:
  void OnEvent(uint32_t events);
  void FlushWrites();
  void UpdateInterest();

  Reactor& reactor_;
  ScopedFd fd_;
  std::function<void(bool)> on_connected_;
  DataCallback on_data_;
  ClosedCallback on_closed_;
  std::string write_buffer_;
  uint64_t bytes_received_ = 0;
  bool connecting_ = false;
};

class TcpListener {
 public:
  using AcceptCallback = std::function<void(std::unique_ptr<TcpConnection>)>;

  // Binds 127.0.0.1:|port| (0 = ephemeral) and listens.
  TcpListener(Reactor& reactor, uint16_t port, AcceptCallback on_accept);
  ~TcpListener();
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  uint16_t Port() const { return port_; }

 private:
  void OnReadable();

  Reactor& reactor_;
  ScopedFd fd_;
  uint16_t port_ = 0;
  AcceptCallback on_accept_;
};

// Plain datagram socket: faults live one layer up (FaultedTransport in
// src/rt/transport.h wraps any transport with the PR-3 injector), so this
// class only moves bytes. Receives are batched with recvmmsg on Linux —
// a coordinator draining hundreds of agents' replies pays one syscall per
// batch instead of one per datagram.
class UdpSocket {
 public:
  using DatagramCallback = std::function<void(std::string_view, const sockaddr_in& from)>;

  // Binds 127.0.0.1:|port| (0 = ephemeral).
  UdpSocket(Reactor& reactor, uint16_t port);
  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  void SetReceiver(DatagramCallback on_datagram);
  void SendTo(std::string_view payload, const sockaddr_in& to);
  uint16_t Port() const { return port_; }

 private:
  void OnReadable();

  Reactor& reactor_;
  ScopedFd fd_;
  uint16_t port_ = 0;
  DatagramCallback on_datagram_;
};

}  // namespace mfc

#endif  // MFC_SRC_RT_SOCKETS_H_
