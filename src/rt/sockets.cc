#include "src/rt/sockets.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <string.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cassert>

#include "src/rt/fault_injector.h"

namespace mfc {
namespace {

void SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

uint16_t BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  return ntohs(addr.sin_port);
}

}  // namespace

ScopedFd& ScopedFd::operator=(ScopedFd&& other) noexcept {
  if (this != &other) {
    Reset(other.Release());
  }
  return *this;
}

int ScopedFd::Release() {
  int fd = fd_;
  fd_ = -1;
  return fd;
}

void ScopedFd::Reset(int fd) {
  if (fd_ >= 0) {
    close(fd_);
  }
  fd_ = fd;
}

sockaddr_in LoopbackEndpoint(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

TcpConnection::TcpConnection(Reactor& reactor, ScopedFd fd)
    : reactor_(reactor), fd_(std::move(fd)) {
  SetNonBlocking(fd_.Get());
  reactor_.WatchFd(fd_.Get(), EPOLLIN, [this](uint32_t events) { OnEvent(events); });
}

TcpConnection::~TcpConnection() { Close(); }

std::unique_ptr<TcpConnection> TcpConnection::Connect(Reactor& reactor, const sockaddr_in& addr,
                                                      std::function<void(bool)> on_connected,
                                                      FaultInjector* fault) {
  if (fault != nullptr && fault->FailConnect()) {
    return nullptr;  // injected local connect failure
  }
  ScopedFd fd(socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.Valid()) {
    return nullptr;
  }
  SetNonBlocking(fd.Get());
  int rc = connect(fd.Get(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    return nullptr;
  }
  auto conn = std::make_unique<TcpConnection>(reactor, std::move(fd));
  conn->connecting_ = true;
  conn->on_connected_ = std::move(on_connected);
  conn->UpdateInterest();
  return conn;
}

void TcpConnection::SetCallbacks(DataCallback on_data, ClosedCallback on_closed) {
  on_data_ = std::move(on_data);
  on_closed_ = std::move(on_closed);
}

void TcpConnection::Write(std::string_view data) {
  write_buffer_.append(data);
  FlushWrites();
}

void TcpConnection::Close() {
  if (fd_.Valid()) {
    reactor_.UnwatchFd(fd_.Get());
    fd_.Reset();
  }
}

void TcpConnection::UpdateInterest() {
  if (!fd_.Valid()) {
    return;
  }
  uint32_t events = EPOLLIN;
  if (connecting_ || !write_buffer_.empty()) {
    events |= EPOLLOUT;
  }
  reactor_.WatchFd(fd_.Get(), events, [this](uint32_t ev) { OnEvent(ev); });
}

void TcpConnection::FlushWrites() {
  if (!fd_.Valid() || connecting_) {
    return;
  }
  while (!write_buffer_.empty()) {
    ssize_t n = send(fd_.Get(), write_buffer_.data(), write_buffer_.size(), MSG_NOSIGNAL);
    if (n > 0) {
      write_buffer_.erase(0, static_cast<size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      Close();
      if (on_closed_) {
        on_closed_();
      }
      return;
    }
  }
  UpdateInterest();
}

void TcpConnection::OnEvent(uint32_t events) {
  if (connecting_ && (events & (EPOLLOUT | EPOLLERR))) {
    connecting_ = false;
    int err = 0;
    socklen_t len = sizeof(err);
    getsockopt(fd_.Get(), SOL_SOCKET, SO_ERROR, &err, &len);
    auto callback = std::move(on_connected_);
    on_connected_ = nullptr;
    if (err != 0) {
      Close();
      if (callback) {
        callback(false);
      }
      return;
    }
    UpdateInterest();
    if (callback) {
      callback(true);
    }
    if (!fd_.Valid()) {
      return;
    }
  }
  if (events & EPOLLIN) {
    char buf[64 * 1024];
    for (;;) {
      ssize_t n = recv(fd_.Get(), buf, sizeof(buf), 0);
      if (n > 0) {
        bytes_received_ += static_cast<uint64_t>(n);
        if (on_data_) {
          on_data_(std::string_view(buf, static_cast<size_t>(n)));
          if (!fd_.Valid()) {
            return;  // callback closed us
          }
        }
      } else if (n == 0) {
        Close();
        if (on_closed_) {
          on_closed_();
        }
        return;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      } else {
        Close();
        if (on_closed_) {
          on_closed_();
        }
        return;
      }
    }
  }
  if (events & EPOLLOUT) {
    FlushWrites();
  }
  if (events & (EPOLLHUP | EPOLLERR)) {
    if (fd_.Valid()) {
      Close();
      if (on_closed_) {
        on_closed_();
      }
    }
  }
}

TcpListener::TcpListener(Reactor& reactor, uint16_t port, AcceptCallback on_accept)
    : reactor_(reactor), on_accept_(std::move(on_accept)) {
  fd_.Reset(socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  assert(fd_.Valid());
  int one = 1;
  setsockopt(fd_.Get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackEndpoint(port);
  int rc = bind(fd_.Get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  assert(rc == 0);
  rc = listen(fd_.Get(), 128);
  assert(rc == 0);
  (void)rc;
  port_ = BoundPort(fd_.Get());
  SetNonBlocking(fd_.Get());
  reactor_.WatchFd(fd_.Get(), EPOLLIN, [this](uint32_t) { OnReadable(); });
}

TcpListener::~TcpListener() {
  if (fd_.Valid()) {
    reactor_.UnwatchFd(fd_.Get());
  }
}

void TcpListener::OnReadable() {
  for (;;) {
    int client = accept4(fd_.Get(), nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (client < 0) {
      return;  // EAGAIN or transient error
    }
    on_accept_(std::make_unique<TcpConnection>(reactor_, ScopedFd(client)));
  }
}

UdpSocket::UdpSocket(Reactor& reactor, uint16_t port) : reactor_(reactor) {
  fd_.Reset(socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0));
  assert(fd_.Valid());
  // A coordinator taking a whole fleet's SAMPLE burst on one socket can
  // overrun the default receive buffer between polls; ask for headroom (the
  // kernel clamps to rmem_max, so this is best-effort).
  int rcvbuf = 1 << 20;
  setsockopt(fd_.Get(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr = LoopbackEndpoint(port);
  int rc = bind(fd_.Get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  assert(rc == 0);
  (void)rc;
  port_ = BoundPort(fd_.Get());
  SetNonBlocking(fd_.Get());
}

UdpSocket::~UdpSocket() {
  if (fd_.Valid()) {
    reactor_.UnwatchFd(fd_.Get());
  }
}

void UdpSocket::SetReceiver(DatagramCallback on_datagram) {
  on_datagram_ = std::move(on_datagram);
  reactor_.WatchFd(fd_.Get(), EPOLLIN, [this](uint32_t) { OnReadable(); });
}

void UdpSocket::SendTo(std::string_view payload, const sockaddr_in& to) {
  sendto(fd_.Get(), payload.data(), payload.size(), 0,
         reinterpret_cast<const sockaddr*>(&to), sizeof(to));
}

void UdpSocket::OnReadable() {
#ifdef __linux__
  // Batched drain: one recvmmsg syscall pulls up to a batch of datagrams.
  constexpr unsigned kBatch = 32;
  constexpr size_t kDatagramMax = 8192;
  static thread_local char bufs[kBatch][kDatagramMax];
  mmsghdr msgs[kBatch];
  iovec iovs[kBatch];
  sockaddr_in froms[kBatch];
  for (;;) {
    for (unsigned i = 0; i < kBatch; ++i) {
      iovs[i] = {bufs[i], kDatagramMax};
      memset(&msgs[i].msg_hdr, 0, sizeof(msgs[i].msg_hdr));
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &froms[i];
      msgs[i].msg_hdr.msg_namelen = sizeof(froms[i]);
    }
    int n = recvmmsg(fd_.Get(), msgs, kBatch, 0, nullptr);
    if (n <= 0) {
      return;  // EAGAIN (drained) or transient error
    }
    for (int i = 0; i < n; ++i) {
      if (on_datagram_) {
        on_datagram_(std::string_view(bufs[i], msgs[i].msg_len), froms[i]);
      }
      if (!fd_.Valid()) {
        return;  // a callback destroyed the socket's owner
      }
    }
    if (static_cast<unsigned>(n) < kBatch) {
      return;  // short batch: the queue is drained
    }
  }
#else
  char buf[8192];
  for (;;) {
    sockaddr_in from{};
    socklen_t len = sizeof(from);
    ssize_t n = recvfrom(fd_.Get(), buf, sizeof(buf), 0, reinterpret_cast<sockaddr*>(&from),
                         &len);
    if (n < 0) {
      return;
    }
    if (on_datagram_) {
      on_datagram_(std::string_view(buf, static_cast<size_t>(n)), from);
    }
    if (!fd_.Valid()) {
      return;
    }
  }
#endif
}

}  // namespace mfc
