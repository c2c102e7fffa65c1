#include "src/rt/reactor.h"

#include <sys/epoll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <vector>

namespace mfc {

Reactor::Reactor() {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  assert(epoll_fd_ >= 0);
}

Reactor::~Reactor() {
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
}

double Reactor::Now() const {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Reactor::WatchFd(int fd, uint32_t events, FdCallback callback) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  bool existed = fd_callbacks_.count(fd) != 0;
  fd_callbacks_[fd] = std::move(callback);
  int op = existed ? EPOLL_CTL_MOD : EPOLL_CTL_ADD;
  int rc = epoll_ctl(epoll_fd_, op, fd, &ev);
  assert(rc == 0);
  (void)rc;
}

void Reactor::UnwatchFd(int fd) {
  if (fd_callbacks_.erase(fd) > 0) {
    epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }
}

Reactor::TimerId Reactor::ScheduleAt(double when, std::function<void()> callback) {
  return timers_.ScheduleAt(when, std::move(callback));
}

Reactor::TimerId Reactor::ScheduleAfter(double delay, std::function<void()> callback) {
  return ScheduleAt(Now() + delay, std::move(callback));
}

bool Reactor::CancelTimer(TimerId id) { return timers_.Cancel(id); }

void Reactor::FireDueTimers() { timers_.RunUntil(Now()); }

double Reactor::NextTimerDelay() const {
  if (timers_.PendingCount() == 0) {
    return 0.1;
  }
  return std::max(0.0, timers_.NextTime() - Now());
}

void Reactor::PollOnce(double max_wait) {
  double wait = std::min(max_wait, NextTimerDelay());
  int timeout_ms = static_cast<int>(wait * 1000.0);
  epoll_event events[64];
  int n = epoll_wait(epoll_fd_, events, 64, std::max(0, timeout_ms));
  for (int i = 0; i < n; ++i) {
    auto it = fd_callbacks_.find(events[i].data.fd);
    if (it != fd_callbacks_.end()) {
      // Copy: the callback may unwatch (and thus erase) itself.
      FdCallback callback = it->second;
      callback(events[i].events);
    }
  }
  FireDueTimers();
}

bool Reactor::RunUntil(const std::function<bool()>& done, double deadline) {
  while (!done()) {
    double remaining = deadline - Now();
    if (remaining <= 0.0) {
      return false;
    }
    PollOnce(std::min(remaining, 0.05));
  }
  return true;
}

void Reactor::Run() {
  running_ = true;
  while (running_) {
    PollOnce(0.05);
  }
}

}  // namespace mfc
