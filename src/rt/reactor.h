// Real-time event loop (epoll + timer queue) for the live-socket runtime.
//
// The simulation substrate runs the MFC control logic against virtual time;
// this reactor runs the very same logic against CLOCK_MONOTONIC and real
// sockets — the deployable form of the paper's coordinator/client programs.
// Its timers live in an EventLoop whose clock is the monotonic instant of
// the last poll, so a cancelled timer leaves the queue at once. A timer due
// before that instant is clamped to it: several overdue timers run at the
// next poll in scheduling order, not deadline order.
// Single-threaded: all callbacks fire on the thread calling Run/Poll.
#ifndef MFC_SRC_RT_REACTOR_H_
#define MFC_SRC_RT_REACTOR_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "src/sim/event_loop.h"

namespace mfc {

class Reactor {
 public:
  using FdCallback = std::function<void(uint32_t epoll_events)>;
  using TimerId = EventId;  // 0 is never a valid id

  Reactor();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  // Seconds on the monotonic clock.
  double Now() const;

  // Registers interest in |events| (EPOLLIN/EPOLLOUT/...) on |fd|. One
  // callback per fd; re-watching replaces events and callback.
  void WatchFd(int fd, uint32_t events, FdCallback callback);
  void UnwatchFd(int fd);

  TimerId ScheduleAt(double when, std::function<void()> callback);
  TimerId ScheduleAfter(double delay, std::function<void()> callback);
  bool CancelTimer(TimerId id);

  // Processes due timers and ready fds; blocks at most |max_wait| seconds.
  void PollOnce(double max_wait);

  // Runs until |done| returns true or |deadline| (absolute Now() time)
  // passes. Returns whether |done| was satisfied.
  bool RunUntil(const std::function<bool()>& done, double deadline);

  // Runs until Stop() is called (from a callback).
  void Run();
  void Stop() { running_ = false; }

 private:
  void FireDueTimers();
  double NextTimerDelay() const;

  int epoll_fd_ = -1;
  bool running_ = false;
  EventLoop timers_;  // clock: Now() at the last FireDueTimers
  std::unordered_map<int, FdCallback> fd_callbacks_;
};

}  // namespace mfc

#endif  // MFC_SRC_RT_REACTOR_H_
