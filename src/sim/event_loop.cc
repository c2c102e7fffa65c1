#include "src/sim/event_loop.h"

#include <algorithm>
#include <utility>

namespace mfc {

EventId EventLoop::ScheduleAt(SimTime t, Callback cb) {
  EventId id = callbacks_.Acquire();
  *callbacks_.Find(id) = std::move(cb);
  queue_.Update(callbacks_.IndexOf(id), std::max(t, now_), next_seq_++);
  return id;
}

EventId EventLoop::Reschedule(EventId id, SimTime t) {
  if (callbacks_.Find(id) == nullptr) {
    return 0;
  }
  // Mirrors Cancel + ScheduleAt on the same record: one fresh sequence number
  // and one generation bump, so the (time, seq) order is the one that pair
  // would give. The entry moves within the heap instead of being replaced.
  queue_.Update(callbacks_.IndexOf(id), std::max(t, now_), next_seq_++);
  return callbacks_.Renew(id);
}

bool EventLoop::Cancel(EventId id) {
  if (callbacks_.Find(id) == nullptr) {
    return false;
  }
  queue_.Remove(callbacks_.IndexOf(id));
  callbacks_.Release(id);
  return true;
}

bool EventLoop::RunOne() {
  if (queue_.Empty()) {
    return false;
  }
  uint32_t index = queue_.TopItem();
  now_ = queue_.TopKey();
  queue_.Pop();
  EventId id = callbacks_.HandleOf(index);
  Callback cb = std::move(*callbacks_.Find(id));
  callbacks_.Release(id);
  ++executed_;
  cb();
  return true;
}

void EventLoop::RunUntil(SimTime t) {
  while (!queue_.Empty() && queue_.TopKey() <= t) {
    RunOne();
  }
  if (now_ < t) {
    now_ = t;
  }
}

void EventLoop::RunUntilIdle() {
  while (RunOne()) {
  }
}

}  // namespace mfc
