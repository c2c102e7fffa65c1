// Discrete-event simulation core.
//
// EventLoop owns a time-ordered queue of callbacks. Events scheduled for the
// same instant run in scheduling order (stable), which keeps simulations
// deterministic.
//
// Layout: each pending callback lives in a RecordPool record, and its EventId
// is the record's generation-checked handle. The queue is an IndexedMinHeap
// keyed by record index and ordered by (time, seq). Cancel removes the entry
// in place and Reschedule re-keys it in place, so the heap never holds a
// stale entry: every pop runs an event and PendingCount() is the heap size.
// A record's generation moves on whenever its event runs, is cancelled or is
// rescheduled, so a stale id is rejected in O(1) with no hash-table lookups
// anywhere on the schedule/run/cancel path.
#ifndef MFC_SRC_SIM_EVENT_LOOP_H_
#define MFC_SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>

#include "src/sim/indexed_heap.h"
#include "src/sim/record_pool.h"
#include "src/sim/sim_time.h"

namespace mfc {

// Identifies a scheduled event for cancellation. 0 is never a valid id.
using EventId = uint64_t;

class EventLoop {
 public:
  using Callback = std::function<void()>;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Current simulated time. Advances only while running events.
  SimTime Now() const { return now_; }

  // Time of the earliest pending event, kTimeInfinity when idle.
  SimTime NextTime() const { return queue_.Empty() ? kTimeInfinity : queue_.TopKey(); }

  // Schedules |cb| to run at absolute time |t|. Scheduling in the past is a
  // programming error; the event is clamped to Now() and runs next.
  EventId ScheduleAt(SimTime t, Callback cb);

  // Schedules |cb| to run |d| seconds from Now().
  EventId ScheduleAfter(SimDuration d, Callback cb) { return ScheduleAt(now_ + d, std::move(cb)); }

  // Cancels a pending event in O(log n), removing it from the heap. Returns
  // false if the event already ran, was already cancelled, or never existed.
  bool Cancel(EventId id);

  // Moves a pending event to time |t|, reusing its stored callback: exactly
  // equivalent to Cancel(id) + ScheduleAt(t, same-callback) — one sequence
  // number is consumed and the record's generation advances once — but the
  // entry is re-keyed in place, without destroying and rebuilding the
  // callback. Returns the new id, or 0 if |id| was stale (caller must
  // ScheduleAt).
  EventId Reschedule(EventId id, SimTime t);

  // Runs a single event if one is pending. Returns false when idle.
  bool RunOne();

  // Runs every event with timestamp <= |t|, then advances Now() to |t|
  // (even if the queue drained earlier).
  void RunUntil(SimTime t);

  // Runs until no events remain. The final Now() is the last event's time.
  void RunUntilIdle();

  // Number of pending (non-cancelled) events.
  size_t PendingCount() const { return queue_.Size(); }

  // Total events executed since construction; useful for budget assertions.
  uint64_t ExecutedCount() const { return executed_; }

 private:
  SimTime now_ = kTimeZero;
  uint64_t next_seq_ = 0;  // tie-breaker: FIFO among same-time events
  uint64_t executed_ = 0;
  RecordPool<Callback> callbacks_;
  IndexedMinHeap queue_;  // record index -> (time, seq)
};

}  // namespace mfc

#endif  // MFC_SRC_SIM_EVENT_LOOP_H_
