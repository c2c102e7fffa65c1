// Discrete-event simulation core.
//
// EventLoop owns a time-ordered queue of callbacks. Events scheduled for the
// same instant run in scheduling order (stable), which keeps simulations
// deterministic.
//
// Hot-path layout: an indexed 4-ary min-heap of small POD entries
// {time, seq, slot}, ordered by (time, seq); the callback itself lives in a
// free-listed slot vector indexed by |slot|, and each pending slot records its
// entry's heap position. Cancel removes the entry in place and Reschedule
// re-keys it in place, so the heap never holds a stale entry: every pop runs
// an event and PendingCount() is the heap size. An EventId carries the slot's
// generation, which moves on whenever the event runs, is cancelled or is
// rescheduled, so a stale id is rejected in O(1) with no hash-table lookups
// anywhere on the schedule/run/cancel path.
#ifndef MFC_SRC_SIM_EVENT_LOOP_H_
#define MFC_SRC_SIM_EVENT_LOOP_H_

#include <cstdint>
#include <functional>
#include <vector>

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
  // number is consumed and the slot's generation advances once — but the
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
  size_t PendingCount() const { return heap_.size(); }

  // Total events executed since construction; useful for budget assertions.
  uint64_t ExecutedCount() const { return executed_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  struct Slot {
    Callback cb;
    // Matches the live EventId only while the event is pending; bumped when
    // the event runs, is cancelled or is rescheduled.
    uint32_t generation = 1;
    uint32_t heap_pos = 0;  // index of the slot's entry in heap_ while pending
    uint32_t next_free = kNoSlot;
  };

  struct Entry {
    SimTime time;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    uint32_t slot;
  };

  static bool Before(const Entry& a, const Entry& b) {
    return a.time < b.time || (a.time == b.time && a.seq < b.seq);
  }

  // An EventId packs {generation, slot + 1}; +1 keeps 0 invalid.
  static EventId PackId(uint32_t slot, uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | (static_cast<EventId>(slot) + 1);
  }

  // The slot of pending event |id|, or kNoSlot when |id| is stale.
  uint32_t Resolve(EventId id) const;
  // Pops a free slot, growing the vector when the free list is empty.
  uint32_t AcquireSlot();
  // Invalidates |slot| and returns it to the free list.
  void ReleaseSlot(uint32_t slot);

  // Heap maintenance. Each writes an entry's new position into its slot.
  void Place(uint32_t pos, const Entry& entry);
  void SiftUp(uint32_t pos, Entry entry);
  void SiftDown(uint32_t pos, Entry entry);
  // Removes the entry at |pos|, refilling the hole with the last entry.
  void RemoveAt(uint32_t pos);

  SimTime now_ = kTimeZero;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNoSlot;
};

}  // namespace mfc

#endif  // MFC_SRC_SIM_EVENT_LOOP_H_
