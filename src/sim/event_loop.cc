#include "src/sim/event_loop.h"

#include <utility>

namespace mfc {

namespace {

// Heap arity. Four children per node halve a binary heap's depth; on the
// survey workloads' small heaps (~80 entries) two and four measured within
// noise of each other (DESIGN.md §10).
constexpr uint32_t kArity = 4;

}  // namespace

uint32_t EventLoop::Resolve(EventId id) const {
  uint32_t raw = static_cast<uint32_t>(id & 0xffffffffu);
  if (raw == 0) {
    return kNoSlot;
  }
  uint32_t slot = raw - 1;
  uint32_t generation = static_cast<uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].generation != generation ||
      slots_[slot].cb == nullptr) {
    return kNoSlot;
  }
  return slot;
}

uint32_t EventLoop::AcquireSlot() {
  if (free_head_ != kNoSlot) {
    uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    slots_[slot].next_free = kNoSlot;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventLoop::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.cb = nullptr;
  ++s.generation;
  s.next_free = free_head_;
  free_head_ = slot;
}

void EventLoop::Place(uint32_t pos, const Entry& entry) {
  heap_[pos] = entry;
  slots_[entry.slot].heap_pos = pos;
}

void EventLoop::SiftUp(uint32_t pos, Entry entry) {
  while (pos > 0) {
    uint32_t parent = (pos - 1) / kArity;
    if (!Before(entry, heap_[parent])) {
      break;
    }
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, entry);
}

void EventLoop::SiftDown(uint32_t pos, Entry entry) {
  const uint32_t size = static_cast<uint32_t>(heap_.size());
  while (true) {
    uint32_t first = kArity * pos + 1;
    if (first >= size) {
      break;
    }
    uint32_t end = first + kArity < size ? first + kArity : size;
    uint32_t best = first;
    for (uint32_t child = first + 1; child < end; ++child) {
      if (Before(heap_[child], heap_[best])) {
        best = child;
      }
    }
    if (!Before(heap_[best], entry)) {
      break;
    }
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, entry);
}

void EventLoop::RemoveAt(uint32_t pos) {
  Entry filler = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;
  }
  // The filler comes from another subtree, so it may belong above the hole
  // as well as below it.
  if (pos > 0 && Before(filler, heap_[(pos - 1) / kArity])) {
    SiftUp(pos, filler);
  } else {
    SiftDown(pos, filler);
  }
}

EventId EventLoop::ScheduleAt(SimTime t, Callback cb) {
  if (t < now_) {
    t = now_;
  }
  uint32_t slot = AcquireSlot();
  slots_[slot].cb = std::move(cb);
  heap_.emplace_back();
  SiftUp(static_cast<uint32_t>(heap_.size() - 1), Entry{t, next_seq_++, slot});
  return PackId(slot, slots_[slot].generation);
}

EventId EventLoop::Reschedule(EventId id, SimTime t) {
  uint32_t slot = Resolve(id);
  if (slot == kNoSlot) {
    return 0;
  }
  if (t < now_) {
    t = now_;
  }
  // Mirrors Cancel + ScheduleAt on the same slot: one generation bump and one
  // fresh sequence number, so the (time, seq) order is the one that pair
  // would give. The entry moves within the heap instead of being replaced.
  Slot& s = slots_[slot];
  ++s.generation;
  uint32_t pos = s.heap_pos;
  Entry moved{t, next_seq_++, slot};
  if (Before(moved, heap_[pos])) {
    SiftUp(pos, moved);
  } else {
    SiftDown(pos, moved);
  }
  return PackId(slot, s.generation);
}

bool EventLoop::Cancel(EventId id) {
  uint32_t slot = Resolve(id);
  if (slot == kNoSlot) {
    return false;
  }
  RemoveAt(slots_[slot].heap_pos);
  ReleaseSlot(slot);
  return true;
}

bool EventLoop::RunOne() {
  if (heap_.empty()) {
    return false;
  }
  Entry top = heap_.front();
  RemoveAt(0);
  Callback cb = std::move(slots_[top.slot].cb);
  ReleaseSlot(top.slot);
  now_ = top.time;
  ++executed_;
  cb();
  return true;
}

void EventLoop::RunUntil(SimTime t) {
  while (!heap_.empty() && heap_.front().time <= t) {
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
