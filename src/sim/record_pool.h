// Free-listed pool of records addressed by generation-checked handles.
//
// The simulated request path keeps one record per in-flight request (or
// download) in a pool, and each hop's callback captures only {this, handle}:
// 16 trivially copyable bytes, which std::function stores inline, so a hop
// neither allocates nor touches a reference count. EventLoop keeps each
// pending callback in a pool too, and its EventId is the record's handle.
// Releasing a record resets it and advances its generation, so a handle kept
// by a late callback resolves to null instead of to the record's next
// occupant.
//
// Acquire() may grow the storage and move every record: never hold a
// pointer or reference from Find() across a call that can acquire a record
// from the same pool. Sanitizers cannot see a stale access inside the pool,
// so resolve the handle with Find() at the start of every hop.
#ifndef MFC_SRC_SIM_RECORD_POOL_H_
#define MFC_SRC_SIM_RECORD_POOL_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mfc {

template <typename T>
class RecordPool {
 public:
  // Packs {generation, index + 1}; 0 is never a valid handle.
  using Handle = uint64_t;

  // Takes a free record, in its default-constructed state.
  Handle Acquire() {
    uint32_t index;
    if (free_head_ != kNone) {
      index = free_head_;
      free_head_ = entries_[index].next_free;
    } else {
      index = static_cast<uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    entries_[index].next_free = kLive;
    return HandleOf(index);
  }

  // The record |handle| names, or nullptr once it has been released. A
  // forged handle naming a free record with its current generation is
  // rejected too.
  T* Find(Handle handle) {
    uint32_t raw = static_cast<uint32_t>(handle & 0xffffffffu);
    if (raw == 0 || raw > entries_.size()) {
      return nullptr;
    }
    Entry& entry = entries_[raw - 1];
    return entry.generation == static_cast<uint32_t>(handle >> 32) && entry.next_free == kLive
               ? &entry.value
               : nullptr;
  }

  // Resets the live record |handle| names, dropping what it holds, and frees
  // it. Every copy of |handle| goes stale.
  void Release(Handle handle) {
    assert(Find(handle) != nullptr && "releasing a stale record handle");
    uint32_t index = IndexOf(handle);
    Entry& entry = entries_[index];
    entry.value = T();
    ++entry.generation;
    entry.next_free = free_head_;
    free_head_ = index;
  }

  // Re-issues the live record |handle| names under a new handle, keeping
  // what it holds. Every copy of |handle| goes stale.
  Handle Renew(Handle handle) {
    assert(Find(handle) != nullptr && "renewing a stale record handle");
    uint32_t index = IndexOf(handle);
    ++entries_[index].generation;
    return HandleOf(index);
  }

  // Records held, live or free: the most ever live at once.
  size_t Capacity() const { return entries_.size(); }

  // The record index a handle names, and the current handle of the record at
  // |index|. Indices are dense, so a caller can key a side table by them.
  static uint32_t IndexOf(Handle handle) { return static_cast<uint32_t>(handle & 0xffffffffu) - 1; }
  Handle HandleOf(uint32_t index) const {
    return (static_cast<Handle>(entries_[index].generation) << 32) | (index + 1);
  }

 private:
  static constexpr uint32_t kNone = UINT32_MAX;
  // |next_free| of a record in use.
  static constexpr uint32_t kLive = UINT32_MAX - 1;

  struct Entry {
    T value{};
    uint32_t generation = 1;
    uint32_t next_free = kNone;
  };

  std::vector<Entry> entries_;
  uint32_t free_head_ = kNone;
};

}  // namespace mfc

#endif  // MFC_SRC_SIM_RECORD_POOL_H_
