#include "src/sim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <tuple>
#include <vector>

#include "src/sim/rng.h"

namespace mfc {
namespace {

TEST(EventLoopTest, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.Now(), 0.0);
  EXPECT_EQ(loop.PendingCount(), 0u);
}

TEST(EventLoopTest, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(3.0, [&] { order.push_back(3); });
  loop.ScheduleAt(1.0, [&] { order.push_back(1); });
  loop.ScheduleAt(2.0, [&] { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.Now(), 3.0);
}

TEST(EventLoopTest, SameTimeEventsRunFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(1.0, [&order, i] { order.push_back(i); });
  }
  loop.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(EventLoopTest, NowAdvancesToEventTime) {
  EventLoop loop;
  SimTime seen = -1.0;
  loop.ScheduleAt(5.5, [&] { seen = loop.Now(); });
  loop.RunUntilIdle();
  EXPECT_DOUBLE_EQ(seen, 5.5);
}

TEST(EventLoopTest, ScheduleAfterIsRelative) {
  EventLoop loop;
  loop.ScheduleAt(2.0, [] {});
  loop.RunUntilIdle();
  SimTime seen = -1.0;
  loop.ScheduleAfter(3.0, [&] { seen = loop.Now(); });
  loop.RunUntilIdle();
  EXPECT_DOUBLE_EQ(seen, 5.0);
}

TEST(EventLoopTest, SchedulingInThePastClampsToNow) {
  EventLoop loop;
  loop.ScheduleAt(10.0, [] {});
  loop.RunUntilIdle();
  SimTime seen = -1.0;
  loop.ScheduleAt(1.0, [&] { seen = loop.Now(); });
  loop.RunUntilIdle();
  EXPECT_DOUBLE_EQ(seen, 10.0);
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  EventId id = loop.ScheduleAt(1.0, [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  loop.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, CancelTwiceFails) {
  EventLoop loop;
  EventId id = loop.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, CancelAfterRunFails) {
  EventLoop loop;
  EventId id = loop.ScheduleAt(1.0, [] {});
  loop.RunUntilIdle();
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, CancelUnknownIdFails) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(12345));
}

TEST(EventLoopTest, RunUntilStopsAtBoundaryAndAdvancesNow) {
  EventLoop loop;
  std::vector<double> fired;
  loop.ScheduleAt(1.0, [&] { fired.push_back(1.0); });
  loop.ScheduleAt(2.0, [&] { fired.push_back(2.0); });
  loop.ScheduleAt(5.0, [&] { fired.push_back(5.0); });
  loop.RunUntil(3.0);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(loop.Now(), 3.0);
  EXPECT_EQ(loop.PendingCount(), 1u);
  loop.RunUntil(10.0);
  EXPECT_EQ(fired.size(), 3u);
  EXPECT_DOUBLE_EQ(loop.Now(), 10.0);
}

TEST(EventLoopTest, RunUntilInclusiveOfBoundary) {
  EventLoop loop;
  bool ran = false;
  loop.ScheduleAt(3.0, [&] { ran = true; });
  loop.RunUntil(3.0);
  EXPECT_TRUE(ran);
}

TEST(EventLoopTest, EventsCanScheduleMoreEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 5) {
      loop.ScheduleAfter(1.0, chain);
    }
  };
  loop.ScheduleAt(1.0, chain);
  loop.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(loop.Now(), 5.0);
}

TEST(EventLoopTest, RunOneReturnsFalseWhenIdle) {
  EventLoop loop;
  EXPECT_FALSE(loop.RunOne());
  loop.ScheduleAt(1.0, [] {});
  EXPECT_TRUE(loop.RunOne());
  EXPECT_FALSE(loop.RunOne());
}

TEST(EventLoopTest, ExecutedCountTracksRuns) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) {
    loop.ScheduleAt(static_cast<double>(i), [] {});
  }
  EventId id = loop.ScheduleAt(100.0, [] {});
  loop.Cancel(id);
  loop.RunUntilIdle();
  EXPECT_EQ(loop.ExecutedCount(), 7u);
}

TEST(EventLoopTest, PendingCountExcludesCancelled) {
  EventLoop loop;
  EventId a = loop.ScheduleAt(1.0, [] {});
  loop.ScheduleAt(2.0, [] {});
  EXPECT_EQ(loop.PendingCount(), 2u);
  loop.Cancel(a);
  EXPECT_EQ(loop.PendingCount(), 1u);
}

TEST(EventLoopTest, CancelFromInsideAnEvent) {
  EventLoop loop;
  bool late_ran = false;
  EventId late = loop.ScheduleAt(2.0, [&] { late_ran = true; });
  loop.ScheduleAt(1.0, [&] { loop.Cancel(late); });
  loop.RunUntilIdle();
  EXPECT_FALSE(late_ran);
}

// Regression: PendingCount used to be computed as queue size minus cancelled
// size, which miscounted whenever cancelled entries outlived bookkeeping.
// These pin the count through every schedule/cancel/run interleaving.
TEST(EventLoopTest, PendingCountExactThroughCancelRunInterleavings) {
  EventLoop loop;
  EventId a = loop.ScheduleAt(1.0, [] {});
  EventId b = loop.ScheduleAt(2.0, [] {});
  EventId c = loop.ScheduleAt(3.0, [] {});
  EXPECT_EQ(loop.PendingCount(), 3u);
  loop.Cancel(b);
  EXPECT_EQ(loop.PendingCount(), 2u);
  EXPECT_TRUE(loop.RunOne());  // runs a
  EXPECT_EQ(loop.PendingCount(), 1u);
  loop.Cancel(c);
  EXPECT_EQ(loop.PendingCount(), 0u);
  EXPECT_FALSE(loop.RunOne());  // nothing left to run
  EXPECT_EQ(loop.PendingCount(), 0u);
  (void)a;
}

TEST(EventLoopTest, PendingCountExactAfterRunUntilSkipsStaleEntries) {
  EventLoop loop;
  // Cancelled events both before and after the RunUntil boundary.
  EventId early = loop.ScheduleAt(1.0, [] {});
  loop.ScheduleAt(2.0, [] {});
  EventId late = loop.ScheduleAt(10.0, [] {});
  loop.ScheduleAt(11.0, [] {});
  loop.Cancel(early);
  loop.Cancel(late);
  EXPECT_EQ(loop.PendingCount(), 2u);
  loop.RunUntil(5.0);
  EXPECT_EQ(loop.PendingCount(), 1u);
  loop.RunUntilIdle();
  EXPECT_EQ(loop.PendingCount(), 0u);
}

TEST(EventLoopTest, PendingCountExactWhenCallbacksScheduleAndCancel) {
  EventLoop loop;
  EventId victim = loop.ScheduleAt(5.0, [] {});
  loop.ScheduleAt(1.0, [&] {
    loop.Cancel(victim);
    loop.ScheduleAfter(1.0, [] {});
    loop.ScheduleAfter(2.0, [] {});
    EXPECT_EQ(loop.PendingCount(), 2u);
  });
  EXPECT_EQ(loop.PendingCount(), 2u);
  loop.RunUntilIdle();
  EXPECT_EQ(loop.PendingCount(), 0u);
  EXPECT_EQ(loop.ExecutedCount(), 3u);
}

// Slot reuse must not let a stale EventId cancel the slot's new occupant.
TEST(EventLoopTest, StaleIdCannotCancelReusedSlot) {
  EventLoop loop;
  EventId old_id = loop.ScheduleAt(1.0, [] {});
  ASSERT_TRUE(loop.Cancel(old_id));
  bool ran = false;
  EventId new_id = loop.ScheduleAt(2.0, [&] { ran = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(loop.Cancel(old_id));  // stale id, slot now reused
  EXPECT_EQ(loop.PendingCount(), 1u);
  loop.RunUntilIdle();
  EXPECT_TRUE(ran);
}

// An id that names a free slot with the slot's current generation (one
// generation past a cancelled id) is no live event: Cancel and Reschedule
// must reject it without freeing the slot a second time.
TEST(EventLoopTest, ForgedIdNamingAFreeSlotIsRejected) {
  EventLoop loop;
  EventId cancelled = loop.ScheduleAt(1.0, [] {});
  ASSERT_TRUE(loop.Cancel(cancelled));
  EventId forged = cancelled + (EventId{1} << 32);
  EXPECT_FALSE(loop.Cancel(forged));
  EXPECT_EQ(loop.Reschedule(forged, 2.0), 0u);
  EXPECT_EQ(loop.PendingCount(), 0u);
  std::vector<int> order;
  EventId a = loop.ScheduleAt(3.0, [&] { order.push_back(1); });
  EventId b = loop.ScheduleAt(4.0, [&] { order.push_back(2); });
  EXPECT_NE(a & 0xffffffffu, b & 0xffffffffu);  // distinct slots
  EXPECT_EQ(loop.PendingCount(), 2u);
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventLoopTest, IdsStayUniqueAcrossHeavySlotReuse) {
  EventLoop loop;
  EventId last = 0;
  for (int i = 0; i < 1000; ++i) {
    EventId id = loop.ScheduleAt(static_cast<double>(i), [] {});
    EXPECT_NE(id, 0u);
    EXPECT_NE(id, last);
    last = id;
    if (i % 2 == 0) {
      EXPECT_TRUE(loop.Cancel(id));
    } else {
      EXPECT_TRUE(loop.RunOne());
    }
    EXPECT_EQ(loop.PendingCount(), 0u);
  }
  EXPECT_EQ(loop.ExecutedCount(), 500u);
}

// Stress: interleaved schedule/cancel keeps ordering and never loses events.
TEST(EventLoopTest, StressManyEventsStayOrdered) {
  EventLoop loop;
  std::vector<double> times;
  for (int i = 0; i < 2000; ++i) {
    double t = static_cast<double>((i * 7919) % 1000);
    loop.ScheduleAt(t, [&times, &loop] { times.push_back(loop.Now()); });
  }
  loop.RunUntilIdle();
  ASSERT_EQ(times.size(), 2000u);
  for (size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

TEST(EventLoopTest, RescheduleMovesEventToNewTime) {
  EventLoop loop;
  std::vector<double> fired;
  EventId id = loop.ScheduleAt(5.0, [&] { fired.push_back(loop.Now()); });
  EventId moved = loop.Reschedule(id, 2.0);
  ASSERT_NE(moved, 0u);
  loop.RunUntilIdle();
  EXPECT_EQ(fired, (std::vector<double>{2.0}));
  EXPECT_DOUBLE_EQ(loop.Now(), 2.0);
}

TEST(EventLoopTest, RescheduleInvalidatesOldId) {
  EventLoop loop;
  bool ran = false;
  EventId id = loop.ScheduleAt(5.0, [&] { ran = true; });
  EventId moved = loop.Reschedule(id, 2.0);
  ASSERT_NE(moved, 0u);
  EXPECT_FALSE(loop.Cancel(id));     // the original handle is stale
  EXPECT_TRUE(loop.Cancel(moved));   // only the new one controls the event
  loop.RunUntilIdle();
  EXPECT_FALSE(ran);
}

TEST(EventLoopTest, RescheduleStaleIdReturnsZero) {
  EventLoop loop;
  EventId id = loop.ScheduleAt(1.0, [] {});
  loop.RunUntilIdle();
  EXPECT_EQ(loop.Reschedule(id, 2.0), 0u);
  EXPECT_EQ(loop.Reschedule(0, 2.0), 0u);
  EventId cancelled = loop.ScheduleAt(3.0, [] {});
  loop.Cancel(cancelled);
  EXPECT_EQ(loop.Reschedule(cancelled, 4.0), 0u);
}

TEST(EventLoopTest, RescheduleToThePastClampsToNow) {
  EventLoop loop;
  loop.ScheduleAt(10.0, [] {});
  loop.RunUntilIdle();
  SimTime seen = -1.0;
  EventId id = loop.ScheduleAt(20.0, [&] { seen = loop.Now(); });
  ASSERT_NE(loop.Reschedule(id, 1.0), 0u);
  loop.RunUntilIdle();
  EXPECT_DOUBLE_EQ(seen, 10.0);
}

TEST(EventLoopTest, RescheduleMatchesCancelPlusSchedule) {
  // Same observable behaviour as Cancel + ScheduleAt: firing order, timing,
  // and pending counts.
  EventLoop a;
  EventLoop b;
  std::vector<double> fired_a;
  std::vector<double> fired_b;
  EventId ia = a.ScheduleAt(7.0, [&] { fired_a.push_back(a.Now()); });
  a.ScheduleAt(4.0, [&] { fired_a.push_back(a.Now()); });
  a.Reschedule(ia, 3.0);

  EventId ib = b.ScheduleAt(7.0, [&] { fired_b.push_back(b.Now()); });
  b.ScheduleAt(4.0, [&] { fired_b.push_back(b.Now()); });
  b.Cancel(ib);
  b.ScheduleAt(3.0, [&] { fired_b.push_back(b.Now()); });

  EXPECT_EQ(a.PendingCount(), b.PendingCount());
  a.RunUntilIdle();
  b.RunUntilIdle();
  EXPECT_EQ(fired_a, fired_b);
  EXPECT_EQ(fired_a, (std::vector<double>{3.0, 4.0}));
  EXPECT_EQ(a.PendingCount(), 0u);
}

TEST(EventLoopTest, RescheduleRepeatedlyFiresOnce) {
  EventLoop loop;
  int runs = 0;
  EventId id = loop.ScheduleAt(1.0, [&] { ++runs; });
  for (int i = 0; i < 50; ++i) {
    id = loop.Reschedule(id, 1.0 + static_cast<double>(i));
    ASSERT_NE(id, 0u);
  }
  loop.RunUntilIdle();
  EXPECT_EQ(runs, 1);
  EXPECT_DOUBLE_EQ(loop.Now(), 50.0);
  EXPECT_EQ(loop.PendingCount(), 0u);
}

// ---- Differential oracle ---------------------------------------------------
//
// A test-local reference with EventLoop's API and EventId packing, kept in an
// ordered set of (time, seq, slot) with no heap positions to maintain. Slots
// come from the same LIFO free list and carry the same generation rule (bumped
// when an event runs, is cancelled or is rescheduled), so both loops must hand
// out, accept and reject exactly the same ids.
class ReferenceLoop {
 public:
  SimTime Now() const { return now_; }

  EventId ScheduleAt(SimTime t, std::function<void()> cb) {
    uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    Slot& s = slots_[slot];
    s.cb = std::move(cb);
    s.pending = true;
    s.key = Key{std::max(t, now_), next_seq_++, slot};
    queue_.insert(s.key);
    return Pack(slot);
  }

  bool Cancel(EventId id) {
    uint32_t slot = Resolve(id);
    if (slot == kNone) {
      return false;
    }
    queue_.erase(slots_[slot].key);
    Release(slot);
    return true;
  }

  EventId Reschedule(EventId id, SimTime t) {
    uint32_t slot = Resolve(id);
    if (slot == kNone) {
      return 0;
    }
    Slot& s = slots_[slot];
    queue_.erase(s.key);
    ++s.generation;
    s.key = Key{std::max(t, now_), next_seq_++, slot};
    queue_.insert(s.key);
    return Pack(slot);
  }

  bool RunOne() {
    if (queue_.empty()) {
      return false;
    }
    Key top = *queue_.begin();
    queue_.erase(queue_.begin());
    uint32_t slot = std::get<2>(top);
    std::function<void()> cb = std::move(slots_[slot].cb);
    Release(slot);
    now_ = std::get<0>(top);
    cb();
    return true;
  }

  void RunUntil(SimTime t) {
    while (!queue_.empty() && std::get<0>(*queue_.begin()) <= t) {
      RunOne();
    }
    now_ = std::max(now_, t);
  }

  size_t PendingCount() const { return queue_.size(); }

 private:
  using Key = std::tuple<SimTime, uint64_t, uint32_t>;
  static constexpr uint32_t kNone = UINT32_MAX;

  struct Slot {
    std::function<void()> cb;
    uint32_t generation = 1;
    bool pending = false;
    Key key{};
  };

  EventId Pack(uint32_t slot) const {
    return (static_cast<EventId>(slots_[slot].generation) << 32) | (slot + 1);
  }

  uint32_t Resolve(EventId id) const {
    uint32_t raw = static_cast<uint32_t>(id & 0xffffffffu);
    if (raw == 0 || raw > slots_.size()) {
      return kNone;
    }
    const Slot& s = slots_[raw - 1];
    return s.pending && s.generation == static_cast<uint32_t>(id >> 32) ? raw - 1 : kNone;
  }

  void Release(uint32_t slot) {
    Slot& s = slots_[slot];
    s.cb = nullptr;
    s.pending = false;
    ++s.generation;
    free_.push_back(slot);
  }

  SimTime now_ = kTimeZero;
  uint64_t next_seq_ = 0;
  std::set<Key> queue_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_;
};

// One side of a differential script. Every operation, at the top level or
// inside a running event, draws its choices from an Rng seeded by the script
// seed and the operation's (or event's) number, so two sides that agree so
// far make identical calls. Everything observable is folded into a rolling
// digest: execution order, each event's run time, every returned id and every
// Cancel result.
template <typename Loop>
class ScriptSide {
 public:
  explicit ScriptSide(uint64_t seed) : seed_(seed) {}

  Loop& loop() { return loop_; }
  uint64_t digest() const { return digest_; }
  const std::vector<uint64_t>& log() const { return log_; }

  // One top-level operation: the three mutators, RunOne or RunUntil.
  void Step(uint64_t op) {
    Rng rng(seed_ * 1'000'003 + op);
    uint64_t kind = rng.NextBelow(100);
    if (kind < 40) {
      Schedule(rng);
    } else if (kind < 55) {
      Cancel(rng);
    } else if (kind < 75) {
      Reschedule(rng);
    } else if (kind < 90) {
      Record(loop_.RunOne() ? 1 : 0);
    } else {
      loop_.RunUntil(loop_.Now() + 0.25 * static_cast<double>(rng.NextBelow(8)));
      Record(Bits(loop_.Now()));
    }
  }

  void Drain() {
    while (loop_.RunOne()) {
    }
  }

 private:
  // Quarter-second grid: many events share an instant, so the seq
  // tie-break decides their order. Occasionally in the past (clamped); a
  // third far ahead, so the heap grows a few levels deep.
  double Delay(Rng& rng) {
    if (rng.Chance(0.05)) {
      return -1.0;
    }
    return 0.25 * static_cast<double>(rng.NextBelow(rng.Chance(0.3) ? 800 : 12));
  }

  // A live, stale or reused id from the script so far, or a forged one.
  EventId PickId(Rng& rng) {
    if (ids_.empty() || rng.Chance(0.05)) {
      return rng.Chance(0.5) ? 0 : rng.NextU64();
    }
    return ids_[rng.NextBelow(ids_.size())];
  }

  void Schedule(Rng& rng) {
    uint64_t tag = next_tag_++;
    EventId id = loop_.ScheduleAt(loop_.Now() + Delay(rng), [this, tag] { Fire(tag); });
    ids_.push_back(id);
    Record(id);
  }

  void Cancel(Rng& rng) { Record(loop_.Cancel(PickId(rng)) ? 1 : 0); }

  void Reschedule(Rng& rng) {
    EventId moved = loop_.Reschedule(PickId(rng), loop_.Now() + Delay(rng));
    if (moved != 0) {
      ids_.push_back(moved);
    }
    Record(moved);
  }

  // An event: logs itself, then schedules, cancels and reschedules from
  // inside the loop.
  void Fire(uint64_t tag) {
    Record(tag);
    Record(Bits(loop_.Now()));
    Rng rng(seed_ * 7'919 + tag + 1);
    for (uint64_t n = rng.NextBelow(4); n > 0; --n) {
      switch (rng.NextBelow(3)) {
        case 0:
          Schedule(rng);
          break;
        case 1:
          Cancel(rng);
          break;
        default:
          Reschedule(rng);
          break;
      }
    }
  }

  static uint64_t Bits(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
  }

  void Record(uint64_t value) {
    log_.push_back(value);
    digest_ = (digest_ ^ value) * 0x100000001b3ULL;
  }

  Loop loop_;
  uint64_t seed_;
  uint64_t next_tag_ = 0;
  std::vector<EventId> ids_;
  std::vector<uint64_t> log_;
  uint64_t digest_ = 0xcbf29ce484222325ULL;
};

TEST(EventLoopDifferentialTest, SeededScriptsMatchOrderedSetReference) {
  constexpr uint64_t kSeeds = 40;
  constexpr uint64_t kOps = 2000;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    ScriptSide<EventLoop> fast(seed);
    ScriptSide<ReferenceLoop> ref(seed);
    size_t peak_pending = 0;
    for (uint64_t op = 0; op < kOps; ++op) {
      fast.Step(op);
      ref.Step(op);
      ASSERT_EQ(fast.digest(), ref.digest()) << "seed " << seed << " op " << op;
      ASSERT_EQ(fast.loop().PendingCount(), ref.loop().PendingCount())
          << "seed " << seed << " op " << op;
      ASSERT_EQ(fast.loop().Now(), ref.loop().Now()) << "seed " << seed << " op " << op;
      peak_pending = std::max(peak_pending, fast.loop().PendingCount());
    }
    fast.Drain();
    ref.Drain();
    ASSERT_EQ(fast.log(), ref.log()) << "seed " << seed;
    EXPECT_EQ(fast.loop().PendingCount(), 0u);
    // The scripts must build heaps deep enough for a removal's filler to
    // belong above the hole.
    EXPECT_GT(peak_pending, 64u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace mfc
