#include "src/sim/indexed_heap.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "src/sim/rng.h"

namespace mfc {
namespace {

TEST(IndexedHeapTest, PopsInKeyOrder) {
  IndexedMinHeap heap;
  heap.Update(0, 3.0, 0);
  heap.Update(1, 1.0, 1);
  heap.Update(2, 2.0, 2);
  EXPECT_EQ(heap.TopItem(), 1u);
  heap.Pop();
  EXPECT_EQ(heap.TopItem(), 2u);
  heap.Pop();
  EXPECT_EQ(heap.TopItem(), 0u);
  heap.Pop();
  EXPECT_TRUE(heap.Empty());
}

TEST(IndexedHeapTest, EqualKeysBreakTiesBySeq) {
  IndexedMinHeap heap;
  heap.Update(7, 5.0, 30);
  heap.Update(3, 5.0, 10);
  heap.Update(5, 5.0, 20);
  EXPECT_EQ(heap.TopItem(), 3u);
  heap.Pop();
  EXPECT_EQ(heap.TopItem(), 5u);
  heap.Pop();
  EXPECT_EQ(heap.TopItem(), 7u);
}

TEST(IndexedHeapTest, UpdateReprioritizesBothDirections) {
  IndexedMinHeap heap;
  heap.Update(0, 1.0, 0);
  heap.Update(1, 2.0, 1);
  heap.Update(2, 3.0, 2);
  heap.Update(0, 9.0, 0);  // sink the old minimum
  EXPECT_EQ(heap.TopItem(), 1u);
  heap.Update(2, 0.5, 2);  // raise the tail to the top
  EXPECT_EQ(heap.TopItem(), 2u);
  EXPECT_DOUBLE_EQ(heap.KeyOf(0), 9.0);
  EXPECT_EQ(heap.Size(), 3u);
}

TEST(IndexedHeapTest, RemoveMiddleKeepsOrder) {
  IndexedMinHeap heap;
  for (uint32_t i = 0; i < 10; ++i) {
    heap.Update(i, static_cast<double>(i), i);
  }
  heap.Remove(4);
  heap.Remove(0);
  heap.Remove(9);
  EXPECT_FALSE(heap.Contains(4));
  std::vector<uint32_t> popped;
  while (!heap.Empty()) {
    popped.push_back(heap.TopItem());
    heap.Pop();
  }
  EXPECT_EQ(popped, (std::vector<uint32_t>{1, 2, 3, 5, 6, 7, 8}));
}

TEST(IndexedHeapTest, RemoveAbsentIsNoOp) {
  IndexedMinHeap heap;
  heap.Update(1, 1.0, 0);
  heap.Remove(2);
  heap.Remove(100);  // beyond the position index
  EXPECT_EQ(heap.Size(), 1u);
  EXPECT_EQ(heap.TopItem(), 1u);
}

// Random interleaving of every operation against a multiset oracle.
TEST(IndexedHeapTest, RandomOpsMatchOracle) {
  Rng rng(0xfeed5eed);
  IndexedMinHeap heap;
  // (key, seq, item) with the heap's exact comparison order.
  std::set<std::tuple<double, uint64_t, uint32_t>> oracle;
  std::vector<bool> present(64, false);
  uint64_t seq = 0;
  auto key_of = [&](uint32_t item) {
    for (const auto& t : oracle) {
      if (std::get<2>(t) == item) {
        return std::make_pair(std::get<0>(t), std::get<1>(t));
      }
    }
    ADD_FAILURE() << "item " << item << " missing from oracle";
    return std::make_pair(0.0, uint64_t{0});
  };
  for (int op = 0; op < 5000; ++op) {
    uint32_t item = static_cast<uint32_t>(rng.NextU64() % present.size());
    switch (rng.NextU64() % 4) {
      case 0:
      case 1: {  // insert or reprioritize
        double key = rng.Uniform(0.0, 10.0);
        if (present[item]) {
          auto old = key_of(item);
          oracle.erase({old.first, old.second, item});
        }
        heap.Update(item, key, seq);
        oracle.insert({key, seq, item});
        present[item] = true;
        ++seq;
        break;
      }
      case 2: {  // remove
        heap.Remove(item);
        if (present[item]) {
          auto old = key_of(item);
          oracle.erase({old.first, old.second, item});
          present[item] = false;
        }
        break;
      }
      case 3: {  // pop
        if (!oracle.empty()) {
          auto top = *oracle.begin();
          ASSERT_EQ(heap.TopItem(), std::get<2>(top));
          ASSERT_DOUBLE_EQ(heap.TopKey(), std::get<0>(top));
          heap.Pop();
          oracle.erase(oracle.begin());
          present[std::get<2>(top)] = false;
        }
        break;
      }
    }
    ASSERT_EQ(heap.Size(), oracle.size());
    if (!oracle.empty()) {
      ASSERT_EQ(heap.TopItem(), std::get<2>(*oracle.begin()));
    }
  }
}

// Seeded scripts of Update, Remove and Pop against an ordered-set reference.
// Keys sit on a coarse grid, so equal keys are common and the seq tie-break
// decides the order. Even seeds take a fresh seq on every update (the event
// loop's rule), odd seeds keep one seq per item (the flow allocator's rule).
// Most scripts insert more than they remove, so the heap grows past five
// levels and removals' fillers come from other subtrees.
TEST(IndexedHeapTest, SeededScriptsMatchOrderedSetReference) {
  constexpr uint64_t kSeeds = 24;
  constexpr int kOps = 4000;
  constexpr uint32_t kItems = 600;
  for (uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL);
    const bool fresh_seq = seed % 2 == 0;
    IndexedMinHeap heap;
    std::set<std::tuple<double, uint64_t, uint32_t>> ref;
    std::vector<std::pair<double, uint64_t>> key_of(kItems);
    std::vector<bool> present(kItems, false);
    uint64_t next_seq = 0;
    size_t peak = 0;
    for (int op = 0; op < kOps; ++op) {
      uint32_t item = static_cast<uint32_t>(rng.NextBelow(kItems));
      uint64_t kind = rng.NextBelow(10);
      if (kind < 6) {
        double key = static_cast<double>(rng.NextBelow(16));
        uint64_t seq = fresh_seq ? next_seq++ : item;
        if (present[item]) {
          ref.erase({key_of[item].first, key_of[item].second, item});
        }
        heap.Update(item, key, seq);
        ref.insert({key, seq, item});
        key_of[item] = {key, seq};
        present[item] = true;
      } else if (kind < 8) {
        heap.Remove(item);
        if (present[item]) {
          ref.erase({key_of[item].first, key_of[item].second, item});
          present[item] = false;
        }
      } else if (!ref.empty()) {
        uint32_t top = std::get<2>(*ref.begin());
        ASSERT_EQ(heap.TopItem(), top) << "seed " << seed << " op " << op;
        heap.Pop();
        ref.erase(ref.begin());
        present[top] = false;
      }
      ASSERT_EQ(heap.Size(), ref.size()) << "seed " << seed << " op " << op;
      ASSERT_EQ(heap.Contains(item), present[item]) << "seed " << seed << " op " << op;
      if (present[item]) {
        ASSERT_EQ(heap.KeyOf(item), key_of[item].first) << "seed " << seed << " op " << op;
      }
      if (!ref.empty()) {
        ASSERT_EQ(heap.TopItem(), std::get<2>(*ref.begin())) << "seed " << seed << " op " << op;
        ASSERT_EQ(heap.TopKey(), std::get<0>(*ref.begin())) << "seed " << seed << " op " << op;
      }
      peak = std::max(peak, heap.Size());
    }
    // 1 + 4 + 16 + 64 = 85 entries fill four levels.
    EXPECT_GT(peak, 85u) << "seed " << seed;
    for (const auto& entry : ref) {
      ASSERT_EQ(heap.TopItem(), std::get<2>(entry)) << "seed " << seed;
      heap.Pop();
    }
    EXPECT_TRUE(heap.Empty());
  }
}

}  // namespace
}  // namespace mfc
