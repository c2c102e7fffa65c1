// Indexed 4-ary min-heap over dense item indices.
//
// EventLoop keys its pending events by callback record, and the flow
// allocator keeps one heap of predicted completion instants and one of
// slow-start doubling instants, keyed by flow slot. Unlike
// std::priority_queue, entries can be reprioritized or removed in O(log n)
// through a position index, so a cancel or a re-key never rebuilds or lazily
// poisons the queue. Ties are broken by a caller-supplied sequence number,
// which keeps pop order deterministic. Four children per node halve a binary
// heap's depth; a binary heap measured no faster on the large_object and
// base benchmark workloads (DESIGN.md §10 records the runs).
#ifndef MFC_SRC_SIM_INDEXED_HEAP_H_
#define MFC_SRC_SIM_INDEXED_HEAP_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace mfc {

class IndexedMinHeap {
 public:
  // True when |item| currently has an entry.
  bool Contains(uint32_t item) const {
    return item < pos_.size() && pos_[item] != kAbsent;
  }

  size_t Size() const { return nodes_.size(); }
  bool Empty() const { return nodes_.empty(); }

  // Key of |item|; must be present.
  double KeyOf(uint32_t item) const {
    assert(Contains(item));
    return nodes_[pos_[item]].key;
  }

  uint32_t TopItem() const {
    assert(!Empty());
    return nodes_[0].item;
  }
  double TopKey() const {
    assert(!Empty());
    return nodes_[0].key;
  }

  // Inserts |item| or changes its priority. |seq| orders equal keys
  // (ascending).
  void Update(uint32_t item, double key, uint64_t seq) {
    if (item >= pos_.size()) {
      pos_.resize(item + 1, kAbsent);
    }
    Node node{key, seq, item};
    if (pos_[item] == kAbsent) {
      nodes_.emplace_back();
      SiftUp(nodes_.size() - 1, node);
      return;
    }
    size_t i = pos_[item];
    if (node.Before(nodes_[i])) {
      SiftUp(i, node);
    } else {
      SiftDown(i, node);
    }
  }

  // Removes |item| if present.
  void Remove(uint32_t item) {
    if (!Contains(item)) {
      return;
    }
    size_t i = pos_[item];
    pos_[item] = kAbsent;
    Node filler = nodes_.back();
    nodes_.pop_back();
    if (i == nodes_.size()) {
      return;
    }
    // The filler came from the bottom: if it beats its new parent the subtree
    // below i is already fine (parent bounded i's old children), else the
    // ancestors are fine and it sifts down. Exactly one direction applies.
    if (i > 0 && filler.Before(nodes_[(i - 1) / kArity])) {
      SiftUp(i, filler);
    } else {
      SiftDown(i, filler);
    }
  }

  void Pop() { Remove(TopItem()); }

 private:
  struct Node {
    double key;
    uint64_t seq;
    uint32_t item;
    bool Before(const Node& other) const {
      if (key != other.key) {
        return key < other.key;
      }
      return seq < other.seq;
    }
  };

  static constexpr size_t kArity = 4;
  static constexpr uint32_t kAbsent = UINT32_MAX;

  void Place(size_t i, const Node& node) {
    nodes_[i] = node;
    pos_[node.item] = static_cast<uint32_t>(i);
  }

  // Moves the hole at |i| up until |node| fits, then fills it.
  void SiftUp(size_t i, Node node) {
    while (i > 0) {
      size_t parent = (i - 1) / kArity;
      if (!node.Before(nodes_[parent])) {
        break;
      }
      Place(i, nodes_[parent]);
      i = parent;
    }
    Place(i, node);
  }

  // Moves the hole at |i| down until |node| fits, then fills it.
  void SiftDown(size_t i, Node node) {
    const size_t n = nodes_.size();
    for (;;) {
      size_t first = kArity * i + 1;
      if (first >= n) {
        break;
      }
      size_t end = first + kArity < n ? first + kArity : n;
      size_t best = first;
      for (size_t child = first + 1; child < end; ++child) {
        if (nodes_[child].Before(nodes_[best])) {
          best = child;
        }
      }
      if (!nodes_[best].Before(node)) {
        break;
      }
      Place(i, nodes_[best]);
      i = best;
    }
    Place(i, node);
  }

  std::vector<Node> nodes_;
  std::vector<uint32_t> pos_;  // item -> index in nodes_, kAbsent if none
};

}  // namespace mfc

#endif  // MFC_SRC_SIM_INDEXED_HEAP_H_
