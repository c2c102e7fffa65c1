// Indexed binary min-heap over dense item indices.
//
// The flow allocator keeps one heap of predicted completion instants and one
// of slow-start doubling instants, keyed by flow slot. Unlike
// std::priority_queue, entries can be reprioritized or removed in O(log n)
// through a position index, so a reallocation that changes a handful of flow
// rates never rebuilds or lazily poisons the queue. Ties are broken by a
// caller-supplied sequence number (flow creation order), which keeps pop
// order deterministic.
#ifndef MFC_SRC_NET_INDEXED_HEAP_H_
#define MFC_SRC_NET_INDEXED_HEAP_H_

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
  // (ascending), so it should be stable per item across updates.
  void Update(uint32_t item, double key, uint64_t seq) {
    if (item >= pos_.size()) {
      pos_.resize(item + 1, kAbsent);
    }
    if (pos_[item] == kAbsent) {
      pos_[item] = static_cast<uint32_t>(nodes_.size());
      nodes_.push_back(Node{key, seq, item});
      SiftUp(pos_[item]);
      return;
    }
    size_t i = pos_[item];
    Node& node = nodes_[i];
    bool decreased = key < node.key || (key == node.key && seq < node.seq);
    node.key = key;
    node.seq = seq;
    if (decreased) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

  // Removes |item| if present.
  void Remove(uint32_t item) {
    if (!Contains(item)) {
      return;
    }
    size_t i = pos_[item];
    pos_[item] = kAbsent;
    if (i + 1 == nodes_.size()) {
      nodes_.pop_back();
      return;
    }
    nodes_[i] = nodes_.back();
    nodes_.pop_back();
    pos_[nodes_[i].item] = static_cast<uint32_t>(i);
    // The filler came from the bottom: if it beats its new parent the subtree
    // below i is already fine (parent bounded i's old children), else the
    // ancestors are fine and it sifts down. Exactly one direction applies.
    if (i > 0 && nodes_[i].Before(nodes_[(i - 1) / 2])) {
      SiftUp(i);
    } else {
      SiftDown(i);
    }
  }

  void Pop() { Remove(TopItem()); }

  // Empties the heap in O(size) without shrinking the position index.
  void Clear() {
    for (const Node& node : nodes_) {
      pos_[node.item] = kAbsent;
    }
    nodes_.clear();
  }

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

  static constexpr uint32_t kAbsent = UINT32_MAX;

  void SiftUp(size_t i) {
    Node node = nodes_[i];
    while (i > 0) {
      size_t parent = (i - 1) / 2;
      if (!node.Before(nodes_[parent])) {
        break;
      }
      nodes_[i] = nodes_[parent];
      pos_[nodes_[i].item] = static_cast<uint32_t>(i);
      i = parent;
    }
    nodes_[i] = node;
    pos_[node.item] = static_cast<uint32_t>(i);
  }

  void SiftDown(size_t i) {
    Node node = nodes_[i];
    size_t n = nodes_.size();
    for (;;) {
      size_t child = 2 * i + 1;
      if (child >= n) {
        break;
      }
      if (child + 1 < n && nodes_[child + 1].Before(nodes_[child])) {
        ++child;
      }
      if (!nodes_[child].Before(node)) {
        break;
      }
      nodes_[i] = nodes_[child];
      pos_[nodes_[i].item] = static_cast<uint32_t>(i);
      i = child;
    }
    nodes_[i] = node;
    pos_[node.item] = static_cast<uint32_t>(i);
  }

  std::vector<Node> nodes_;
  std::vector<uint32_t> pos_;  // item -> index in nodes_, kAbsent if none
};

}  // namespace mfc

#endif  // MFC_SRC_NET_INDEXED_HEAP_H_
