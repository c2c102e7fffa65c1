// Fluid-flow network model with event-driven max-min fair bandwidth sharing.
//
// Transfers are modelled as fluid flows over a path of links. Whenever the
// flow set changes (start, completion, abort, or a TCP slow-start window
// doubling), the max-min fair allocation (water-filling with per-flow rate
// caps) is brought up to date, and every flow whose rate changed first has
// its remaining bytes advanced at the old rate. This is the standard fluid
// approximation of TCP bandwidth sharing: cheap, deterministic, and it
// reproduces the two effects the paper's Large Object stage depends on —
// contention at the server access link and the slow-start regime that
// motivates the 100 KB object-size lower bound.
//
// Hot-path layout (mirrors the EventLoop slot-vector rework): flows live in
// a dense free-listed slot vector, FlowIds pack {generation, slot} for O(1)
// lookup and stale-handle rejection, and each link keeps a membership list
// plus an aggregate rate so LinkRate() is O(1). Work follows the rates an
// event changes (DESIGN.md §10): two exact certificates resolve most events
// with no water-filling pass at all, every pass that remains water-fills a
// dense list of the live flows, in whatever order it holds, and merges a
// persistent cap order instead of sorting, a flow is re-anchored (remaining
// bytes advanced, completion keys re-derived) only when its rate changes, and
// indexed min-heaps (next completion, next cwnd doubling) replace the
// per-event full-flow scans.
#ifndef MFC_SRC_NET_FLOW_NETWORK_H_
#define MFC_SRC_NET_FLOW_NETWORK_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/sim/indexed_heap.h"

namespace mfc {

class MetricsRegistry;

using LinkId = size_t;
using FlowId = uint64_t;

// TCP behaviour knobs for a single flow.
struct TcpParams {
  // Initial congestion window in bytes (10 segments of 1460 B, RFC 6928).
  double init_cwnd_bytes = 14600.0;
  // When false the flow is only limited by fair share (no slow start).
  bool slow_start = true;
};

// Allocator work counters, exported through FlowNetwork::Stats() so the perf
// harness (bench/perf_flow_network.cc) can report how much recomputation a
// workload actually triggered, not just wall time.
struct FlowNetworkStats {
  uint64_t reallocs = 0;          // water-filling passes run
  uint64_t skipped_reallocs = 0;  // events a certificate resolved without a pass
  uint64_t full_reallocs = 0;     // passes over the whole live set: every pass
  uint64_t flows_touched = 0;     // flows visited, summed over passes
  uint64_t links_touched = 0;     // links visited, summed over passes
  uint64_t no_progress = 0;       // water-filling stalls (expected 0; see
                                  // the flow_network.no_progress metric)
  uint64_t order_rebuilds = 0;    // passes that sorted their cap order instead
                                  // of merging the persistent one
};

class FlowNetwork {
 public:
  explicit FlowNetwork(EventLoop& loop) : loop_(loop) {}
  FlowNetwork(const FlowNetwork&) = delete;
  FlowNetwork& operator=(const FlowNetwork&) = delete;

  // Adds a link with |capacity| in bytes/second. Capacity must be > 0.
  LinkId AddLink(double capacity);

  // Starts a transfer of |bytes| over |path| (copied into the flow slot's
  // reused storage). |rtt| drives the slow-start cwnd-doubling cadence.
  // |on_complete| fires (via the event loop) when the last byte leaves the
  // final link. Returns an id usable with AbortFlow. Paths must not repeat a
  // link. Id 0 is never returned.
  FlowId StartFlow(const std::vector<LinkId>& path, double bytes, double rtt, TcpParams tcp,
                   std::function<void()> on_complete);

  // Cancels a transfer; its callback never fires. No-op if already complete
  // (ids are generation-checked, so a recycled slot never aliases).
  void AbortFlow(FlowId id);

  size_t ActiveFlowCount() const { return live_slots_.size(); }

  // Instantaneous aggregate rate through a link (bytes/second). O(1): reads
  // the maintained aggregate (debug builds assert it against a fresh scan).
  double LinkRate(LinkId id) const;
  double LinkCapacity(LinkId id) const { return links_[id].capacity; }
  // Total bytes that have traversed the link since creation.
  double LinkCumulativeBytes(LinkId id) const;
  // Utilization in [0, 1].
  double LinkUtilization(LinkId id) const { return LinkRate(id) / links_[id].capacity; }

  // Current allocated rate of a flow; 0 if unknown/finished.
  double FlowRate(FlowId id) const;
  // Current slow-start rate cap of a flow (infinity once the window no
  // longer limits it); 0 if unknown/finished.
  double FlowRateCap(FlowId id) const;

  // Cumulative allocator work counters since construction.
  const FlowNetworkStats& Stats() const { return stats_; }

  // When non-null, the allocator reports anomalies (flow_network.no_progress)
  // to |metrics|. The registry must outlive this network.
  void SetMetrics(MetricsRegistry* metrics) { metrics_ = metrics; }

  // Testing hook: every event runs the water-filling pass, with both
  // certificates off (re-anchoring still follows rate changes only), the live
  // set walked from the slots in slot order and every cap order sorted from
  // scratch. The differential test drives an identical workload through a
  // forced-full network as the oracle.
  void set_force_full_reallocate(bool on) {
    force_full_ = on;
    cap_order_valid_ = false;
  }

 private:
  static constexpr uint32_t kNoFreeSlot = UINT32_MAX;
  // (rate_cap, seq << 32 | slot): the water-filling pass's cap order.
  using CapKey = std::pair<double, uint64_t>;

  struct Link {
    double capacity = 0.0;
    // Sum of member flow rates in member order, recomputed (SetLinkRate)
    // whenever a member joins, leaves or changes rate.
    double agg_rate = 0.0;
    // Bytes through the link up to |cum_update|; bytes since then are
    // agg_rate * (now - cum_update), folded in only when agg_rate changes.
    double cumulative_bytes = 0.0;
    SimTime cum_update = kTimeZero;
    std::vector<uint32_t> members;  // slots of flows whose path crosses this link
    // Scratch for the water-filling pass.
    double residual = 0.0;
    size_t unfixed = 0;
    uint64_t visit = 0;  // epoch mark: dedup of touched links
  };

  struct Flow {
    std::vector<LinkId> path;
    // members-list index per path link, so detach is O(path) swap-removals.
    std::vector<uint32_t> member_pos;
    double remaining = 0.0;  // valid as of |advanced|
    double rate = 0.0;
    double rate_cap = 0.0;  // cwnd/rtt slow-start cap; infinity once opened
    double rtt = 0.0;
    double cwnd = 0.0;
    double path_cap = 0.0;  // min link capacity along path, cached at start
    SimTime advanced = kTimeZero;  // anchor: last instant |rate| changed
    SimTime next_double = kTimeInfinity;  // next cwnd doubling instant
    uint64_t seq = 0;                     // creation order; deterministic ties
    std::function<void()> on_complete;
    uint32_t generation = 1;
    uint32_t next_free = kNoFreeSlot;
    uint32_t live_pos = 0;  // index in live_slots_ while active
    bool active = false;
    // Water-filling scratch: the pass writes |new_rate| and commits it to
    // |rate| only where the two differ.
    bool fixed = false;
    double new_rate = 0.0;
  };

  // A FlowId packs {generation, slot + 1}; +1 keeps 0 invalid.
  static FlowId PackId(uint32_t slot, uint32_t generation) {
    return (static_cast<FlowId>(generation) << 32) | (static_cast<FlowId>(slot) + 1);
  }
  // Resolves an id to a live slot, or UINT32_MAX for stale/invalid ids.
  uint32_t ResolveId(FlowId id) const;

  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);

  // seq << 32 | slot: sorts flows by creation order.
  uint64_t OrderKey(uint32_t slot) const { return (flows_[slot].seq << 32) | slot; }
  // A cap entry is live while its flow is active with the same seq (the slot
  // was not reused) and the same rate_cap.
  bool LiveCap(const CapKey& entry) const;
  // Logs |slot|'s new cap, when finite, while the cap order is valid, the
  // network was saturated before the event and the log stays within the live
  // set plus 64; otherwise marks the cap order invalid (DESIGN.md §10).
  void LogCap(uint32_t slot, bool unsaturated);
  // Sorts cap_pending_ into cap_order_, dropping dead entries.
  void MergeCapPending();

  // True when |flow| is not sitting at a finite rate cap.
  static bool OffCap(const Flow& flow);
  // True when |link| carries more than capacity * (1 - slack).
  static bool Tight(const Link& link);
  // Every live flow sits at a finite cap and no link is tight: the premise
  // of the caps-only certificate (DESIGN.md §10).
  bool Unsaturated() const { return off_cap_flows_ == 0 && tight_links_ == 0; }

  // Re-anchors |slot| at |now| (remaining bytes advanced at the old rate),
  // switches it to |rate| and re-keys its completion instants.
  void SetRate(uint32_t slot, double rate, SimTime now);
  // Changes |link|'s aggregate to |agg|, first folding the bytes earned at
  // the old aggregate since |cum_update|. No-op when |agg| is unchanged.
  void SetLinkRate(Link& link, double agg, SimTime now);
  // Removes |slot| from its links' member lists. The caller re-derives
  // those links' aggregates once the event's rates are settled.
  void DetachFromLinks(uint32_t slot);

  // Caps-only certificate: when the network was Unsaturated() before the
  // event (|unsaturated|), every flow in |changed| has a finite cap, and
  // every link in |touched| still has its member caps summing under the
  // slack bound, the water-filling pass would only take cap rounds — so each
  // changed flow moves to its cap and nothing else does. Applies that and
  // returns true, or changes nothing and returns false.
  bool TryCapsOnly(bool unsaturated, const std::vector<LinkId>& touched,
                   const std::vector<uint32_t>& changed);
  // Water-fills the live set. Flows whose rate changed are re-anchored;
  // their links and |touched| (the links the event's flows cross, whose
  // membership may have changed) get fresh aggregates.
  void Reallocate(const std::vector<LinkId>& touched);
  // Refills pass_links_ with the links that have members, in id order, and
  // returns the pass's cap order: merged from the persistent one while it is
  // valid, sorted from the live flows |live| otherwise.
  const std::vector<CapKey>& OrderPass(const std::vector<uint32_t>& live);
  // Predicted exact finish instant and earliest byte-epsilon completion
  // instant for |flow|, from its current (advanced, remaining, rate).
  static void CompletionKeys(const Flow& flow, double* finish, double* early);
  // Re-keys |slot| in both completion heaps from its remaining/rate.
  void UpdateCompletionKey(uint32_t slot);

  // (Re)schedules the single pending timer for min(completion, doubling).
  void ScheduleNext();
  void OnTimer();

  EventLoop& loop_;
  std::vector<Link> links_;
  std::vector<Flow> flows_;  // dense slots; |active| distinguishes live ones
  uint32_t free_head_ = kNoFreeSlot;
  // The live flows' slots, densely: StartFlow appends, ReleaseSlot
  // swap-removes through Flow::live_pos. Fast-side passes walk it in
  // whatever order it holds; no rate depends on it (DESIGN.md §10).
  std::vector<uint32_t> live_slots_;
  uint64_t next_seq_ = 0;
  uint64_t visit_epoch_ = 0;
  // Live flows with OffCap() and links with Tight(), kept current by every
  // rate, cap and aggregate change so Unsaturated() is O(1).
  size_t off_cap_flows_ = 0;
  size_t tight_links_ = 0;

  // Completion instants. finish_heap_ holds predicted exact finish times
  // (drives the timer, like the historical min-scan); early_heap_ holds the
  // instant each flow first satisfies the byte-epsilon completion test, so
  // an unrelated event never misses an epsilon-due flow (see OnTimer).
  IndexedMinHeap finish_heap_;
  IndexedMinHeap early_heap_;
  IndexedMinHeap double_heap_;  // next_double instants

  std::vector<LinkId> pass_links_;  // links with members, in id order
  std::vector<uint32_t> slot_order_;  // the oracle's live set, in slot order
  std::vector<LinkId> touched_scratch_;    // links an event's flows cross
  std::vector<uint32_t> changed_scratch_;  // flows an event started or doubled
  std::vector<uint32_t> due_scratch_;  // OnTimer's due-flow list
  std::vector<std::function<void()>> done_scratch_;  // OnTimer's completion callbacks
  std::vector<uint64_t> order_scratch_;  // packed (seq, slot) sort keys
  std::vector<LinkId> refresh_scratch_;  // links whose aggregate a pass re-derives
  std::vector<std::pair<LinkId, double>> link_sums_;  // TryCapsOnly's totals
  // Water-filling pass scratch: flows ascending by (rate_cap, seq, slot) so
  // cap rounds advance a cursor instead of rescanning.
  std::vector<CapKey> caps_scratch_;

  // Persistent cap order, valid while |cap_order_valid_|: every live finite
  // cap's CapKey in cap_order_ (sorted) or cap_pending_ (appended by starts
  // and doublings since the last merge). Releases write nothing; dead
  // entries (see LiveCap) drop out when a pass merges them instead of
  // sorting.
  std::vector<CapKey> cap_order_;
  std::vector<CapKey> cap_pending_;

  EventId timer_ = 0;
  FlowNetworkStats stats_;
  MetricsRegistry* metrics_ = nullptr;
  bool force_full_ = false;
  // True while cap_order_/cap_pending_ cover every live finite cap. Only a
  // pass that sorted sets it, never under force_full_.
  bool cap_order_valid_ = false;
};

}  // namespace mfc

#endif  // MFC_SRC_NET_FLOW_NETWORK_H_
