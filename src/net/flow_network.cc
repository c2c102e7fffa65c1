#include "src/net/flow_network.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "src/telemetry/metrics.h"

namespace mfc {
namespace {

constexpr double kByteEpsilon = 1e-6;   // flows with fewer remaining bytes are done
constexpr double kRateEpsilon = 1e-9;
// A link is tight above capacity * (1 - kUnsaturatedSlack). The slack is
// orders of magnitude above the rounding of any member sum or residual
// chain (about n * 2^-52 relative for n members), so a network with no tight
// link provably water-fills in cap rounds only (DESIGN.md §10).
constexpr double kUnsaturatedSlack = 1e-9;
constexpr double kInfinity = std::numeric_limits<double>::infinity();

}  // namespace

LinkId FlowNetwork::AddLink(double capacity) {
  assert(capacity > 0.0 && "link capacity must be positive");
  Link link;
  link.capacity = capacity;
  link.cum_update = loop_.Now();
  links_.push_back(std::move(link));
  return links_.size() - 1;
}

uint32_t FlowNetwork::ResolveId(FlowId id) const {
  uint32_t slot = static_cast<uint32_t>(id & 0xFFFFFFFFu);
  if (slot == 0 || slot > flows_.size()) {
    return UINT32_MAX;
  }
  --slot;
  uint32_t generation = static_cast<uint32_t>(id >> 32);
  const Flow& flow = flows_[slot];
  return flow.active && flow.generation == generation ? slot : UINT32_MAX;
}

uint32_t FlowNetwork::AcquireSlot() {
  if (free_head_ != kNoFreeSlot) {
    uint32_t slot = free_head_;
    free_head_ = flows_[slot].next_free;
    flows_[slot].next_free = kNoFreeSlot;
    return slot;
  }
  flows_.emplace_back();
  return static_cast<uint32_t>(flows_.size() - 1);
}

void FlowNetwork::ReleaseSlot(uint32_t slot) {
  Flow& flow = flows_[slot];
  off_cap_flows_ -= OffCap(flow);
  flow.active = false;
  flow.generation++;
  flow.path.clear();
  flow.member_pos.clear();
  flow.on_complete = nullptr;
  flow.next_free = free_head_;
  free_head_ = slot;
  const uint32_t moved = live_slots_.back();
  live_slots_[flow.live_pos] = moved;
  flows_[moved].live_pos = flow.live_pos;
  live_slots_.pop_back();
}

bool FlowNetwork::LiveCap(const CapKey& entry) const {
  const uint32_t slot = static_cast<uint32_t>(entry.second);
  return flows_[slot].active && OrderKey(slot) == entry.second &&
         flows_[slot].rate_cap == entry.first;
}

void FlowNetwork::LogCap(uint32_t slot, bool unsaturated) {
  // An unsaturated network resolves most events without a pass (the caps-
  // only certificate), so logging there would be pure overhead: drop the
  // order instead and let the next pass sort it afresh. A log that outgrows
  // the live set, because only link-bound doublings ran since the last
  // merge, is dropped the same way.
  if (!cap_order_valid_ || unsaturated || cap_pending_.size() > live_slots_.size() + 64) {
    cap_order_valid_ = false;
    return;
  }
  if (flows_[slot].rate_cap < kInfinity) {
    cap_pending_.emplace_back(flows_[slot].rate_cap, OrderKey(slot));
  }
}

void FlowNetwork::MergeCapPending() {
  std::sort(cap_pending_.begin(), cap_pending_.end());
  caps_scratch_.clear();
  size_t i = 0;
  size_t j = 0;
  while (i < cap_order_.size() || j < cap_pending_.size()) {
    const CapKey& next = j == cap_pending_.size() ||
                                 (i < cap_order_.size() && cap_order_[i] < cap_pending_[j])
                             ? cap_order_[i++]
                             : cap_pending_[j++];
    // A cap that did not change across a doubling (a zero window) is logged
    // twice; keep one.
    if (LiveCap(next) && (caps_scratch_.empty() || caps_scratch_.back() != next)) {
      caps_scratch_.push_back(next);
    }
  }
  cap_order_.swap(caps_scratch_);
  cap_pending_.clear();
}

FlowId FlowNetwork::StartFlow(const std::vector<LinkId>& path, double bytes, double rtt,
                              TcpParams tcp, std::function<void()> on_complete) {
  SimTime now = loop_.Now();
  const bool unsaturated = Unsaturated();
  uint32_t slot = AcquireSlot();
  Flow& flow = flows_[slot];
  flow.path.assign(path.begin(), path.end());
  flow.path_cap = kInfinity;
  flow.member_pos.clear();
  flow.member_pos.reserve(flow.path.size());
  for (size_t i = 0; i < flow.path.size(); ++i) {
    LinkId l = flow.path[i];
    assert(l < links_.size() && "unknown link in path");
#ifndef NDEBUG
    for (size_t j = 0; j < i; ++j) {
      assert(flow.path[j] != l && "path must not repeat a link");
    }
#endif
    flow.path_cap = std::min(flow.path_cap, links_[l].capacity);
    flow.member_pos.push_back(static_cast<uint32_t>(links_[l].members.size()));
    links_[l].members.push_back(slot);
  }
  flow.remaining = std::max(bytes, kByteEpsilon);
  flow.rate = 0.0;
  flow.rtt = std::max(rtt, 1e-6);
  flow.advanced = now;
  flow.seq = next_seq_++;
  flow.on_complete = std::move(on_complete);
  flow.active = true;
  flow.live_pos = static_cast<uint32_t>(live_slots_.size());
  live_slots_.push_back(slot);
  if (tcp.slow_start) {
    flow.cwnd = tcp.init_cwnd_bytes;
    flow.rate_cap = flow.cwnd / flow.rtt;
    flow.next_double = now + flow.rtt;
    double_heap_.Update(slot, flow.next_double, flow.seq);
  } else {
    flow.cwnd = 0.0;
    flow.rate_cap = kInfinity;
    flow.next_double = kTimeInfinity;
  }
  off_cap_flows_ += OffCap(flow);
  LogCap(slot, unsaturated);
  changed_scratch_.assign(1, slot);
  if (!TryCapsOnly(unsaturated, flows_[slot].path, changed_scratch_)) {
    Reallocate(flows_[slot].path);
  }
  if (flows_[slot].rate == 0.0) {
    // Never re-anchored, so never keyed: a zero-byte flow is still due at
    // the next timer through the early heap.
    UpdateCompletionKey(slot);
  }
  ScheduleNext();
  return PackId(slot, flows_[slot].generation);
}

void FlowNetwork::AbortFlow(FlowId id) {
  uint32_t slot = ResolveId(id);
  if (slot == UINT32_MAX) {
    return;
  }
  const bool unsaturated = Unsaturated();
  touched_scratch_ = flows_[slot].path;
  DetachFromLinks(slot);
  finish_heap_.Remove(slot);
  early_heap_.Remove(slot);
  double_heap_.Remove(slot);
  ReleaseSlot(slot);
  changed_scratch_.clear();
  if (!TryCapsOnly(unsaturated, touched_scratch_, changed_scratch_)) {
    Reallocate(touched_scratch_);
  }
  ScheduleNext();
}

double FlowNetwork::LinkRate(LinkId id) const {
  const Link& link = links_[id];
#ifndef NDEBUG
  double scan = 0.0;
  for (uint32_t slot : link.members) {
    scan += flows_[slot].rate;
  }
  assert(std::abs(scan - link.agg_rate) <= 1e-6 * std::max(1.0, std::abs(scan)) &&
         "link aggregate rate drifted from member scan");
#endif
  return link.agg_rate;
}

double FlowNetwork::LinkCumulativeBytes(LinkId id) const {
  const Link& link = links_[id];
  double dt = loop_.Now() - link.cum_update;
  return dt > 0.0 ? link.cumulative_bytes + link.agg_rate * dt : link.cumulative_bytes;
}

double FlowNetwork::FlowRate(FlowId id) const {
  uint32_t slot = ResolveId(id);
  return slot == UINT32_MAX ? 0.0 : flows_[slot].rate;
}

double FlowNetwork::FlowRateCap(FlowId id) const {
  uint32_t slot = ResolveId(id);
  return slot == UINT32_MAX ? 0.0 : flows_[slot].rate_cap;
}

bool FlowNetwork::OffCap(const Flow& flow) {
  return !(flow.rate == flow.rate_cap && flow.rate_cap < kInfinity);
}

bool FlowNetwork::Tight(const Link& link) {
  return link.agg_rate > link.capacity * (1.0 - kUnsaturatedSlack);
}

void FlowNetwork::SetRate(uint32_t slot, double rate, SimTime now) {
  Flow& flow = flows_[slot];
  double dt = now - flow.advanced;
  if (dt > 0.0) {
    flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
  }
  flow.advanced = now;
  off_cap_flows_ -= OffCap(flow);
  flow.rate = rate;
  off_cap_flows_ += OffCap(flow);
  UpdateCompletionKey(slot);
}

void FlowNetwork::SetLinkRate(Link& link, double agg, SimTime now) {
  if (agg == link.agg_rate) {
    return;
  }
  double dt = now - link.cum_update;
  if (dt > 0.0) {
    link.cumulative_bytes += link.agg_rate * dt;
  }
  link.cum_update = now;
  tight_links_ -= Tight(link);
  link.agg_rate = agg;
  tight_links_ += Tight(link);
}

void FlowNetwork::DetachFromLinks(uint32_t slot) {
  Flow& flow = flows_[slot];
  for (size_t i = 0; i < flow.path.size(); ++i) {
    Link& link = links_[flow.path[i]];
    uint32_t pos = flow.member_pos[i];
    assert(pos < link.members.size() && link.members[pos] == slot);
    uint32_t moved = link.members.back();
    link.members.pop_back();
    if (pos < link.members.size()) {
      link.members[pos] = moved;
      // Patch the moved member's back-index for this link (paths are short —
      // server/pop/client — so the scan is a couple of comparisons).
      Flow& other = flows_[moved];
      for (size_t j = 0; j < other.path.size(); ++j) {
        if (other.path[j] == flow.path[i]) {
          other.member_pos[j] = pos;
          break;
        }
      }
    }
  }
}

bool FlowNetwork::TryCapsOnly(bool unsaturated, const std::vector<LinkId>& touched,
                              const std::vector<uint32_t>& changed) {
  if (force_full_ || !unsaturated) {
    return false;
  }
  for (uint32_t slot : changed) {
    if (!(flows_[slot].rate_cap < kInfinity)) {
      return false;
    }
  }
  // Before the event every member sat at its cap, so the caps are the rates
  // the pass would hand out; their sum in member order is exactly the
  // aggregate a refresh would compute afterwards.
  ++visit_epoch_;
  link_sums_.clear();
  for (LinkId l : touched) {
    Link& link = links_[l];
    if (link.visit == visit_epoch_) {
      continue;
    }
    link.visit = visit_epoch_;
    double sum = 0.0;
    for (uint32_t member : link.members) {
      sum += flows_[member].rate_cap;
    }
    if (sum > link.capacity * (1.0 - kUnsaturatedSlack)) {
      return false;
    }
    link_sums_.emplace_back(l, sum);
  }
  SimTime now = loop_.Now();
  for (uint32_t slot : changed) {
    SetRate(slot, flows_[slot].rate_cap, now);
  }
  for (const auto& [l, sum] : link_sums_) {
    SetLinkRate(links_[l], sum, now);
  }
  stats_.skipped_reallocs++;
  return true;
}

const std::vector<FlowNetwork::CapKey>& FlowNetwork::OrderPass(
    const std::vector<uint32_t>& live) {
  // Links go in id order, because link rounds recompute shares as they go; a
  // link without members never takes part in a round.
  pass_links_.clear();
  for (LinkId l = 0; l < links_.size(); ++l) {
    if (!links_[l].members.empty()) {
      pass_links_.push_back(l);
    }
  }
  if (cap_order_valid_ && !force_full_) {
    // The persistent cap order covers every live finite cap: merge it
    // instead of sorting. The forced-full oracle never gets here, so it
    // shares none of this state.
    MergeCapPending();
    return cap_order_;
  }
  stats_.order_rebuilds++;
  caps_scratch_.clear();
  for (uint32_t slot : live) {
    if (flows_[slot].rate_cap < kInfinity) {
      caps_scratch_.emplace_back(flows_[slot].rate_cap, OrderKey(slot));
    }
  }
  std::sort(caps_scratch_.begin(), caps_scratch_.end());
  if (force_full_) {
    return caps_scratch_;
  }
  // A pass that sorted adopts its order as the persistent one, which events
  // keep current from here on.
  cap_order_.swap(caps_scratch_);
  cap_pending_.clear();
  cap_order_valid_ = true;
  return cap_order_;
}

void FlowNetwork::CompletionKeys(const Flow& flow, double* finish, double* early) {
  if (flow.rate > kRateEpsilon) {
    *finish = flow.advanced + flow.remaining / flow.rate;
    // Earliest instant the byte-epsilon completion test passes; any event at
    // or after it completes the flow, even one scheduled for another reason.
    *early = *finish - kByteEpsilon / flow.rate;
  } else {
    *finish = kTimeInfinity;
    *early = flow.remaining <= kByteEpsilon ? flow.advanced : kTimeInfinity;
  }
}

void FlowNetwork::UpdateCompletionKey(uint32_t slot) {
  Flow& flow = flows_[slot];
  double finish;
  double early;
  CompletionKeys(flow, &finish, &early);
  finish_heap_.Update(slot, finish, flow.seq);
  early_heap_.Update(slot, early, flow.seq);
}

void FlowNetwork::Reallocate(const std::vector<LinkId>& touched) {
  // The fast side walks the live list as swap-removals left it. The oracle
  // rebuilds the live set from the slots, in slot order, so it shares no
  // list with the fast side and visits the flows in another order.
  const std::vector<uint32_t>* live = &live_slots_;
  if (force_full_) {
    slot_order_.clear();
    for (uint32_t slot = 0; slot < flows_.size(); ++slot) {
      if (flows_[slot].active) {
        slot_order_.push_back(slot);
      }
    }
    live = &slot_order_;
  }
  const std::vector<CapKey>& caps = OrderPass(*live);
  stats_.reallocs++;
  stats_.full_reallocs++;
  stats_.flows_touched += live->size();
  stats_.links_touched += pass_links_.size();
  for (LinkId li : pass_links_) {
    Link& link = links_[li];
    link.residual = link.capacity;
    link.unfixed = 0;
  }
  for (uint32_t slot : *live) {
    Flow& flow = flows_[slot];
    flow.fixed = false;
    flow.new_rate = 0.0;
    for (LinkId l : flow.path) {
      links_[l].unfixed++;
    }
  }

  // Water-filling max-min allocation with per-flow rate caps over the live
  // set. Cap rounds take flows from the cap order and link rounds from
  // member lists, so no rate depends on the order this pass visits the live
  // set in; only link id order, cap-cohort seq order and member order do
  // (DESIGN.md §10).
  //
  // Round bookkeeping avoids the historical per-round rescans two ways,
  // neither of which changes a single comparison outcome or double produced:
  //  - |caps| holds the live finite-capped flows ascending by
  //    (rate_cap, seq), so the smallest unfixed cap is a cursor skip.
  //    Dropping infinite caps is free: an infinite cap is never the minimum
  //    unless every remaining cap is infinite, and that case is handled
  //    explicitly below.
  //  - share_lb is a proven lower bound on the smallest contended-link share
  //    (see below); while the next cap sits at or below it the historical
  //    comparison cap_min <= share + eps must also pass, so consecutive cap
  //    rounds skip the exact min-share scan entirely.
  // Fix order inside a round is unchanged: cap cohorts are re-sorted to seq
  // order before fixing (a cohort of one needs no sort), and link rounds
  // still walk pass_links_ ascending — the sequence of residual subtractions
  // matches the scan version.
  size_t remaining_flows = live->size();
  size_t cap_cursor = 0;
  // Invariant: share_lb <= the true smallest contended-link share. It starts
  // below everything (forcing an exact scan on the first round), is raised
  // to the exact minimum by every scan, and is lowered by fix_flow whenever
  // a touched link's new share drops beneath it. Untouched links keep their
  // old shares (>= the lb when it was last exact), so the invariant holds
  // across both cap and link rounds without ever resetting.
  double share_lb = -kInfinity;
  auto fix_flow = [&](Flow& flow, double rate) {
    flow.fixed = true;
    flow.new_rate = std::max(rate, 0.0);
    for (LinkId l : flow.path) {
      Link& link = links_[l];
      link.residual = std::max(0.0, link.residual - flow.new_rate);
      link.unfixed--;
      if (link.unfixed > 0) {
        double share = link.residual / static_cast<double>(link.unfixed);
        if (share < share_lb) {
          share_lb = share;
        }
      }
    }
    remaining_flows--;
  };
  while (remaining_flows > 0) {
    // Smallest unfixed per-flow cap: skip entries fixed by earlier rounds.
    while (cap_cursor < caps.size() &&
           flows_[static_cast<uint32_t>(caps[cap_cursor].second)].fixed) {
      ++cap_cursor;
    }
    double cap_min = cap_cursor < caps.size() ? caps[cap_cursor].first : kInfinity;
    bool cap_round;
    double link_share = kInfinity;
    if (cap_min <= share_lb + kRateEpsilon) {
      // cap_min <= share_lb + eps <= true_share + eps: the historical test
      // would take the cap branch too — no need for the exact share.
      cap_round = true;
    } else {
      // Smallest equal-share across contended links, exactly.
      for (LinkId li : pass_links_) {
        const Link& link = links_[li];
        if (link.unfixed > 0) {
          link_share = std::min(link_share, link.residual / static_cast<double>(link.unfixed));
        }
      }
      share_lb = link_share;
      cap_round = cap_min <= link_share + kRateEpsilon;
    }
    if (cap_round) {
      if (cap_cursor >= caps.size()) {
        // cap_min and link_share are both infinite: no contended links
        // remain, so every remaining flow is uncapped and crosses no link
        // (an unfixed member keeps its link contended). Fixing them touches
        // no link, so their order changes nothing.
        for (uint32_t slot : *live) {
          Flow& flow = flows_[slot];
          if (!flow.fixed) {
            fix_flow(flow, flow.rate_cap);
          }
        }
        continue;
      }
      // Cap-limited flows saturate first: pin them at their caps, in seq
      // order (order_scratch_ entries are (seq, slot), so a plain sort).
      // A cohort of one needs no ordering; the oracle sorts it anyway.
      const size_t next = cap_cursor + 1;
      if (!force_full_ && (next == caps.size() || caps[next].first > cap_min + kRateEpsilon)) {
        Flow& flow = flows_[static_cast<uint32_t>(caps[cap_cursor].second)];
        fix_flow(flow, flow.rate_cap);
        continue;
      }
      order_scratch_.clear();
      for (size_t c = cap_cursor; c < caps.size() && caps[c].first <= cap_min + kRateEpsilon;
           ++c) {
        uint32_t slot = static_cast<uint32_t>(caps[c].second);
        if (!flows_[slot].fixed) {
          order_scratch_.push_back(caps[c].second);
        }
      }
      std::sort(order_scratch_.begin(), order_scratch_.end());
      for (uint64_t packed : order_scratch_) {
        Flow& flow = flows_[static_cast<uint32_t>(packed)];
        fix_flow(flow, flow.rate_cap);
      }
    } else {
      // Link-limited: every unfixed flow crossing a bottleneck link gets the
      // bottleneck share. Shares here are recomputed on the fly (they shrink
      // as earlier links' members get fixed), exactly as the scan did.
      bool fixed_any = false;
      for (LinkId li : pass_links_) {
        Link& link = links_[li];
        if (link.unfixed == 0) {
          continue;
        }
        double share = link.residual / static_cast<double>(link.unfixed);
        if (share > link_share + kRateEpsilon) {
          continue;
        }
        for (uint32_t slot : link.members) {
          Flow& flow = flows_[slot];
          if (!flow.fixed) {
            fix_flow(flow, link_share);
            fixed_any = true;
          }
        }
      }
      assert(fixed_any && "water-filling made no progress");
      if (!fixed_any) {
        // Flows would stay pinned at rate 0 with no completion ever firing;
        // count it loudly instead of stalling silently.
        stats_.no_progress++;
        if (metrics_ != nullptr) {
          metrics_->Add("flow_network.no_progress", 1);
        }
        break;
      }
    }
  }

  // Commit: only flows whose rate changed are re-anchored and re-keyed, and
  // only their links (plus |touched|, whose membership may have changed) get
  // a fresh aggregate. A flow or link whose value is bit-identical keeps its
  // anchor, exactly as under the forced-full oracle.
  SimTime now = loop_.Now();
  ++visit_epoch_;
  refresh_scratch_.clear();
  auto mark = [&](LinkId l) {
    if (links_[l].visit != visit_epoch_) {
      links_[l].visit = visit_epoch_;
      refresh_scratch_.push_back(l);
    }
  };
  for (LinkId l : touched) {
    mark(l);
  }
  for (uint32_t slot : *live) {
    Flow& flow = flows_[slot];
    if (flow.new_rate != flow.rate) {
      SetRate(slot, flow.new_rate, now);
      for (LinkId l : flow.path) {
        mark(l);
      }
    }
  }
  for (LinkId l : refresh_scratch_) {
    Link& link = links_[l];
    double agg = 0.0;
    for (uint32_t member : link.members) {
      agg += flows_[member].rate;
    }
    SetLinkRate(link, agg, now);
  }
}

void FlowNetwork::ScheduleNext() {
  SimTime next = kTimeInfinity;
  if (!finish_heap_.Empty()) {
    next = std::min(next, finish_heap_.TopKey());
  }
  if (!double_heap_.Empty()) {
    next = std::min(next, double_heap_.TopKey());
  }
  if (timer_ != 0) {
    if (next < kTimeInfinity) {
      // Move the pending timer instead of cancel+rebuild: same sequence
      // number consumption and heap behavior, no std::function churn.
      EventId moved = loop_.Reschedule(timer_, next);
      if (moved != 0) {
        timer_ = moved;
        return;
      }
    }
    loop_.Cancel(timer_);
    timer_ = 0;
  }
  if (next < kTimeInfinity) {
    timer_ = loop_.ScheduleAt(next, [this] {
      timer_ = 0;
      OnTimer();
    });
  }
}

void FlowNetwork::OnTimer() {
  SimTime now = loop_.Now();
  SimDuration quantum = TimeQuantum(now);
  const bool unsaturated = Unsaturated();
  // A flow is complete when its bytes are gone, or when the residual would
  // take less than one representable clock tick to drain (the clock can no
  // longer advance by that little; see TimeQuantum). Everything with a
  // predicted finish inside the quantum window is due; the early heap
  // catches flows whose byte-epsilon window is wider than the quantum.
  due_scratch_.clear();
  std::vector<uint32_t>& due = due_scratch_;
  while (!finish_heap_.Empty() && finish_heap_.TopKey() <= now + quantum) {
    uint32_t slot = finish_heap_.TopItem();
    finish_heap_.Pop();
    early_heap_.Remove(slot);
    double_heap_.Remove(slot);
    due.push_back(slot);
  }
  while (!early_heap_.Empty() && early_heap_.TopKey() <= now) {
    uint32_t slot = early_heap_.TopItem();
    early_heap_.Pop();
    finish_heap_.Remove(slot);
    double_heap_.Remove(slot);
    due.push_back(slot);
  }
  // Completion order is creation order (packed integer sort, no indirection).
  order_scratch_.clear();
  for (uint32_t slot : due) {
    order_scratch_.push_back(OrderKey(slot));
  }
  std::sort(order_scratch_.begin(), order_scratch_.end());
  for (size_t i = 0; i < order_scratch_.size(); ++i) {
    due[i] = static_cast<uint32_t>(order_scratch_[i]);
  }

  // Collect completions first so callbacks observe a consistent network.
  // Swapped out while the callbacks run, so one that re-enters OnTimer
  // finds the scratch empty.
  std::vector<std::function<void()>> done;
  done.swap(done_scratch_);
  touched_scratch_.clear();
  for (uint32_t slot : due) {
    Flow& flow = flows_[slot];
    done.push_back(std::move(flow.on_complete));
    for (LinkId l : flow.path) {
      touched_scratch_.push_back(l);
    }
    DetachFromLinks(slot);
    ReleaseSlot(slot);
  }

  // Slow-start doublings due at this instant (completed flows were already
  // pulled out of the doubling heap above, matching the historical
  // complete-else-double scan).
  changed_scratch_.clear();
  bool all_link_bound = true;
  while (!double_heap_.Empty() && double_heap_.TopKey() <= now + 1e-12) {
    uint32_t slot = double_heap_.TopItem();
    Flow& flow = flows_[slot];
    all_link_bound = all_link_bound && flow.rate < flow.rate_cap;
    off_cap_flows_ -= OffCap(flow);
    flow.cwnd *= 2.0;
    flow.rate_cap = flow.cwnd / flow.rtt;
    // Stop doubling once the cap exceeds anything the path could give (the
    // path minimum is cached at StartFlow; capacities never change).
    if (flow.rate_cap >= flow.path_cap) {
      flow.rate_cap = kInfinity;
      flow.next_double = kTimeInfinity;
      double_heap_.Pop();
    } else {
      flow.next_double = now + flow.rtt;
      double_heap_.Update(slot, flow.next_double, flow.seq);
    }
    off_cap_flows_ += OffCap(flow);
    LogCap(slot, unsaturated);
    changed_scratch_.push_back(slot);
    for (LinkId l : flow.path) {
      touched_scratch_.push_back(l);
    }
  }

  if (!force_full_ && due.empty() && all_link_bound) {
    // Link-bound doubling certificate (DESIGN.md §10): each doubling flow
    // was fixed in a link round with its old cap above that round's share
    // plus kRateEpsilon, so a larger cap changes no round's decision, cap
    // cohort or fix order — the pass would reproduce every rate.
    stats_.skipped_reallocs++;
  } else if (!TryCapsOnly(unsaturated, touched_scratch_, changed_scratch_)) {
    Reallocate(touched_scratch_);
  }
  ScheduleNext();
  for (auto& cb : done) {
    if (cb) {
      cb();
    }
  }
  done.clear();
  done_scratch_.swap(done);
}

}  // namespace mfc
