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
  component_cache_full_ = false;
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
  ++live_;
  component_cache_full_ = false;  // membership changed
  changed_scratch_.assign(1, slot);
  if (!TryCapsOnly(unsaturated, flows_[slot].path, changed_scratch_)) {
    ReallocateFor(flows_[slot].path, slot);
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
  seed_scratch_ = flows_[slot].path;
  DetachFromLinks(slot);
  finish_heap_.Remove(slot);
  early_heap_.Remove(slot);
  double_heap_.Remove(slot);
  ReleaseSlot(slot);
  --live_;
  component_cache_full_ = false;  // membership changed
  changed_scratch_.clear();
  if (!TryCapsOnly(unsaturated, seed_scratch_, changed_scratch_)) {
    ReallocateFor(seed_scratch_);
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

void FlowNetwork::CollectComponent(const std::vector<LinkId>& seed_links, uint32_t seed_flow) {
  dirty_flows_.clear();
  dirty_links_.clear();
  ++visit_epoch_;
  if (force_full_) {
    for (LinkId l = 0; l < links_.size(); ++l) {
      links_[l].visit = visit_epoch_;
      dirty_links_.push_back(l);
    }
    for (uint32_t slot = 0; slot < flows_.size(); ++slot) {
      if (flows_[slot].active && flows_[slot].visit != visit_epoch_) {
        flows_[slot].visit = visit_epoch_;
        dirty_flows_.push_back(slot);
      }
    }
  } else {
    for (LinkId l : seed_links) {
      if (links_[l].visit != visit_epoch_) {
        links_[l].visit = visit_epoch_;
        dirty_links_.push_back(l);
      }
    }
    if (seed_flow != UINT32_MAX && flows_[seed_flow].visit != visit_epoch_) {
      flows_[seed_flow].visit = visit_epoch_;
      dirty_flows_.push_back(seed_flow);
      for (LinkId l : flows_[seed_flow].path) {
        if (links_[l].visit != visit_epoch_) {
          links_[l].visit = visit_epoch_;
          dirty_links_.push_back(l);
        }
      }
    }
  }
  // BFS over the link↔flow incidence graph; dirty_links_ doubles as the
  // worklist (indices only ever appended).
  for (size_t head = 0; head < dirty_links_.size(); ++head) {
    Link& link = links_[dirty_links_[head]];
    for (uint32_t slot : link.members) {
      Flow& flow = flows_[slot];
      if (flow.visit == visit_epoch_) {
        continue;
      }
      flow.visit = visit_epoch_;
      dirty_flows_.push_back(slot);
      for (LinkId l : flow.path) {
        if (links_[l].visit != visit_epoch_) {
          links_[l].visit = visit_epoch_;
          dirty_links_.push_back(l);
        }
      }
    }
  }
  // Deterministic pass order: flows by creation sequence, links by id — the
  // orders the historical full pass would visit a single component in.
  // Packed integer keys keep the sort flat instead of chasing Flow structs.
  order_scratch_.clear();
  for (uint32_t slot : dirty_flows_) {
    order_scratch_.push_back((flows_[slot].seq << 32) | slot);
  }
  std::sort(order_scratch_.begin(), order_scratch_.end());
  for (size_t i = 0; i < order_scratch_.size(); ++i) {
    dirty_flows_[i] = static_cast<uint32_t>(order_scratch_[i]);
  }
  std::sort(dirty_links_.begin(), dirty_links_.end());
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

void FlowNetwork::ReallocateFor(const std::vector<LinkId>& seed_links, uint32_t seed_flow) {
  if (!component_cache_full_ || force_full_) {
    CollectComponent(seed_links, seed_flow);
  }
  // else: the previous pass covered every live flow and only slow-start
  // doublings happened since (starts/aborts/completions/new links all clear
  // the flag), so a fresh BFS from any seed would re-derive exactly the
  // cached dirty sets — reuse them as-is. dirty_flows_ stays seq-sorted and
  // dirty_links_ id-sorted from the pass that built them.
  stats_.reallocs++;
  stats_.flows_touched += dirty_flows_.size();
  stats_.links_touched += dirty_links_.size();
  if (dirty_flows_.size() == live_) {
    stats_.full_reallocs++;
  }
  for (LinkId li : dirty_links_) {
    Link& link = links_[li];
    link.residual = link.capacity;
    link.unfixed = 0;
  }
  for (uint32_t slot : dirty_flows_) {
    Flow& flow = flows_[slot];
    flow.fixed = false;
    flow.new_rate = 0.0;
    for (LinkId l : flow.path) {
      links_[l].unfixed++;
    }
  }

  // Water-filling max-min allocation with per-flow rate caps, restricted to
  // the dirty component (identical arithmetic to the historical full pass:
  // every link a dirty flow crosses is itself dirty, by construction).
  //
  // Round bookkeeping avoids the historical per-round rescans three ways,
  // none of which changes a single comparison outcome or double produced:
  //  - caps_scratch_ holds the component's finite-capped flows ascending by
  //    (rate_cap, seq), so the smallest unfixed cap is a cursor skip.
  //    Dropping infinite caps is free: an infinite cap is never the minimum
  //    unless every remaining cap is infinite, and that case is handled
  //    explicitly below with the same fix order the scan produced.
  //  - share_lb is a proven lower bound on the smallest contended-link share
  //    (see below); while the next cap sits at or below it the historical
  //    comparison cap_min <= share + eps must also pass, so consecutive cap
  //    rounds skip the exact min-share scan entirely.
  //  - for large components, share_heap_ keys each contended link by
  //    residual/unfixed (the identical division the scan computed), so the
  //    exact bottleneck share is the heap top instead of a scan.
  // Fix order inside a round is unchanged: cap cohorts are re-sorted to seq
  // order before fixing, and link rounds still walk dirty_links_ ascending —
  // the sequence of residual subtractions matches the scan version.
  size_t remaining_flows = dirty_flows_.size();
  caps_scratch_.clear();
  for (uint32_t slot : dirty_flows_) {
    if (flows_[slot].rate_cap < kInfinity) {
      caps_scratch_.emplace_back(flows_[slot].rate_cap,
                                 (flows_[slot].seq << 32) | static_cast<uint64_t>(slot));
    }
  }
  std::sort(caps_scratch_.begin(), caps_scratch_.end());
  size_t cap_cursor = 0;
  // For small components a flat rescan of dirty_links_ beats heap
  // maintenance (fewer than ~100 contiguous doubles vs pointer-chasing
  // sifts); the share heap only pays off at scale. Either source yields the
  // identical division residual/unfixed, so the allocation is unchanged.
  const bool use_share_heap = dirty_links_.size() > 96;
  if (use_share_heap) {
    share_heap_.Clear();
    for (LinkId li : dirty_links_) {
      const Link& link = links_[li];
      if (link.unfixed > 0) {
        share_heap_.Update(static_cast<uint32_t>(li),
                           link.residual / static_cast<double>(link.unfixed), li);
      }
    }
  }
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
      if (use_share_heap) {
        if (link.unfixed == 0) {
          share_heap_.Remove(static_cast<uint32_t>(l));
        } else {
          share_heap_.Update(static_cast<uint32_t>(l),
                             link.residual / static_cast<double>(link.unfixed), l);
        }
      } else if (link.unfixed > 0) {
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
    while (cap_cursor < caps_scratch_.size() &&
           flows_[static_cast<uint32_t>(caps_scratch_[cap_cursor].second)].fixed) {
      ++cap_cursor;
    }
    double cap_min =
        cap_cursor < caps_scratch_.size() ? caps_scratch_[cap_cursor].first : kInfinity;
    bool cap_round;
    double link_share = kInfinity;
    if (!use_share_heap && cap_min <= share_lb + kRateEpsilon) {
      // cap_min <= share_lb + eps <= true_share + eps: the historical test
      // would take the cap branch too — no need for the exact share.
      cap_round = true;
    } else {
      // Smallest equal-share across contended links, exactly.
      if (use_share_heap) {
        link_share = share_heap_.Empty() ? kInfinity : share_heap_.TopKey();
      } else {
        for (LinkId li : dirty_links_) {
          const Link& link = links_[li];
          if (link.unfixed > 0) {
            link_share = std::min(link_share, link.residual / static_cast<double>(link.unfixed));
          }
        }
        share_lb = link_share;
      }
      cap_round = cap_min <= link_share + kRateEpsilon;
    }
    if (cap_round) {
      if (cap_cursor >= caps_scratch_.size()) {
        // cap_min and link_share are both infinite: no contended links
        // remain, and every remaining flow has an uncapped rate. The
        // historical pass fixed them all at their (infinite) caps in seq
        // order; dirty_flows_ is already seq-sorted.
        for (uint32_t slot : dirty_flows_) {
          Flow& flow = flows_[slot];
          if (!flow.fixed) {
            fix_flow(flow, flow.rate_cap);
          }
        }
        continue;
      }
      // Cap-limited flows saturate first: pin them at their caps, in seq
      // order (order_scratch_ entries are (seq, slot), so a plain sort).
      order_scratch_.clear();
      for (size_t c = cap_cursor;
           c < caps_scratch_.size() && caps_scratch_[c].first <= cap_min + kRateEpsilon; ++c) {
        uint32_t slot = static_cast<uint32_t>(caps_scratch_[c].second);
        if (!flows_[slot].fixed) {
          order_scratch_.push_back(caps_scratch_[c].second);
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
      for (LinkId li : dirty_links_) {
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
  // only their links (plus the seeds, whose membership changed) get a fresh
  // aggregate. A flow or link whose value is bit-identical keeps its anchor,
  // exactly as under the forced-full oracle.
  SimTime now = loop_.Now();
  ++visit_epoch_;
  refresh_scratch_.clear();
  auto mark = [&](LinkId l) {
    if (links_[l].visit != visit_epoch_) {
      links_[l].visit = visit_epoch_;
      refresh_scratch_.push_back(l);
    }
  };
  for (LinkId l : seed_links) {
    mark(l);
  }
  for (uint32_t slot : dirty_flows_) {
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
  // A pass that covered every live flow leaves dirty sets a doubling-only
  // event can reuse verbatim; any membership change clears the flag.
  component_cache_full_ = !dirty_flows_.empty() && dirty_flows_.size() == live_;
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
    order_scratch_.push_back((flows_[slot].seq << 32) | slot);
  }
  std::sort(order_scratch_.begin(), order_scratch_.end());
  for (size_t i = 0; i < order_scratch_.size(); ++i) {
    due[i] = static_cast<uint32_t>(order_scratch_[i]);
  }

  // Collect completions first so callbacks observe a consistent network.
  std::vector<std::function<void()>> done;
  done.reserve(due.size());
  seed_scratch_.clear();
  for (uint32_t slot : due) {
    Flow& flow = flows_[slot];
    done.push_back(std::move(flow.on_complete));
    for (LinkId l : flow.path) {
      seed_scratch_.push_back(l);
    }
    DetachFromLinks(slot);
    ReleaseSlot(slot);
    --live_;
  }
  if (!due.empty()) {
    component_cache_full_ = false;  // membership changed
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
    changed_scratch_.push_back(slot);
    for (LinkId l : flow.path) {
      seed_scratch_.push_back(l);
    }
  }

  if (!force_full_ && due.empty() && all_link_bound) {
    // Link-bound doubling certificate (DESIGN.md §10): each doubling flow
    // was fixed in a link round with its old cap above that round's share
    // plus kRateEpsilon, so a larger cap changes no round's decision, cap
    // cohort or fix order — the pass would reproduce every rate.
    stats_.skipped_reallocs++;
  } else if (!TryCapsOnly(unsaturated, seed_scratch_, changed_scratch_)) {
    ReallocateFor(seed_scratch_);
  }
  ScheduleNext();
  for (auto& cb : done) {
    if (cb) {
      cb();
    }
  }
}

}  // namespace mfc
