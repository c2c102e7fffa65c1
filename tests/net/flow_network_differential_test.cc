// Randomized differential test: the allocator's fast paths (the link-bound
// doubling and caps-only certificates, the persistent cap order, the cap
// cohort of one, passes that walk the live list in swap-removal order) vs a
// forced full-recompute oracle (set_force_full_reallocate, certificates off,
// the live set walked from the slots in slot order, every cap order sorted),
// driven through identical seeded workloads of flow arrivals, aborts, and
// natural completions. So every script also compares two orders of visiting
// the live set, which no rate may depend on.
//
// Both sides re-anchor a flow only when its rate changes, so as long as every
// rate matches bit for bit, so must completion order, completion times and
// per-link cumulative bytes — on connected and disconnected topologies alike.
// After every event the fast-path side must also pass MaxMinCertificate, an
// independent optimality check that shares no code with the water-filling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <vector>

#include "src/net/flow_network.h"
#include "src/sim/rng.h"

namespace mfc {
namespace {

constexpr double kRateEpsilon = 1e-9;  // the allocator's cap-vs-share tolerance

struct Completion {
  int ordinal = 0;      // arrival index
  SimTime when = 0.0;
};

struct Op {
  enum class Kind { kStart, kAbort, kProbe };
  SimTime at = 0.0;
  Kind kind = Kind::kStart;
  // Start fields.
  std::vector<LinkId> path;
  double bytes = 0.0;
  double rtt = 0.0;
  TcpParams tcp;
  // Abort/probe target: an arrival ordinal (an abort may hit a completed
  // flow — the generation-checked id makes that a no-op, which is part of
  // the test).
  int target = 0;
  // Probe expectation: the target is link-bound (rate below its cap).
  bool expect_link_bound = false;
  // Probe expectation when positive: the target's exact rate.
  double expect_rate = 0.0;
};

struct Script {
  std::vector<double> capacities;  // link i has capacities[i]
  std::vector<Op> ops;
};

// ---- the independent max-min certificate ----------------------------------

// A live flow as the replay sees it: its handle and the path it was given.
struct LiveFlow {
  FlowId id = 0;
  const std::vector<LinkId>* path = nullptr;
};

// Checks, from public accessors only, that the allocation is feasible (the
// summed rate on every link is at most capacity * (1 + 1e-12)) and max-min
// optimal: every flow is at its cap, or crosses a full link (within 1e-9
// relative) on which no flow has a higher rate (same tolerance).
testing::AssertionResult MaxMinCertificate(const FlowNetwork& net,
                                           const std::vector<double>& capacities,
                                           const std::vector<LiveFlow>& live) {
  std::vector<double> sum(capacities.size(), 0.0);
  std::vector<double> max_rate(capacities.size(), 0.0);
  for (const LiveFlow& f : live) {
    double rate = net.FlowRate(f.id);
    for (LinkId l : *f.path) {
      sum[l] += rate;
      max_rate[l] = std::max(max_rate[l], rate);
    }
  }
  for (LinkId l = 0; l < capacities.size(); ++l) {
    if (sum[l] > capacities[l] * (1.0 + 1e-12)) {
      return testing::AssertionFailure()
             << "link " << l << " carries " << sum[l] << " > capacity " << capacities[l];
    }
  }
  for (const LiveFlow& f : live) {
    double rate = net.FlowRate(f.id);
    double cap = net.FlowRateCap(f.id);
    if (rate >= cap * (1.0 - 1e-9)) {
      continue;
    }
    bool bottlenecked = false;
    for (LinkId l : *f.path) {
      if (sum[l] >= capacities[l] * (1.0 - 1e-9) && max_rate[l] <= rate * (1.0 + 1e-9)) {
        bottlenecked = true;
        break;
      }
    }
    if (!bottlenecked) {
      return testing::AssertionFailure() << "flow " << f.id << " at rate " << rate
                                         << " below cap " << cap << " has no bottleneck link";
    }
  }
  return testing::AssertionSuccess();
}

// ---- scripts ----------------------------------------------------------------

// The randomized topology: one or two server access links, three pop
// bottlenecks, and per-client access links. |disjoint| splits the clients
// across two servers with no shared link (two components); otherwise all
// paths share server A, optionally through one pop (multi-bottleneck, still
// connected).
struct Topology {
  static constexpr int kClients = 24;
  static constexpr LinkId kPops = 3;
  static constexpr LinkId kFixed = 2 + kPops;  // servers + pops

  static std::vector<double> Capacities(double scale) {
    std::vector<double> caps = {2.5e5 * scale, 2.0e5 * scale};  // servers A, B
    for (LinkId p = 0; p < kPops; ++p) {
      caps.push_back((1.2e5 + 3e4 * static_cast<double>(p)) * scale);
    }
    for (int c = 0; c < kClients; ++c) {
      caps.push_back((6e4 + 1e4 * static_cast<double>(c % 5)) * scale);
    }
    return caps;
  }

  // path = {server(component), pop (maybe), client}
  static std::vector<LinkId> PathFor(Rng& rng, int client, bool disjoint) {
    std::vector<LinkId> path;
    if (disjoint) {
      path.push_back(client < kClients / 2 ? 0 : 1);
    } else {
      path.push_back(0);
      if (rng.Chance(0.5)) {
        path.push_back(2 + rng.NextBelow(kPops));
      }
    }
    path.push_back(kFixed + static_cast<LinkId>(client));
    return path;
  }
};

// Traffic mix of a random script.
struct Mix {
  double capacity_scale = 1.0;
  double gap_min = 0.0005, gap_max = 0.02;  // inter-arrival seconds
  double bytes_min = 2e3, bytes_max = 4e5;
  double rtt_min = 0.01, rtt_max = 0.25;
  double slow_start = 0.8;  // fraction of slow-start arrivals
};

// Heavily overloaded: thousands of flows queue on the server link.
Mix Overloaded() { return Mix{}; }

// All slow start, short transfers, links 20x faster: the summed caps mostly
// stay under every capacity, so the caps-only certificate resolves nearly
// every event.
Mix Unsaturated() {
  Mix mix;
  mix.capacity_scale = 20.0;
  mix.gap_min = 0.005;
  mix.gap_max = 0.05;
  mix.bytes_max = 6e4;
  mix.rtt_min = 0.02;
  mix.slow_start = 1.0;
  return mix;
}

Script MakeRandomScript(uint64_t seed, size_t arrivals, bool disjoint, const Mix& mix) {
  Rng rng(seed);
  Script script;
  script.capacities = Topology::Capacities(mix.capacity_scale);
  SimTime t = 0.0;
  int started = 0;
  while (script.ops.size() < arrivals) {
    t += rng.Uniform(mix.gap_min, mix.gap_max);
    Op op;
    op.at = t;
    if (started > 4 && rng.Chance(0.15)) {
      op.kind = Op::Kind::kAbort;
      op.target = static_cast<int>(rng.NextBelow(static_cast<uint64_t>(started)));
    } else {
      op.path = Topology::PathFor(rng, static_cast<int>(rng.NextBelow(Topology::kClients)),
                                  disjoint);
      op.bytes = rng.Uniform(mix.bytes_min, mix.bytes_max);
      op.rtt = rng.Uniform(mix.rtt_min, mix.rtt_max);
      op.tcp.slow_start = rng.Chance(mix.slow_start);
      ++started;
    }
    script.ops.push_back(std::move(op));
  }
  return script;
}

// Doubling flows whose cap sits within kRateEpsilon of their link share.
// Each episode (on one idle link) starts K uncapped background flows and one
// slow-start flow whose window reaches share + delta after two doublings,
// delta straddling the epsilon: at or below it the pass fixes the flow at its
// cap (so its next doubling needs a pass), above it the flow is link-bound
// (so its next doubling is certificate-resolved).
Script MakeCapEdgeScript(uint64_t seed, int episodes) {
  const double deltas[] = {-1.5, -0.5, 0.3, 0.7, 1.3, 1.7, 3.0};
  const double capacity = 2.5e5;
  Rng rng(seed);
  Script script;
  script.capacities = {capacity};
  int ordinal = 0;
  for (int e = 0; e < episodes; ++e) {
    const SimTime t = 1.0 + static_cast<double>(e);  // the link idles in between
    const int background = 1 + static_cast<int>(rng.NextBelow(6));
    const double share = capacity / static_cast<double>(background + 1);
    const double delta = deltas[static_cast<size_t>(e) % std::size(deltas)] * kRateEpsilon;
    const double rtt = rng.Uniform(0.01, 0.04);
    for (int b = 0; b < background; ++b) {
      Op op;
      op.at = t;
      op.path = {0};
      op.bytes = share * (6.0 * rtt + 0.2 + 0.05 * rng.Uniform(0.0, 1.0));
      op.rtt = rtt;
      op.tcp.slow_start = false;
      script.ops.push_back(op);
      ++ordinal;
    }
    Op edge;
    edge.at = t;
    edge.path = {0};
    edge.bytes = share * (6.0 * rtt + 0.3);
    edge.rtt = rtt;
    edge.tcp.init_cwnd_bytes = (share + delta) * rtt / 4.0;
    script.ops.push_back(edge);
    Op probe;  // between the second and third doubling
    probe.at = t + 2.5 * rtt;
    probe.kind = Op::Kind::kProbe;
    probe.target = ordinal++;
    probe.expect_link_bound = delta > kRateEpsilon;
    script.ops.push_back(probe);
  }
  return script;
}

// Summed caps landing on either side of, and inside, the caps-only slack
// band. Each episode starts n slow-start flows with one shared RTT whose caps
// sum to C(1 - x)/2, so their simultaneous first doubling lands the sum at
// C(1 - x): above the band the certificate resolves it, inside the band
// (0 < x <= 1e-9) it declines and the pass still fixes every flow at its
// cap, and over capacity (x < 0) the largest flow turns link-bound. Link 1
// is so fast (1 TB/s) that a member sum's rounding (~1e-4 B/s) dwarfs
// kRateEpsilon: there, caps summing to exactly C may or may not fit the
// pass, and only the slack keeps the certificate off them. The first
// |episodes| cycle through the bands below; |exact_episodes| more land at
// exactly link 1's capacity (a zero slack diverges on a few of them).
Script MakeSlackBandScript(uint64_t seed, int episodes, int exact_episodes) {
  struct Band {
    double x;
    LinkId link;
  };
  const Band bands[] = {{3e-9, 0},   {1.5e-9, 0}, {0.9e-9, 0}, {0.5e-9, 0},
                        {1e-10, 0},  {-5e-10, 0}, {-5e-9, 0},  {0.5e-9, 1}};
  Rng rng(seed);
  Script script;
  script.capacities = {2.5e5, 1e12};
  int ordinal = 0;
  for (int e = 0; e < episodes + exact_episodes; ++e) {
    const SimTime t = 1.0 + static_cast<double>(e);
    const Band band =
        e < episodes ? bands[static_cast<size_t>(e) % std::size(bands)] : Band{0.0, 1};
    const double capacity = script.capacities[band.link];
    const int n = 2 + static_cast<int>(rng.NextBelow(12));
    const double rtt = rng.Uniform(0.01, 0.04);
    std::vector<double> weights;
    for (int i = 0; i < n; ++i) {
      weights.push_back(rng.Uniform(0.2, 1.0));
    }
    const double half = capacity * (1.0 - band.x) / 2.0;
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    std::vector<double> caps;
    double assigned = 0.0;
    for (int i = 0; i + 1 < n; ++i) {
      caps.push_back(half * weights[static_cast<size_t>(i)] / total);
      assigned += caps.back();
    }
    caps.push_back(half - assigned);
    int largest = ordinal;
    for (int i = 0; i < n; ++i) {
      const double cap = caps[static_cast<size_t>(i)];
      Op op;
      op.at = t;
      op.path = {band.link};
      op.bytes = cap * rtt * rng.Uniform(3.2, 5.0);  // done in the third RTT
      op.rtt = rtt;
      op.tcp.init_cwnd_bytes = cap * rtt;
      script.ops.push_back(op);
      if (cap > caps[static_cast<size_t>(largest - ordinal)]) {
        largest = ordinal + i;
      }
    }
    ordinal += n;
    if (band.x != 0.0) {  // at exactly C, rounding decides either way
      Op probe;           // after the first doubling, before the second
      probe.at = t + 1.5 * rtt;
      probe.kind = Op::Kind::kProbe;
      probe.target = largest;
      probe.expect_link_bound = band.x < 0.0;
      script.ops.push_back(probe);
    }
  }
  return script;
}

// Cap cohorts of two or three slow-start flows whose caps lie within
// kRateEpsilon of their neighbours' (offsets of 0.25, 0.5 and 0.9 epsilon;
// 1.5 epsilon as the control, where the cohort splits), on a link that
// uncapped background flows saturate. Each cohort starts in seq order
// opposite to cap order (the earliest flow has the largest cap), and its
// caps take the link's residual across the binade boundary at 2^17 B/s.
// There the order of the subtractions changes their rounding, so a pass
// that fixed a cohort in cap order, or split it, would hand the background
// flows different share bits. The cohorts finish inside their first RTT, so
// every pass they take part in sees the same offsets.
Script MakeCapCohortScript(uint64_t seed, int episodes) {
  const double offsets[] = {0.25, 0.5, 0.9, 1.5};
  const double capacity = 1.5e5;
  const double binade = 131072.0;  // 2^17
  Rng rng(seed);
  Script script;
  script.capacities = {capacity};
  for (int e = 0; e < episodes; ++e) {
    const SimTime t = 1.0 + static_cast<double>(e);  // the link idles in between
    const int background = 2 + static_cast<int>(rng.NextBelow(4));
    const int cohort = 2 + static_cast<int>(rng.NextBelow(2));
    // Each cap alone keeps the residual above 2^17; two take it below.
    // Either way a cap stays under the share (at least 1.5e5 / 8 = 18750).
    const double cap = (capacity - binade) * rng.Uniform(0.55, 0.95);
    const double offset = offsets[static_cast<size_t>(e) % std::size(offsets)] * kRateEpsilon;
    const double rtt = rng.Uniform(0.01, 0.04);
    for (int b = 0; b < background; ++b) {
      Op op;
      op.at = t;
      op.path = {0};
      op.bytes = capacity / static_cast<double>(background + cohort) * rng.Uniform(0.3, 0.6);
      op.rtt = rtt;
      op.tcp.slow_start = false;
      script.ops.push_back(op);
    }
    for (int i = 0; i < cohort; ++i) {
      Op op;
      op.at = t;
      op.path = {0};
      op.rtt = rtt;
      op.tcp.init_cwnd_bytes = (cap + static_cast<double>(cohort - 1 - i) * offset) * rtt;
      op.bytes = cap * rtt * rng.Uniform(0.5, 0.9);
      script.ops.push_back(op);
    }
  }
  return script;
}

// Churn aimed at the allocator's persistent cap order and live list. A star
// (server link 0 over client links 2..9) alternates unsaturated stretches,
// slow-start flows whose caps sum under the capacity, with saturated ones:
// uncapped flows, short-RTT flows that stay link-bound and so double more
// than once between passes until their caps reach infinity, and aborts that
// hit capped flows. A side link (1) carries flows outside the star, so the
// passes water-fill a disconnected live set, and a slot a side flow frees is
// reused by a star flow.
Script MakeOrderChurnScript(uint64_t seed, int stretches) {
  constexpr int kClients = 8;
  Rng rng(seed);
  Script script;
  script.capacities = {1e6, 2e5};
  for (int c = 0; c < kClients; ++c) {
    script.capacities.push_back(4e6);
  }
  SimTime t = 0.0;
  int started = 0;
  for (int stretch = 0; stretch < stretches; ++stretch) {
    const bool saturated = stretch % 2 == 1;
    t += 1.0;  // most of the previous stretch drains first
    for (int i = 0; i < 40; ++i) {
      t += saturated ? rng.Uniform(0.005, 0.06) : rng.Uniform(0.02, 0.06);
      Op op;
      op.at = t;
      if (started > 2 && rng.Chance(saturated ? 0.2 : 0.1)) {
        op.kind = Op::Kind::kAbort;
        // Mostly recent arrivals, so most aborts hit live flows.
        const int window = std::min(started, 12);
        op.target = started - 1 - static_cast<int>(rng.NextBelow(static_cast<uint64_t>(window)));
        script.ops.push_back(op);
        continue;
      }
      const LinkId client = 2 + static_cast<LinkId>(rng.NextBelow(kClients));
      if (!saturated) {
        op.path = {0, client};
        op.bytes = rng.Uniform(2e3, 1.5e4);
        op.rtt = rng.Uniform(0.08, 0.25);  // caps of 58-183 KB/s
      } else if (rng.Chance(0.25)) {
        op.path = {1};
        op.bytes = rng.Uniform(2e3, 3e4);
        op.rtt = rng.Uniform(0.01, 0.1);
        op.tcp.slow_start = rng.Chance(0.5);
      } else {
        op.path = {0, client};
        op.bytes = rng.Uniform(3e4, 2e5);
        op.rtt = rng.Uniform(0.01, 0.06);
        op.tcp.slow_start = rng.Chance(0.6);
      }
      ++started;
      script.ops.push_back(op);
    }
  }
  return script;
}

// Two links whose shares tie within kRateEpsilon: link 0 has capacity 2S
// and link 1 has 3S + 1.5 kRateEpsilon. Each episode starts two uncapped
// flows over {0, 1} and one over {1}, in a random order. The first link round
// finds the smallest share, S on link 0, and walks the links in id order:
// link 0 fixes its two flows at S, which lifts link 1's share to
// S + 1.5 kRateEpsilon, past the epsilon, so the third flow is fixed a round
// later at that share. Walked in reverse, link 1 would come first with share
// S + 0.5 kRateEpsilon, within the epsilon, and fix all three at S. Link id
// order is one of the orders a pass's rates depend on; the order it visits
// the live set in is not.
Script MakeLinkTieScript(uint64_t seed, int episodes) {
  const double share = 1e5;
  Rng rng(seed);
  Script script;
  script.capacities = {2.0 * share, 3.0 * share + 1.5 * kRateEpsilon};
  int ordinal = 0;
  for (int e = 0; e < episodes; ++e) {
    const SimTime t = 1.0 + static_cast<double>(e);  // the links idle in between
    const int lone = static_cast<int>(rng.NextBelow(3));  // the flow over {1}
    for (int i = 0; i < 3; ++i) {
      Op op;
      op.at = t;
      op.path = i == lone ? std::vector<LinkId>{1} : std::vector<LinkId>{0, 1};
      op.bytes = share * rng.Uniform(0.3, 0.6);
      op.rtt = 0.02;
      op.tcp.slow_start = false;
      script.ops.push_back(op);
    }
    Op probe;  // all three still live
    probe.at = t + 0.01;
    probe.kind = Op::Kind::kProbe;
    probe.target = ordinal + lone;
    probe.expect_link_bound = true;
    // Link 1's residual once link 0's round fixed its two flows at S.
    probe.expect_rate = (script.capacities[1] - share) - share;
    script.ops.push_back(probe);
    ordinal += 3;
  }
  return script;
}

// ---- replay -----------------------------------------------------------------

// One side of the comparison: a loop, a network, and the state that replays
// a script against it.
struct Side {
  EventLoop loop;
  FlowNetwork net{loop};
  std::vector<FlowId> ids;                        // by arrival ordinal; live or stale
  std::vector<const std::vector<LinkId>*> paths;  // by arrival ordinal
  std::vector<Completion> completions;
  std::vector<int> live;        // live arrival ordinals (unordered)
  std::vector<size_t> live_at;  // ordinal -> index in |live|, SIZE_MAX if not live
  std::vector<bool> probes;     // link-bound observations, in probe order
  std::vector<double> rates;    // rates seen by probes with an expected rate

  void Retire(int ordinal) {
    size_t at = live_at[static_cast<size_t>(ordinal)];
    if (at == SIZE_MAX) {
      return;
    }
    live[at] = live.back();
    live_at[static_cast<size_t>(live[at])] = at;
    live.pop_back();
    live_at[static_cast<size_t>(ordinal)] = SIZE_MAX;
  }
};

// Replays |script| against |side|. With |certify|, every event is followed by
// the max-min certificate over the live flows.
void Run(Side& side, const Script& script, bool certify) {
  for (double c : script.capacities) {
    side.net.AddLink(c);
  }
  int ordinal = 0;
  for (const Op& op : script.ops) {
    switch (op.kind) {
      case Op::Kind::kAbort:
        side.loop.ScheduleAt(op.at, [&side, target = op.target] {
          side.net.AbortFlow(side.ids[static_cast<size_t>(target)]);
          side.Retire(target);
        });
        break;
      case Op::Kind::kProbe:
        side.loop.ScheduleAt(op.at, [&side, &op] {
          FlowId id = side.ids[static_cast<size_t>(op.target)];
          side.probes.push_back(side.net.FlowRate(id) < side.net.FlowRateCap(id));
          if (op.expect_rate > 0.0) {
            side.rates.push_back(side.net.FlowRate(id));
          }
        });
        break;
      case Op::Kind::kStart: {
        int mine = ordinal++;
        side.ids.push_back(0);
        side.paths.push_back(&op.path);
        side.live_at.push_back(SIZE_MAX);
        side.loop.ScheduleAt(op.at, [&side, &op, mine] {
          side.ids[static_cast<size_t>(mine)] =
              side.net.StartFlow(op.path, op.bytes, op.rtt, op.tcp, [&side, mine] {
                side.completions.push_back({mine, side.loop.Now()});
                side.Retire(mine);
              });
          side.live_at[static_cast<size_t>(mine)] = side.live.size();
          side.live.push_back(mine);
        });
        break;
      }
    }
  }
  std::vector<LiveFlow> live;
  while (side.loop.RunOne()) {
    if (!certify) {
      continue;
    }
    ASSERT_EQ(side.live.size(), side.net.ActiveFlowCount());
    live.clear();
    for (int o : side.live) {
      live.push_back({side.ids[static_cast<size_t>(o)], side.paths[static_cast<size_t>(o)]});
    }
    ASSERT_TRUE(MaxMinCertificate(side.net, script.capacities, live))
        << "at t=" << side.loop.Now();
  }
}

// Link-bound expectations of the script's probes, in order.
std::vector<bool> Expectations(const Script& script) {
  std::vector<bool> expected;
  for (const Op& op : script.ops) {
    if (op.kind == Op::Kind::kProbe) {
      expected.push_back(op.expect_link_bound);
    }
  }
  return expected;
}

// Expected rates of the script's probes that name one, in order.
std::vector<double> ExpectedRates(const Script& script) {
  std::vector<double> expected;
  for (const Op& op : script.ops) {
    if (op.kind == Op::Kind::kProbe && op.expect_rate > 0.0) {
      expected.push_back(op.expect_rate);
    }
  }
  return expected;
}

// Runs |script| on the fast path and on the forced-full oracle and requires
// bit-identical results. Returns the fast side's counters.
FlowNetworkStats Compare(const Script& script) {
  Side fast;
  Side oracle;
  oracle.net.set_force_full_reallocate(true);
  Run(fast, script, /*certify=*/true);
  Run(oracle, script, /*certify=*/false);

  EXPECT_EQ(fast.completions.size(), oracle.completions.size());
  for (size_t i = 0; i < std::min(fast.completions.size(), oracle.completions.size()); ++i) {
    EXPECT_EQ(fast.completions[i].ordinal, oracle.completions[i].ordinal)
        << "completion order diverged at index " << i;
    EXPECT_EQ(fast.completions[i].when, oracle.completions[i].when)
        << "completion time diverged for ordinal " << fast.completions[i].ordinal;
    if (fast.completions[i].ordinal != oracle.completions[i].ordinal ||
        fast.completions[i].when != oracle.completions[i].when) {
      break;
    }
  }
  EXPECT_EQ(fast.loop.Now(), oracle.loop.Now());
  // Per-link cumulative bytes are the whole-run integral of the allocation
  // history, so they catch any transient rate difference.
  for (LinkId l = 0; l < script.capacities.size(); ++l) {
    EXPECT_EQ(fast.net.LinkCumulativeBytes(l), oracle.net.LinkCumulativeBytes(l))
        << "cumulative bytes diverged on link " << l;
  }
  // Probes pin the edge a script constructs (same answer on both sides).
  EXPECT_EQ(fast.probes, Expectations(script));
  EXPECT_EQ(oracle.probes, fast.probes);
  EXPECT_EQ(fast.rates, ExpectedRates(script));
  EXPECT_EQ(oracle.rates, fast.rates);
  EXPECT_EQ(fast.net.ActiveFlowCount(), 0u);
  EXPECT_EQ(oracle.net.ActiveFlowCount(), 0u);

  // The fast side never runs more passes, nor visits more flows, than the
  // oracle's pass-per-event over the whole graph.
  const FlowNetworkStats& sf = fast.net.Stats();
  const FlowNetworkStats& so = oracle.net.Stats();
  EXPECT_LE(sf.reallocs, so.reallocs);
  EXPECT_LE(sf.flows_touched, so.flows_touched);
  EXPECT_EQ(so.skipped_reallocs, 0u);
  EXPECT_EQ(sf.no_progress, 0u);
  EXPECT_EQ(so.no_progress, 0u);
  return sf;
}

TEST(FlowNetworkDifferentialTest, SharedBottleneckExactMatch) {
  FlowNetworkStats s =
      Compare(MakeRandomScript(/*seed=*/0x5eed0001, /*arrivals=*/10000, false, Overloaded()));
  EXPECT_GT(s.skipped_reallocs, 0u);
}

TEST(FlowNetworkDifferentialTest, SharedBottleneckSecondSeed) {
  FlowNetworkStats s =
      Compare(MakeRandomScript(/*seed=*/0xabcde123, /*arrivals=*/2000, false, Overloaded()));
  EXPECT_GT(s.skipped_reallocs, 0u);
}

// Two disconnected server components: every pass water-fills the whole live
// set, both components, as the oracle's does, so the match is exact on a
// disconnected graph too.
TEST(FlowNetworkDifferentialTest, DisjointComponentsExactMatch) {
  Compare(MakeRandomScript(/*seed=*/0x5eed0002, /*arrivals=*/4000, true, Overloaded()));
}

// All-slow-start traffic that rarely saturates a link: the caps-only
// certificate resolves most events.
TEST(FlowNetworkDifferentialTest, UnsaturatedSlowStartMostlySkipsPasses) {
  FlowNetworkStats s =
      Compare(MakeRandomScript(/*seed=*/0x5eed0003, /*arrivals=*/4000, false, Unsaturated()));
  EXPECT_GT(s.skipped_reallocs, 4 * s.reallocs);
}

TEST(FlowNetworkDifferentialTest, DoublingCapWithinEpsilonOfShare) {
  FlowNetworkStats s = Compare(MakeCapEdgeScript(/*seed=*/0x5eed0004, /*episodes=*/35));
  EXPECT_GT(s.skipped_reallocs, 0u);
}

TEST(FlowNetworkDifferentialTest, SummedCapsInsideSlackBand) {
  FlowNetworkStats s = Compare(
      MakeSlackBandScript(/*seed=*/0x5eed0005, /*episodes=*/40, /*exact_episodes=*/400));
  EXPECT_GT(s.skipped_reallocs, 0u);
}

// Cap cohorts within kRateEpsilon, in seq order opposite to cap order: the
// fast path's cohort-of-one shortcut must not split them.
TEST(FlowNetworkDifferentialTest, CapCohortWithinEpsilonFixesInSeqOrder) {
  FlowNetworkStats s = Compare(MakeCapCohortScript(/*seed=*/0x5eed0006, /*episodes=*/200));
  EXPECT_GT(s.reallocs, 0u);
}

// Slot reuse between whole-graph passes, repeated doublings between passes,
// caps reaching infinity, aborts of capped flows and alternating unsaturated
// and saturated stretches, against the persistent cap order.
TEST(FlowNetworkDifferentialTest, OrderChurnAcrossSaturationStretches) {
  FlowNetworkStats s = Compare(MakeOrderChurnScript(/*seed=*/0x5eed0007, /*stretches=*/60));
  EXPECT_GT(s.skipped_reallocs, 0u);
  EXPECT_GT(s.order_rebuilds, 0u);
  EXPECT_LT(s.order_rebuilds, s.reallocs);
}

// Shares of two links within kRateEpsilon of each other: link rounds must
// walk the links in id order, on both sides.
TEST(FlowNetworkDifferentialTest, LinkTieWithinEpsilonFollowsLinkOrder) {
  FlowNetworkStats s = Compare(MakeLinkTieScript(/*seed=*/0x5eed0008, /*episodes=*/60));
  EXPECT_GT(s.reallocs, 0u);
}

}  // namespace
}  // namespace mfc
