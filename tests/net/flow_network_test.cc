#include "src/net/flow_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/sim/distributions.h"
#include "src/sim/rng.h"

namespace mfc {
namespace {

TcpParams NoSlowStart() {
  TcpParams tcp;
  tcp.slow_start = false;
  return tcp;
}

TEST(FlowNetworkTest, SingleFlowUsesFullCapacity) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId link = net.AddLink(1000.0);  // 1000 B/s
  bool done = false;
  FlowId f = net.StartFlow({link}, 500.0, 0.01, NoSlowStart(), [&] { done = true; });
  EXPECT_DOUBLE_EQ(net.FlowRate(f), 1000.0);
  loop.RunUntilIdle();
  EXPECT_TRUE(done);
  EXPECT_NEAR(loop.Now(), 0.5, 1e-9);
}

TEST(FlowNetworkTest, TwoFlowsShareEqually) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId link = net.AddLink(1000.0);
  int done = 0;
  net.StartFlow({link}, 500.0, 0.01, NoSlowStart(), [&] { ++done; });
  net.StartFlow({link}, 500.0, 0.01, NoSlowStart(), [&] { ++done; });
  EXPECT_DOUBLE_EQ(net.LinkRate(link), 1000.0);
  loop.RunUntilIdle();
  EXPECT_EQ(done, 2);
  EXPECT_NEAR(loop.Now(), 1.0, 1e-9);  // both at 500 B/s
}

TEST(FlowNetworkTest, SecondFlowSpeedsUpAfterFirstCompletes) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId link = net.AddLink(1000.0);
  SimTime small_done = 0.0;
  SimTime big_done = 0.0;
  net.StartFlow({link}, 250.0, 0.01, NoSlowStart(), [&] { small_done = loop.Now(); });
  net.StartFlow({link}, 1000.0, 0.01, NoSlowStart(), [&] { big_done = loop.Now(); });
  loop.RunUntilIdle();
  // Shared 500/500 until small finishes at 0.5 (250B at 500B/s); big then has
  // 750B left at 1000B/s -> 0.75s more.
  EXPECT_NEAR(small_done, 0.5, 1e-9);
  EXPECT_NEAR(big_done, 1.25, 1e-9);
}

TEST(FlowNetworkTest, MaxMinWithSideBottleneck) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId shared = net.AddLink(10.0);
  LinkId narrow = net.AddLink(2.0);
  FlowId a = net.StartFlow({shared}, 1e6, 0.01, NoSlowStart(), [] {});
  FlowId b = net.StartFlow({shared, narrow}, 1e6, 0.01, NoSlowStart(), [] {});
  // b is limited to 2 by the narrow link; a picks up the slack: 8.
  EXPECT_NEAR(net.FlowRate(b), 2.0, 1e-9);
  EXPECT_NEAR(net.FlowRate(a), 8.0, 1e-9);
  EXPECT_NEAR(net.LinkRate(shared), 10.0, 1e-9);
}

TEST(FlowNetworkTest, AbortStopsFlowAndFreesBandwidth) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId link = net.AddLink(100.0);
  bool aborted_done = false;
  FlowId victim = net.StartFlow({link}, 1e9, 0.01, NoSlowStart(), [&] { aborted_done = true; });
  FlowId other = net.StartFlow({link}, 50.0, 0.01, NoSlowStart(), [] {});
  EXPECT_NEAR(net.FlowRate(other), 50.0, 1e-9);
  net.AbortFlow(victim);
  EXPECT_NEAR(net.FlowRate(other), 100.0, 1e-9);
  loop.RunUntilIdle();
  EXPECT_FALSE(aborted_done);
  EXPECT_EQ(net.ActiveFlowCount(), 0u);
}

TEST(FlowNetworkTest, CumulativeBytesMatchTransferred) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId link = net.AddLink(1000.0);
  net.StartFlow({link}, 300.0, 0.01, NoSlowStart(), [] {});
  net.StartFlow({link}, 700.0, 0.01, NoSlowStart(), [] {});
  loop.RunUntilIdle();
  EXPECT_NEAR(net.LinkCumulativeBytes(link), 1000.0, 1e-6);
}

TEST(FlowNetworkTest, UtilizationReflectsLoad) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId fat = net.AddLink(1000.0);
  LinkId thin = net.AddLink(10.0);
  net.StartFlow({fat, thin}, 1e6, 0.01, NoSlowStart(), [] {});
  EXPECT_NEAR(net.LinkUtilization(thin), 1.0, 1e-9);
  EXPECT_NEAR(net.LinkUtilization(fat), 0.01, 1e-9);
}

TEST(FlowNetworkTest, SlowStartCapsInitialRate) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId link = net.AddLink(1e9);  // effectively unconstrained
  TcpParams tcp;                   // slow start on, init cwnd 14600
  double rtt = 0.1;
  FlowId f = net.StartFlow({link}, 1e9, rtt, tcp, [] {});
  EXPECT_NEAR(net.FlowRate(f), 14600.0 / rtt, 1e-6);
  loop.RunUntil(0.15);  // one doubling at t=0.1
  EXPECT_NEAR(net.FlowRate(f), 2.0 * 14600.0 / rtt, 1e-6);
  loop.RunUntil(0.25);  // second doubling
  EXPECT_NEAR(net.FlowRate(f), 4.0 * 14600.0 / rtt, 1e-6);
}

TEST(FlowNetworkTest, SlowStartMakesSmallTransfersLatencyBound) {
  // A 10 KB object on a fat link: bounded by cwnd growth, not bandwidth.
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId link = net.AddLink(12.5e6);
  SimTime done_small = 0.0;
  net.StartFlow({link}, 10'000.0, 0.1, TcpParams{}, [&] { done_small = loop.Now(); });
  loop.RunUntilIdle();
  // At 14600 B per first RTT, 10 KB fits in the first window but still takes
  // 10e3/(14600/0.1) = 68 ms of paced sending.
  EXPECT_GT(done_small, 0.05);
  EXPECT_LT(done_small, 0.2);
}

TEST(FlowNetworkTest, LargeTransferReachesLinkRate) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId link = net.AddLink(12.5e6);
  SimTime done = 0.0;
  net.StartFlow({link}, 10e6, 0.05, TcpParams{}, [&] { done = loop.Now(); });
  loop.RunUntilIdle();
  // Ideal fluid time is 0.8 s; slow start adds a few RTTs at most.
  EXPECT_GT(done, 0.8);
  EXPECT_LT(done, 1.3);
}

// Regression: at large absolute clock values, a residual of a fraction of a
// byte must not livelock the completion timer (remaining/rate can round to
// a zero time step; see TimeQuantum).
TEST(FlowNetworkTest, NoLivelockAtLargeClockValues) {
  EventLoop loop;
  loop.ScheduleAt(1.0e6, [] {});
  loop.RunUntilIdle();  // park the clock at t = 1e6 s
  FlowNetwork net(loop);
  LinkId link = net.AddLink(8.7e7);
  bool done = false;
  net.StartFlow({link}, 400e3, 0.024, TcpParams{}, [&] { done = true; });
  // A bounded number of events must finish the transfer.
  for (int i = 0; i < 10000 && loop.RunOne(); ++i) {
  }
  EXPECT_TRUE(done);
  EXPECT_EQ(net.ActiveFlowCount(), 0u);
}

TEST(FlowNetworkTest, StaleHandlesAreSafeNoOps) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId link = net.AddLink(100.0);
  bool done = false;
  FlowId f = net.StartFlow({link}, 200.0, 0.01, NoSlowStart(), [&] { done = true; });
  net.AbortFlow(f);
  net.AbortFlow(f);  // second abort: id is stale, must not touch a reused slot
  EXPECT_EQ(net.FlowRate(f), 0.0);
  // The freed slot is reused; the old id must not alias the new flow.
  FlowId g = net.StartFlow({link}, 200.0, 0.01, NoSlowStart(), [] {});
  net.AbortFlow(f);
  EXPECT_GT(net.FlowRate(g), 0.0);
  net.AbortFlow(0);  // id 0 is never issued
  loop.RunUntilIdle();
  EXPECT_FALSE(done);
  EXPECT_EQ(net.ActiveFlowCount(), 0u);
}

TEST(FlowNetworkTest, StatsCountAllocatorWork) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId link = net.AddLink(100.0);
  EXPECT_EQ(net.Stats().reallocs, 0u);
  net.StartFlow({link}, 100.0, 0.01, NoSlowStart(), [] {});
  net.StartFlow({link}, 250.0, 0.01, NoSlowStart(), [] {});
  FlowNetworkStats after_start = net.Stats();  // copy: Stats() is a live view
  EXPECT_EQ(after_start.reallocs, 2u);
  EXPECT_GE(after_start.flows_touched, 3u);  // 1 on first pass + 2 on second
  EXPECT_GE(after_start.links_touched, 2u);
  loop.RunUntilIdle();
  const FlowNetworkStats& done = net.Stats();
  EXPECT_GE(done.reallocs, after_start.reallocs + 2);  // two completions
  EXPECT_LE(done.full_reallocs, done.reallocs);
  EXPECT_EQ(done.no_progress, 0u);
}

TEST(FlowNetworkTest, LinkRateAggregateStaysExactThroughChurn) {
  EventLoop loop;
  FlowNetwork net(loop);
  LinkId shared = net.AddLink(100.0);
  LinkId side = net.AddLink(40.0);
  Rng rng(0xc0ffee);
  std::vector<FlowId> live;
  for (int round = 0; round < 200; ++round) {
    if (!live.empty() && rng.Chance(0.4)) {
      size_t pick = rng.NextBelow(live.size());
      net.AbortFlow(live[pick]);
      live.erase(live.begin() + static_cast<long>(pick));
    } else {
      std::vector<LinkId> path{shared};
      if (rng.Chance(0.5)) {
        path.push_back(side);
      }
      live.push_back(net.StartFlow(path, rng.Uniform(1e3, 1e6), 0.02,
                                   rng.Chance(0.5) ? TcpParams{} : NoSlowStart(), [] {}));
    }
    // O(1) aggregate must equal the sum over live flows crossing the link
    // (debug builds also assert this inside LinkRate).
    double sum_shared = 0.0;
    for (FlowId f : live) {
      sum_shared += net.FlowRate(f);
    }
    EXPECT_NEAR(net.LinkRate(shared), sum_shared, 1e-6 * std::max(1.0, sum_shared));
    EXPECT_LE(net.LinkRate(side), net.LinkCapacity(side) + 1e-6);
  }
  loop.RunUntilIdle();
  EXPECT_EQ(net.ActiveFlowCount(), 0u);
  EXPECT_EQ(net.LinkRate(shared), 0.0);
  EXPECT_EQ(net.LinkRate(side), 0.0);
}

// A saturated 48-flow slow-start star, the Large Object stage's shape: after
// a crowd's first pass sorts the cap order, later passes merge the few keys
// that changed. A silent fall-back to sorting every pass fails here.
// (Measured: 20 of 628 passes sort, one to three per crowd; the forced-full
// oracle sorts on every pass.)
TEST(FlowNetworkTest, SaturatedStarPassesMergeInsteadOfSorting) {
  auto run = [](bool force_full) {
    EventLoop loop;
    FlowNetwork net(loop);
    net.set_force_full_reallocate(force_full);
    Rng rng(0x57a2);
    LognormalDist rtt = LognormalDist::FromMedian(0.070, 0.55);  // the fleet's RTTs
    LinkId server = net.AddLink(50e6);
    std::vector<std::vector<LinkId>> paths;
    for (int c = 0; c < 48; ++c) {
      paths.push_back({server, net.AddLink(125e6)});
    }
    for (int wave = 0; wave < 8; ++wave) {
      for (const std::vector<LinkId>& path : paths) {
        net.StartFlow(path, 400e3, std::min(rtt.Sample(rng), 0.45), TcpParams{}, [] {});
      }
      loop.RunUntilIdle();
    }
    return net.Stats();
  };
  FlowNetworkStats fast = run(false);
  EXPECT_EQ(fast.full_reallocs, fast.reallocs);
  EXPECT_GT(fast.reallocs, 8u * 48u);
  EXPECT_GT(fast.order_rebuilds, 0u);
  EXPECT_LE(fast.order_rebuilds * 20, fast.reallocs);
  FlowNetworkStats oracle = run(true);
  EXPECT_EQ(oracle.order_rebuilds, oracle.reallocs);
}

// Every pass water-fills the whole live set, even when an event touches one
// of two disjoint stars: flows_touched grows by the live count, and every
// pass counts as full.
TEST(FlowNetworkTest, EveryPassCoversTheLiveSet) {
  EventLoop loop;
  FlowNetwork net(loop);
  std::vector<std::vector<LinkId>> star_a;
  std::vector<std::vector<LinkId>> star_b;
  LinkId server_a = net.AddLink(1000.0);
  LinkId server_b = net.AddLink(800.0);
  for (int c = 0; c < 3; ++c) {
    star_a.push_back({server_a, net.AddLink(600.0)});
    star_b.push_back({server_b, net.AddLink(600.0)});
  }
  // Uncapped flows saturate both server links, so no certificate applies
  // and every event runs a pass.
  for (int c = 0; c < 3; ++c) {
    net.StartFlow(star_a[c], 1e6, 0.01, NoSlowStart(), [] {});
    net.StartFlow(star_b[c], 1e6, 0.01, NoSlowStart(), [] {});
  }
  FlowNetworkStats before = net.Stats();
  FlowId extra = net.StartFlow(star_a[0], 1e6, 0.01, NoSlowStart(), [] {});
  FlowNetworkStats after = net.Stats();
  EXPECT_EQ(after.reallocs, before.reallocs + 1);
  EXPECT_EQ(after.flows_touched, before.flows_touched + net.ActiveFlowCount());
  net.AbortFlow(extra);
  EXPECT_EQ(net.Stats().flows_touched, after.flows_touched + net.ActiveFlowCount());
  EXPECT_EQ(net.Stats().full_reallocs, net.Stats().reallocs);
  EXPECT_NEAR(net.LinkRate(server_a), 1000.0, 1e-9);
  EXPECT_NEAR(net.LinkRate(server_b), 800.0, 1e-9);
}

// Property sweep: random flow sets never violate capacity, and max-min is
// work-conserving on the bottleneck.
class FlowConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(FlowConservationTest, CapacityNeverExceeded) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  EventLoop loop;
  FlowNetwork net(loop);
  std::vector<LinkId> links;
  size_t link_count = 3 + rng.NextBelow(4);
  for (size_t i = 0; i < link_count; ++i) {
    links.push_back(net.AddLink(rng.Uniform(10.0, 1000.0)));
  }
  std::vector<FlowId> flows;
  size_t flow_count = 2 + rng.NextBelow(20);
  for (size_t i = 0; i < flow_count; ++i) {
    std::vector<LinkId> path;
    path.push_back(links[rng.NextBelow(links.size())]);
    LinkId second = links[rng.NextBelow(links.size())];
    if (second != path[0]) {
      path.push_back(second);
    }
    flows.push_back(net.StartFlow(path, rng.Uniform(100.0, 10000.0), 0.01,
                                  rng.Chance(0.5) ? TcpParams{} : NoSlowStart(), [] {}));
  }
  for (size_t i = 0; i < links.size(); ++i) {
    EXPECT_LE(net.LinkRate(links[i]), net.LinkCapacity(links[i]) + 1e-6);
  }
  // Every flow makes progress.
  for (FlowId f : flows) {
    EXPECT_GT(net.FlowRate(f), 0.0);
  }
  loop.RunUntilIdle();
  EXPECT_EQ(net.ActiveFlowCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowConservationTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace mfc
