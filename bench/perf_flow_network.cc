// Perf microbench for the fluid-flow network allocator on the one topology
// the simulator builds: a star, one server access link over per-client
// access links, optionally through shared mid-path (POP) links, as
// WideAreaNetwork lays it out. Every survey site runs its own network, so
// every flow crosses the server link and every pass covers the live set.
// Emits BENCH_flow_network.json (events/sec + allocator recompute counters)
// so allocator changes stay auditable across PRs.
//
// The headline scenario (saturated_star) is the Large Object stage's shape:
// synchronized crowds of slow-start downloads through one server link, where
// most passes follow a single window doubling. churn_shared is the widest
// pass: 256 uncapped downloads churning on one bottleneck. slow_start_crowd
// churns slow-start downloads, and abort_churn aborts every other download
// on a star split over two POPs, one of them congested.
//
//   perf_flow_network [--repeats=N] [--scale=X] [--out=PATH]
#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bench/perf_util.h"
#include "src/net/flow_network.h"
#include "src/sim/distributions.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"

namespace {

struct ChurnSpec {
  size_t clients = 8;           // one access link each
  std::vector<double> pop_bps;  // POP links, clients spread round-robin; none if empty
  size_t downloads = 4;         // downloads per client
  double bytes_base = 50e3;
  bool slow_start = false;
  bool aborts = false;  // abort every odd download mid-flight
};

struct ChurnResult {
  uint64_t events = 0;
  mfc::FlowNetworkStats stats;
};

// One client's download chain: start -> complete -> think -> next download.
struct Client {
  mfc::EventLoop* loop;
  mfc::FlowNetwork* net;
  std::vector<mfc::LinkId> path;
  double bytes;
  double rtt;
  size_t left;
  bool slow_start;
  std::function<void()> start_next;  // stable address for rescheduling
};

ChurnResult RunChurn(const ChurnSpec& spec) {
  mfc::EventLoop loop;
  mfc::FlowNetwork net(loop);
  // 10 Mbps server access link, 2 Mbps client links: the server link is the
  // bottleneck once ~5 downloads overlap, as in the paper's Large Object
  // stage.
  mfc::LinkId server = net.AddLink(1.25e6);
  std::vector<mfc::LinkId> pops;
  for (double bps : spec.pop_bps) {
    pops.push_back(net.AddLink(bps));
  }
  std::vector<std::unique_ptr<Client>> clients;
  clients.reserve(spec.clients);
  for (size_t idx = 0; idx < spec.clients; ++idx) {
    auto client = std::make_unique<Client>();
    client->loop = &loop;
    client->net = &net;
    client->path.push_back(server);
    if (!pops.empty()) {
      client->path.push_back(pops[idx % pops.size()]);
    }
    client->path.push_back(net.AddLink(2.5e5));
    client->bytes = spec.bytes_base * (1.0 + 0.25 * static_cast<double>(idx % 5));
    client->rtt = 0.02 + 0.002 * static_cast<double>(idx % 7);
    client->left = spec.downloads;
    client->slow_start = spec.slow_start;
    Client* p = client.get();
    if (spec.aborts) {
      // Kill-timer pattern: independent downloads at fixed instants, every
      // odd one aborted mid-flight (chaining would double-advance when a
      // flow completes before its abort timer fires).
      double t0 = 0.01 * static_cast<double>(idx % 101);
      for (size_t k = 0; k < spec.downloads; ++k) {
        bool abort_it = k % 2 == 1;
        loop.ScheduleAt(t0 + 0.4 * static_cast<double>(k), [p, abort_it] {
          mfc::TcpParams tcp;
          tcp.slow_start = p->slow_start;
          mfc::FlowId id = p->net->StartFlow(p->path, p->bytes, p->rtt, tcp, [] {});
          if (abort_it) {
            mfc::FlowNetwork* net = p->net;
            p->loop->ScheduleAfter(0.08, [net, id] { net->AbortFlow(id); });
          }
        });
      }
    } else {
      client->start_next = [p] {
        if (p->left == 0) {
          return;
        }
        --p->left;
        mfc::TcpParams tcp;
        tcp.slow_start = p->slow_start;
        p->net->StartFlow(p->path, p->bytes, p->rtt, tcp,
                          [p] { p->loop->ScheduleAfter(0.005, p->start_next); });
      };
      // Staggered arrivals keep the flow set churning instead of phased.
      loop.ScheduleAfter(0.01 * static_cast<double>(idx % 101), p->start_next);
    }
    clients.push_back(std::move(client));
  }
  loop.RunUntilIdle();
  ChurnResult r;
  r.events = loop.ExecutedCount();
  r.stats = net.Stats();
  return r;
}

// Waves of 48 slow-start downloads that all start at one instant, each wave
// once the previous one has drained. Every path crosses the server link;
// client links are faster, so the server link is the bottleneck. Each wave
// draws fresh RTTs from the PlanetLab fleet's lognormal (median 70 ms), so
// windows double at scattered instants and most passes follow a single
// doubling, as on the Large Object stage.
ChurnResult RunStar(size_t waves) {
  constexpr size_t kClients = 48;
  // Most Large Object passes run on 32-128 MB/s server links (the stopping
  // crowd is about twice the capacity in MB/s). On a 12.5 MB/s link, 48
  // flows' fair share sits just above their first window's rate, so only
  // ~55% of passes would follow a doubling alone.
  constexpr double kServerBps = 50e6;
  constexpr double kBytes = 400e3;  // the stage's probe object
  mfc::EventLoop loop;
  mfc::FlowNetwork net(loop);
  mfc::Rng rng(0x57a2);
  mfc::LognormalDist rtt_dist = mfc::LognormalDist::FromMedian(0.070, 0.55);
  mfc::LinkId server = net.AddLink(kServerBps);
  std::vector<std::vector<mfc::LinkId>> paths;
  for (size_t c = 0; c < kClients; ++c) {
    paths.push_back({server, net.AddLink(2.5 * kServerBps)});
  }
  size_t waves_left = waves;
  size_t in_flight = 0;
  std::function<void()> start_wave = [&] {
    if (waves_left == 0) {
      return;
    }
    --waves_left;
    in_flight = kClients;
    for (size_t c = 0; c < kClients; ++c) {
      double rtt = std::min(rtt_dist.Sample(rng), 0.450);
      net.StartFlow(paths[c], kBytes, rtt, mfc::TcpParams{}, [&] {
        if (--in_flight == 0) {
          loop.ScheduleAfter(0.1, start_wave);
        }
      });
    }
  };
  loop.ScheduleAt(0.0, start_wave);
  loop.RunUntilIdle();
  ChurnResult r;
  r.events = loop.ExecutedCount();
  r.stats = net.Stats();
  return r;
}

mfc::PerfScenario Measure(const char* name, size_t repeats,
                          const std::function<ChurnResult()>& run) {
  mfc::PerfScenario s;
  s.name = name;
  ChurnResult r;
  for (size_t rep = 0; rep < repeats; ++rep) {
    mfc::PerfTimer timer;
    r = run();
    s.wall_seconds.push_back(timer.Seconds());
    assert(rep == 0 || r.events == s.items);
    s.items = r.events;
  }
  s.extras.emplace_back("reallocs", static_cast<double>(r.stats.reallocs));
  s.extras.emplace_back("skipped_reallocs", static_cast<double>(r.stats.skipped_reallocs));
  s.extras.emplace_back("full_reallocs", static_cast<double>(r.stats.full_reallocs));
  s.extras.emplace_back("flows_touched", static_cast<double>(r.stats.flows_touched));
  s.extras.emplace_back("links_touched", static_cast<double>(r.stats.links_touched));
  s.extras.emplace_back("no_progress", static_cast<double>(r.stats.no_progress));
  s.extras.emplace_back("order_rebuilds", static_cast<double>(r.stats.order_rebuilds));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  mfc::PerfArgs args{.out_path = "BENCH_flow_network.json"};
  if (!args.Parse(argc, argv)) {
    return 2;
  }
  auto scaled = [&args](size_t n) {
    return std::max<size_t>(1, static_cast<size_t>(static_cast<double>(n) * args.scale));
  };
  mfc::PerfReport report("flow_network");

  report.Add(Measure("saturated_star", args.repeats, [&] { return RunStar(scaled(200)); }));

  ChurnSpec shared;
  shared.clients = scaled(256);
  shared.downloads = 8;
  report.Add(Measure("churn_shared", args.repeats, [&] { return RunChurn(shared); }));

  ChurnSpec slow_start;
  slow_start.clients = 48;
  slow_start.downloads = scaled(96);
  slow_start.bytes_base = 400e3;
  slow_start.slow_start = true;
  report.Add(Measure("slow_start_crowd", args.repeats, [&] { return RunChurn(slow_start); }));

  ChurnSpec aborts;
  aborts.clients = 24;
  aborts.pop_bps = {8e5, 1e8};
  aborts.downloads = scaled(288);
  aborts.bytes_base = 25e3;
  aborts.aborts = true;
  report.Add(Measure("abort_churn", args.repeats, [&] { return RunChurn(aborts); }));

  return report.Finish(args.out_path);
}
