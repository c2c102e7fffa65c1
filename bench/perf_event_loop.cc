// Perf microbench for the EventLoop hot path: schedule/run churn,
// cancellation, same-instant FIFO storms and in-place timer re-arms.
// Emits BENCH_event_loop.json so later PRs can see scheduler regressions.
//
//   perf_event_loop [--repeats=N] [--scale=X] [--out=PATH]
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "bench/perf_util.h"
#include "src/sim/event_loop.h"

namespace {

// Schedule/run churn: a self-rescheduling cascade of timers, the shape the
// simulated testbed produces (every request schedules its own next step).
uint64_t RunChurn(size_t n_chains, size_t steps) {
  mfc::EventLoop loop;
  struct Chain {
    double period;
    size_t left;
    std::function<void()> step;  // stable address: rescheduled by reference
  };
  std::vector<std::unique_ptr<Chain>> chains;
  chains.reserve(n_chains);
  for (size_t c = 0; c < n_chains; ++c) {
    auto chain = std::make_unique<Chain>();
    // Stagger chains so the heap stays mixed rather than draining in bands.
    chain->period = 1e-3 * static_cast<double>(c % 97 + 1);
    chain->left = steps;
    Chain* p = chain.get();
    chain->step = [&loop, p] {
      if (p->left-- > 1) {
        loop.ScheduleAfter(p->period, p->step);
      }
    };
    loop.ScheduleAfter(p->period, p->step);
    chains.push_back(std::move(chain));
  }
  loop.RunUntilIdle();
  return loop.ExecutedCount();
}

// Cancel-heavy: schedule then cancel most events before they run — the
// testbed's kill-timer pattern (every download arms a timeout it usually
// cancels).
uint64_t RunCancelStorm(size_t n) {
  mfc::EventLoop loop;
  std::vector<mfc::EventId> ids;
  ids.reserve(n);
  uint64_t cancelled = 0;
  for (size_t round = 0; round < 8; ++round) {
    ids.clear();
    for (size_t i = 0; i < n; ++i) {
      ids.push_back(loop.ScheduleAfter(1.0 + 1e-6 * static_cast<double>(i), [] {}));
    }
    // Cancel 7 of every 8; survivors run below.
    for (size_t i = 0; i < n; ++i) {
      if (i % 8 != 0 && loop.Cancel(ids[i])) {
        ++cancelled;
      }
    }
    loop.RunUntilIdle();
  }
  return loop.ExecutedCount() + cancelled;
}

// Re-arm churn: a few components each keep one pending timer and re-key it
// on every event — the pattern of the processor-sharing CPU's and the flow
// network's single timers, which a survey moves about once per event.
uint64_t RunRearmTimers(size_t n_chains, size_t steps) {
  constexpr size_t kComponents = 4;
  mfc::EventLoop loop;
  std::array<mfc::EventId, kComponents> timers{};
  uint64_t rearms = 0;
  struct Chain {
    size_t index;
    size_t left;
    std::function<void()> step;  // stable address: rescheduled by reference
  };
  std::vector<std::unique_ptr<Chain>> chains;
  chains.reserve(n_chains);
  for (size_t c = 0; c < n_chains; ++c) {
    auto chain = std::make_unique<Chain>();
    chain->index = c;
    chain->left = steps;
    Chain* p = chain.get();
    chain->step = [&loop, &timers, &rearms, p] {
      // Moves the timer earlier or later; one that already fired is re-armed.
      size_t k = (p->index + p->left) % kComponents;
      double delay = 1e-3 * static_cast<double>((p->left * 7919 + p->index) % 50 + 1);
      mfc::EventId moved = timers[k] != 0 ? loop.Reschedule(timers[k], loop.Now() + delay) : 0;
      if (moved == 0) {
        moved = loop.ScheduleAfter(delay, [&timers, k] { timers[k] = 0; });
      }
      timers[k] = moved;
      ++rearms;
      if (p->left-- > 1) {
        loop.ScheduleAfter(1e-3 * static_cast<double>(p->index % 31 + 1), p->step);
      }
    };
    loop.ScheduleAfter(1e-3 * static_cast<double>(c % 31 + 1), p->step);
    chains.push_back(std::move(chain));
  }
  loop.RunUntilIdle();
  return loop.ExecutedCount() + rearms;
}

// Same-instant FIFO storm: many events at one timestamp exercise the seq
// tie-breaker.
uint64_t RunSameInstant(size_t n) {
  mfc::EventLoop loop;
  for (size_t round = 0; round < 16; ++round) {
    double t = static_cast<double>(round + 1);
    for (size_t i = 0; i < n; ++i) {
      loop.ScheduleAt(t, [] {});
    }
    loop.RunUntil(t);
  }
  return loop.ExecutedCount();
}

template <typename Fn>
mfc::PerfScenario Measure(const char* name, size_t repeats, Fn fn) {
  mfc::PerfScenario s;
  s.name = name;
  for (size_t r = 0; r < repeats; ++r) {
    mfc::PerfTimer timer;
    uint64_t items = fn();
    s.wall_seconds.push_back(timer.Seconds());
    assert(r == 0 || items == s.items);
    s.items = items;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  mfc::PerfArgs args = mfc::ParsePerfArgs(argc, argv, "BENCH_event_loop.json");
  if (!args.ok) {
    return 2;
  }
  auto scaled = [&args](size_t n) {
    return std::max<size_t>(1, static_cast<size_t>(static_cast<double>(n) * args.scale));
  };
  mfc::PerfReport report("event_loop");
  report.Add(Measure("churn_chains", args.repeats,
                     [&] { return RunChurn(scaled(512), scaled(400)); }));
  report.Add(Measure("cancel_storm", args.repeats,
                     [&] { return RunCancelStorm(scaled(20000)); }));
  report.Add(Measure("same_instant", args.repeats,
                     [&] { return RunSameInstant(scaled(10000)); }));
  report.Add(Measure("rearm_timers", args.repeats,
                     [&] { return RunRearmTimers(scaled(64), scaled(1000)); }));
  return report.Finish(args.out_path);
}
