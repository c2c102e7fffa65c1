#include "src/server/resources.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "src/sim/rng.h"

namespace mfc {
namespace {

constexpr double kWorkEpsilon = 1e-9;  // CpuResource's completion slack

// Reference processor-sharing CPU: the per-job-decrement model the
// virtual-clock CpuResource replaced. Every event decrements each job's
// remaining work at the old rate and rescans for the next completion, so it
// shares no arithmetic with the virtual clock. Jobs completing at one timer
// firing run in (remaining, submission) order, the order CpuResource
// promises; the old model left it to hash-map iteration.
class DecrementCpu {
 public:
  DecrementCpu(EventLoop& loop, size_t cores, double speed, const double* slowdown)
      : loop_(loop), cores_(cores), speed_(speed), slowdown_(slowdown) {}

  void Submit(double demand, std::function<void()> done) {
    Advance();
    jobs_.emplace(next_id_++, Job{std::max(demand, kWorkEpsilon), std::move(done)});
    ScheduleNext();
  }
  void Reschedule() {
    Advance();
    ScheduleNext();
  }

 private:
  struct Job {
    double remaining;
    std::function<void()> done;
  };

  void Advance() {
    double dt = loop_.Now() - last_;
    last_ = loop_.Now();
    for (auto& [id, job] : jobs_) {
      job.remaining = std::max(0.0, job.remaining - rate_ * dt);
    }
  }
  void ScheduleNext() {
    loop_.Cancel(timer_);
    timer_ = 0;
    rate_ = 0.0;
    if (jobs_.empty()) {
      return;
    }
    double share = std::min(1.0, static_cast<double>(cores_) / static_cast<double>(jobs_.size()));
    rate_ = speed_ * share / std::max(1.0, *slowdown_);
    double next = std::numeric_limits<double>::infinity();
    for (const auto& [id, job] : jobs_) {
      next = std::min(next, job.remaining);
    }
    timer_ = loop_.ScheduleAfter(next / rate_, [this] {
      timer_ = 0;
      OnTimer();
    });
  }
  void OnTimer() {
    Advance();
    std::vector<std::pair<std::pair<double, uint64_t>, std::function<void()>>> due;
    for (auto it = jobs_.begin(); it != jobs_.end();) {
      double r = it->second.remaining;
      if (r <= kWorkEpsilon || r / rate_ <= TimeQuantum(loop_.Now())) {
        due.push_back({{r, it->first}, std::move(it->second.done)});
        it = jobs_.erase(it);
      } else {
        ++it;
      }
    }
    std::sort(due.begin(), due.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    ScheduleNext();
    for (auto& job : due) {
      job.second();
    }
  }

  EventLoop& loop_;
  size_t cores_;
  double speed_;
  const double* slowdown_;
  std::map<uint64_t, Job> jobs_;
  uint64_t next_id_ = 0;
  SimTime last_ = kTimeZero;
  double rate_ = 0.0;
  EventId timer_ = 0;
};

// One seeded workload: job submissions (some in same-instant bursts, some
// with sub-epsilon demand) and slowdown changes, each applied with a
// Reschedule().
struct CpuScript {
  size_t cores = 1;
  double speed = 1.0;
  struct Step {
    SimTime at;
    double demand;    // < 0: a slowdown change instead of a job
    double slowdown;
  };
  std::vector<Step> steps;
};

CpuScript MakeCpuScript(uint64_t seed) {
  Rng rng(seed);
  CpuScript script;
  script.cores = static_cast<size_t>(rng.UniformInt(1, 4));
  const double speeds[] = {0.5, 1.0, 2.5};
  script.speed = speeds[rng.NextBelow(3)];
  SimTime t = 0.0;
  for (int i = 0; i < 300; ++i) {
    // Bursty arrivals: a third land at the same instant as the previous one,
    // and occasional gaps let the CPU drain and go idle.
    if (!rng.Chance(0.33)) {
      t += rng.Chance(0.05) ? rng.Uniform(0.5, 2.0) : rng.Uniform(0.0, 0.02);
    }
    if (rng.Chance(0.08)) {
      script.steps.push_back({t, -1.0, rng.Chance(0.3) ? 1.0 : rng.Uniform(1.0, 4.0)});
      continue;
    }
    double demand = rng.Chance(0.03) ? 0.0 : rng.Uniform(1e-4, 0.05);
    script.steps.push_back({t, demand, 0.0});
  }
  return script;
}

struct Completion {
  size_t job;
  SimTime at;
};

// Runs |script| against |cpu| (CpuResource or DecrementCpu) on |loop| and
// returns completions in callback order. When |work| is non-null it
// receives speed * integral of min(n, cores) / slowdown dt, measured from
// outside the model; |demand| receives the summed (slack-floored) demand.
template <typename Cpu>
std::vector<Completion> RunCpuScript(const CpuScript& script, EventLoop& loop, Cpu& cpu,
                                     double& slowdown, double* work = nullptr,
                                     double* demand = nullptr) {
  std::vector<Completion> done;
  size_t active = 0;
  SimTime last = 0.0;
  auto accrue = [&] {
    if (work != nullptr) {
      *work += script.speed * static_cast<double>(std::min(active, script.cores)) /
               slowdown * (loop.Now() - last);
    }
    last = loop.Now();
  };
  for (size_t i = 0; i < script.steps.size(); ++i) {
    const CpuScript::Step& step = script.steps[i];
    loop.ScheduleAt(step.at, [&, i, step] {
      accrue();
      if (step.demand < 0.0) {
        slowdown = step.slowdown;
        cpu.Reschedule();
        return;
      }
      ++active;
      if (demand != nullptr) {
        *demand += std::max(step.demand, kWorkEpsilon);
      }
      cpu.Submit(step.demand, [&, i] {
        accrue();
        --active;
        done.push_back({i, loop.Now()});
      });
    });
  }
  loop.RunUntilIdle();
  return done;
}

TEST(CpuResourceTest, SingleJobTakesItsDemand) {
  EventLoop loop;
  CpuResource cpu(loop, 1);
  SimTime done = 0.0;
  cpu.Submit(0.5, [&] { done = loop.Now(); });
  loop.RunUntilIdle();
  EXPECT_NEAR(done, 0.5, 1e-9);
}

TEST(CpuResourceTest, ProcessorSharingSlowsConcurrentJobs) {
  EventLoop loop;
  CpuResource cpu(loop, 1);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    cpu.Submit(0.1, [&] { done.push_back(loop.Now()); });
  }
  loop.RunUntilIdle();
  ASSERT_EQ(done.size(), 4u);
  // 4 equal jobs on 1 core all finish together at 4 * 0.1.
  for (SimTime t : done) {
    EXPECT_NEAR(t, 0.4, 1e-9);
  }
}

TEST(CpuResourceTest, MultipleCoresRunInParallel) {
  EventLoop loop;
  CpuResource cpu(loop, 4);
  std::vector<SimTime> done;
  for (int i = 0; i < 4; ++i) {
    cpu.Submit(0.1, [&] { done.push_back(loop.Now()); });
  }
  loop.RunUntilIdle();
  for (SimTime t : done) {
    EXPECT_NEAR(t, 0.1, 1e-9);
  }
}

TEST(CpuResourceTest, SpeedScalesService) {
  EventLoop loop;
  CpuResource cpu(loop, 1, 2.0);
  SimTime done = 0.0;
  cpu.Submit(0.5, [&] { done = loop.Now(); });
  loop.RunUntilIdle();
  EXPECT_NEAR(done, 0.25, 1e-9);
}

TEST(CpuResourceTest, ShorterJobFinishesFirstUnderPs) {
  EventLoop loop;
  CpuResource cpu(loop, 1);
  SimTime short_done = 0.0;
  SimTime long_done = 0.0;
  cpu.Submit(0.1, [&] { short_done = loop.Now(); });
  cpu.Submit(0.3, [&] { long_done = loop.Now(); });
  loop.RunUntilIdle();
  // Shared at 1/2 speed until short job ends at 0.2; long job then has 0.2
  // demand left at full speed -> 0.4 total.
  EXPECT_NEAR(short_done, 0.2, 1e-9);
  EXPECT_NEAR(long_done, 0.4, 1e-9);
}

TEST(CpuResourceTest, SlowdownProviderStretchesService) {
  EventLoop loop;
  CpuResource cpu(loop, 1);
  double slowdown = 1.0;
  cpu.SetSlowdownProvider([&] { return slowdown; });
  SimTime done = 0.0;
  slowdown = 4.0;
  cpu.Submit(0.1, [&] { done = loop.Now(); });
  loop.RunUntilIdle();
  EXPECT_NEAR(done, 0.4, 1e-9);
}

TEST(CpuResourceTest, RescheduleAppliesNewSlowdownMidJob) {
  EventLoop loop;
  CpuResource cpu(loop, 1);
  double slowdown = 1.0;
  cpu.SetSlowdownProvider([&] { return slowdown; });
  SimTime done = 0.0;
  cpu.Submit(1.0, [&] { done = loop.Now(); });
  loop.RunUntil(0.5);  // half the work done at full speed
  slowdown = 2.0;
  cpu.Reschedule();
  loop.RunUntilIdle();
  EXPECT_NEAR(done, 1.5, 1e-9);  // remaining 0.5 at half speed -> 1.0 more
}

TEST(CpuResourceTest, UtilizationReflectsLoad) {
  EventLoop loop;
  CpuResource cpu(loop, 2);
  EXPECT_DOUBLE_EQ(cpu.Utilization(), 0.0);
  cpu.Submit(1.0, [] {});
  EXPECT_DOUBLE_EQ(cpu.Utilization(), 0.5);
  cpu.Submit(1.0, [] {});
  cpu.Submit(1.0, [] {});
  EXPECT_DOUBLE_EQ(cpu.Utilization(), 1.0);
  EXPECT_EQ(cpu.ActiveJobs(), 3u);
}

TEST(CpuResourceTest, MatchesPerJobDecrementReference) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(seed);
    CpuScript script = MakeCpuScript(seed);

    EventLoop ref_loop;
    double ref_slowdown = 1.0;
    DecrementCpu ref(ref_loop, script.cores, script.speed, &ref_slowdown);
    std::vector<Completion> want = RunCpuScript(script, ref_loop, ref, ref_slowdown);

    EventLoop loop;
    double slowdown = 1.0;
    CpuResource cpu(loop, script.cores, script.speed);
    cpu.SetSlowdownProvider([&] { return slowdown; });
    std::vector<Completion> got = RunCpuScript(script, loop, cpu, slowdown);

    ASSERT_EQ(got.size(), want.size());
    for (size_t k = 0; k < got.size(); ++k) {
      ASSERT_EQ(got[k].job, want[k].job) << "completion " << k;
      EXPECT_NEAR(got[k].at, want[k].at, 1e-9 * want[k].at) << "job " << got[k].job;
    }
    EXPECT_EQ(cpu.ActiveJobs(), 0u);
  }
}

TEST(CpuResourceTest, ConservesWork) {
  for (uint64_t seed = 101; seed <= 140; ++seed) {
    SCOPED_TRACE(seed);
    CpuScript script = MakeCpuScript(seed);
    EventLoop loop;
    double slowdown = 1.0;
    CpuResource cpu(loop, script.cores, script.speed);
    cpu.SetSlowdownProvider([&] { return slowdown; });
    double work = 0.0;
    double demand = 0.0;
    std::vector<Completion> done = RunCpuScript(script, loop, cpu, slowdown, &work, &demand);
    // Every job completes; a completion may come early by the epsilon slack.
    double jobs = static_cast<double>(done.size());
    EXPECT_NEAR(work, demand, 1e-9 * demand + jobs * kWorkEpsilon);
  }
}

TEST(CpuResourceTest, IdenticalJobsAtOneInstantCompleteInSubmissionOrder) {
  for (size_t cores : {1, 2, 3}) {
    EventLoop loop;
    CpuResource cpu(loop, cores, 1.5);
    std::vector<int> order;
    std::vector<SimTime> times;
    // A job already in service puts the burst mid-busy-period, so the
    // virtual clock is not at zero when the burst arrives.
    cpu.Submit(0.3, [] {});
    loop.ScheduleAt(0.05, [&] {
      for (int i = 0; i < 7; ++i) {
        cpu.Submit(0.02, [&, i] {
          order.push_back(i);
          times.push_back(loop.Now());
        });
      }
    });
    loop.RunUntilIdle();
    ASSERT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6}));
    for (SimTime t : times) {
      EXPECT_EQ(t, times.front());
    }
  }
}

TEST(DiskResourceTest, BusySecondsEqualServiceOfABurst) {
  Rng rng(9);
  EventLoop loop;
  const double seek = 0.004;
  const double bw = 40e6;
  DiskResource disk(loop, seek, bw);
  double service = 0.0;
  for (int i = 0; i < 50; ++i) {
    double bytes = rng.Uniform(0.0, 2e6);
    service += seek + bytes / bw;
    disk.Submit(bytes, [] {});
  }
  loop.RunUntilIdle();
  EXPECT_NEAR(disk.BusySeconds(), service, 1e-9 * service);
  EXPECT_NEAR(loop.Now(), service, 1e-9 * service);  // back to back, never idle
  loop.RunUntil(loop.Now() + 5.0);
  EXPECT_NEAR(disk.BusySeconds(), service, 1e-9 * service);
}

TEST(DiskResourceTest, SingleOpSeekPlusTransfer) {
  EventLoop loop;
  DiskResource disk(loop, 0.005, 1e6);
  SimTime done = 0.0;
  disk.Submit(100e3, [&] { done = loop.Now(); });
  loop.RunUntilIdle();
  EXPECT_NEAR(done, 0.105, 1e-9);
}

TEST(DiskResourceTest, OpsAreFifoSerialized) {
  EventLoop loop;
  DiskResource disk(loop, 0.01, 1e6);
  std::vector<int> order;
  std::vector<SimTime> times;
  for (int i = 0; i < 3; ++i) {
    disk.Submit(10e3, [&, i] {
      order.push_back(i);
      times.push_back(loop.Now());
    });
  }
  EXPECT_EQ(disk.QueueDepth(), 3u);
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_NEAR(times[0], 0.02, 1e-9);
  EXPECT_NEAR(times[1], 0.04, 1e-9);
  EXPECT_NEAR(times[2], 0.06, 1e-9);
}

TEST(DiskResourceTest, BusySecondsAccumulate) {
  EventLoop loop;
  DiskResource disk(loop, 0.01, 1e6);
  disk.Submit(10e3, [] {});
  loop.RunUntilIdle();
  EXPECT_NEAR(disk.BusySeconds(), 0.02, 1e-9);
  loop.RunUntil(10.0);
  EXPECT_NEAR(disk.BusySeconds(), 0.02, 1e-9);  // idle time not counted
  disk.Submit(10e3, [] {});
  loop.RunUntilIdle();
  EXPECT_NEAR(disk.BusySeconds(), 0.04, 1e-9);
}

TEST(MemoryModelTest, NoSlowdownWithinRam) {
  MemoryModel mem(1e9, 200e6, 10.0);
  EXPECT_DOUBLE_EQ(mem.SlowdownFactor(), 1.0);
  mem.Allocate(700e6);
  EXPECT_DOUBLE_EQ(mem.SlowdownFactor(), 1.0);
  EXPECT_FALSE(mem.Swapping());
}

TEST(MemoryModelTest, OvercommitSlowsLinearly) {
  MemoryModel mem(1e9, 200e6, 10.0);
  mem.Allocate(1.0e9);  // used 1.2e9, 20% over
  EXPECT_TRUE(mem.Swapping());
  EXPECT_NEAR(mem.SlowdownFactor(), 1.0 + 10.0 * 0.2, 1e-9);
}

TEST(MemoryModelTest, FreeRestores) {
  MemoryModel mem(1e9, 200e6, 10.0);
  mem.Allocate(1.0e9);
  mem.Free(1.0e9);
  EXPECT_DOUBLE_EQ(mem.SlowdownFactor(), 1.0);
  EXPECT_DOUBLE_EQ(mem.UsedBytes(), 200e6);
}

TEST(MemoryModelTest, FreeClampsAtZero) {
  MemoryModel mem(1e9, 100e6, 10.0);
  mem.Free(5e9);
  EXPECT_DOUBLE_EQ(mem.UsedBytes(), 0.0);
}

}  // namespace
}  // namespace mfc
