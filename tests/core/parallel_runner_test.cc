#include "src/core/parallel_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "src/core/survey.h"
#include "src/sim/rng.h"

namespace mfc {
namespace {

TEST(ParallelRunnerTest, RunsEveryIndexExactlyOnce) {
  ParallelRunner runner(4);
  std::vector<std::atomic<int>> hits(257);
  runner.RunIndexed(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelRunnerTest, ZeroTasksIsANoop) {
  ParallelRunner runner(4);
  runner.RunIndexed(0, [](size_t) { FAIL() << "no task should run"; });
}

TEST(ParallelRunnerTest, SingleJobRunsInlineInIndexOrder) {
  ParallelRunner runner(1);
  std::vector<size_t> order;
  runner.RunIndexed(16, [&](size_t i) { order.push_back(i); });
  std::vector<size_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);
}

// Cancellation stops claiming new indices; a single worker stops after
// exactly the tasks that ran before the cancel turned true.
TEST(ParallelRunnerTest, CancelStopsClaimingNewIndices) {
  ParallelRunner single(1);
  std::vector<size_t> order;
  size_t ran = single.RunIndexed(
      16, [&](size_t i) { order.push_back(i); }, [&] { return order.size() == 3; });
  EXPECT_EQ(ran, 3u);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2}));

  ParallelRunner pool(4);
  std::atomic<size_t> started{0};
  ran = pool.RunIndexed(
      64, [&](size_t) { started.fetch_add(1); }, [&] { return started.load() >= 8; });
  EXPECT_EQ(ran, started.load());
  EXPECT_GE(ran, 8u);
  EXPECT_LT(ran, 64u);
}

TEST(ParallelRunnerTest, ResolveJobsPrefersExplicitThenEnv) {
  EXPECT_EQ(ResolveJobs(3), 3u);
  setenv("MFC_JOBS", "5", 1);
  EXPECT_EQ(ResolveJobs(0), 5u);
  EXPECT_EQ(ResolveJobs(2), 2u);  // explicit wins over env
  setenv("MFC_JOBS", "not-a-number", 1);
  EXPECT_GE(ResolveJobs(0), 1u);  // garbage env falls back to hardware
  unsetenv("MFC_JOBS");
  EXPECT_GE(ResolveJobs(0), 1u);
}

// ThreadSanitizer-visible stress: 8 workers x 64 tasks, each owning a
// per-task RNG and writing only its own result slot. Any cross-task sharing
// or a worker racing the join would show up under -DMFC_SANITIZE=thread.
TEST(ParallelRunnerTest, StressPerTaskRngsAndSlotsAreRaceFree) {
  constexpr size_t kTasks = 64;
  ParallelRunner runner(8);
  std::vector<uint64_t> parallel_sums(kTasks, 0);
  runner.RunIndexed(kTasks, [&](size_t i) {
    Rng rng(static_cast<uint64_t>(i) * 1000 + 17);
    uint64_t sum = 0;
    for (int draw = 0; draw < 1000; ++draw) {
      sum += rng.NextBelow(1 << 20);
    }
    parallel_sums[i] = sum;
  });
  // Same work sequentially must land in the same slots with the same values.
  for (size_t i = 0; i < kTasks; ++i) {
    Rng rng(static_cast<uint64_t>(i) * 1000 + 17);
    uint64_t sum = 0;
    for (int draw = 0; draw < 1000; ++draw) {
      sum += rng.NextBelow(1 << 20);
    }
    EXPECT_EQ(parallel_sums[i], sum) << "slot " << i;
  }
}

// Determinism contract of the survey runner: jobs=1 (the historical
// sequential path) and jobs=4 must produce an identical SurveyBreakdown and
// identical per-site stopping sizes.
TEST(ParallelRunnerTest, SurveyCohortIsBitIdenticalAcrossJobCounts) {
  constexpr size_t kServers = 10;
  std::vector<ExperimentResult> seq_results;
  SurveyBreakdown seq = RunSurveyCohortParallel(Cohort::kRank100KTo1M, StageKind::kBase,
                                                kServers, 40, 12345, 1, &seq_results);
  std::vector<ExperimentResult> par_results;
  SurveyBreakdown par = RunSurveyCohortParallel(Cohort::kRank100KTo1M, StageKind::kBase,
                                                kServers, 40, 12345, 4, &par_results);
  EXPECT_EQ(seq, par);
  ASSERT_EQ(seq_results.size(), kServers);
  ASSERT_EQ(par_results.size(), kServers);
  for (size_t i = 0; i < kServers; ++i) {
    ASSERT_EQ(seq_results[i].aborted, par_results[i].aborted) << "site " << i;
    ASSERT_EQ(seq_results[i].stages.size(), par_results[i].stages.size()) << "site " << i;
    for (size_t s = 0; s < seq_results[i].stages.size(); ++s) {
      const StageResult& a = seq_results[i].stages[s];
      const StageResult& b = par_results[i].stages[s];
      EXPECT_EQ(a.stopped, b.stopped) << "site " << i;
      EXPECT_EQ(a.stopping_crowd_size, b.stopping_crowd_size) << "site " << i;
      EXPECT_EQ(a.max_crowd_tested, b.max_crowd_tested) << "site " << i;
      EXPECT_EQ(a.total_requests, b.total_requests) << "site " << i;
      EXPECT_EQ(a.epochs.size(), b.epochs.size()) << "site " << i;
    }
  }
}

// Runs a three-site Base survey with MFC_CRASH_SITE set to |value| and exits
// with status 0 if it returns.
void SurveyWithCrashSite(const char* value) {
  setenv("MFC_CRASH_SITE", value, 1);
  RunSurveyCohortParallel(Cohort::kRank100KTo1M, StageKind::kBase, 3, 20, 12345, 1);
  exit(0);
}

// The chaos gate's crash hook crashes only the site it names. A value that
// is not a site index, such as an empty or non-numeric one, must not read as
// site 0: it warns and crashes nothing.
TEST(SurveyCrashHookDeathTest, MalformedCrashSiteCrashesNoSite) {
  for (const char* value : {"", "abc", "-1", "1x"}) {
    EXPECT_EXIT(SurveyWithCrashSite(value), testing::ExitedWithCode(0),
                "MFC_CRASH_SITE=\"" + std::string(value) + "\" is not a site index")
        << "MFC_CRASH_SITE='" << value << "'";
  }
  EXPECT_DEATH(SurveyWithCrashSite("1"), "crashing on site index 1");
}

}  // namespace
}  // namespace mfc
