// Survey supervisor (DESIGN.md §14): exit classification, jittered backoff,
// crash-suspect derivation, quarantine streak bookkeeping, and the process
// state machine driven end-to-end with /bin/sh stand-in workers.
#include "src/core/supervisor.h"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/core/journal/shutdown.h"

namespace mfc {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + name; }

// Real waitpid() statuses, not hand-assembled bit patterns.
int StatusOfExit(int code) {
  pid_t pid = fork();
  if (pid == 0) {
    _exit(code);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

int StatusOfSignal(int sig) {
  pid_t pid = fork();
  if (pid == 0) {
    signal(sig, SIG_DFL);
    raise(sig);
    _exit(0);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  return status;
}

TEST(WorkerExitTest, ClassifiesTheExitCodeContract) {
  EXPECT_EQ(ClassifyWorkerExit(StatusOfExit(0)), WorkerExitClass::kSuccess);
  // Usage (2), journal/merge (3), exec failure (127): same argv would fail
  // the same way, so restarting is pointless.
  EXPECT_EQ(ClassifyWorkerExit(StatusOfExit(2)), WorkerExitClass::kPermanent);
  EXPECT_EQ(ClassifyWorkerExit(StatusOfExit(3)), WorkerExitClass::kPermanent);
  EXPECT_EQ(ClassifyWorkerExit(StatusOfExit(127)), WorkerExitClass::kPermanent);
  EXPECT_EQ(ClassifyWorkerExit(StatusOfExit(130)), WorkerExitClass::kInterrupted);
  EXPECT_EQ(ClassifyWorkerExit(StatusOfExit(1)), WorkerExitClass::kRetryable);
  EXPECT_EQ(ClassifyWorkerExit(StatusOfSignal(SIGKILL)), WorkerExitClass::kRetryable);
  EXPECT_EQ(ClassifyWorkerExit(StatusOfSignal(SIGSEGV)), WorkerExitClass::kRetryable);
}

TEST(WorkerExitTest, DescribesExitsForLogsAndSignatures) {
  EXPECT_EQ(DescribeWorkerExit(StatusOfExit(3)), "exit 3");
  std::string sig = DescribeWorkerExit(StatusOfSignal(SIGKILL));
  EXPECT_NE(sig.find("signal 9"), std::string::npos) << sig;
}

TEST(SupervisorBackoffTest, JitterIsBoundedAndDeterministic) {
  RetryPolicy policy;
  for (size_t attempt = 1; attempt <= 6; ++attempt) {
    for (size_t shard = 0; shard < 4; ++shard) {
      double base = policy.BackoffFor(attempt);
      double d = SupervisorBackoffSeconds(policy, attempt, 42, shard);
      EXPECT_GE(d, 0.5 * base) << attempt << "/" << shard;
      EXPECT_LT(d, 1.5 * base) << attempt << "/" << shard;
      // Deterministic: tests and reruns can pin the exact schedule.
      EXPECT_EQ(d, SupervisorBackoffSeconds(policy, attempt, 42, shard));
    }
  }
  // Shards spread out instead of thundering back in lockstep.
  EXPECT_NE(SupervisorBackoffSeconds(policy, 1, 42, 0),
            SupervisorBackoffSeconds(policy, 1, 42, 1));
}

JournalFileData ShardJournal(size_t servers, size_t shards, size_t shard_index) {
  JournalFileData data;
  JournalCohortRecord cohort;
  cohort.ordinal = 0;
  cohort.servers = servers;
  cohort.shards = shards;
  cohort.shard_index = shard_index;
  data.cohorts.push_back(cohort);
  return data;
}

TEST(NextPendingSiteTest, LowestUnjournaledUnquarantinedOfTheShard) {
  // Shard 1 of 2 over 6 servers owns global sites {1, 3, 5}.
  JournalFileData data = ShardJournal(6, 2, 1);
  EXPECT_EQ(NextPendingSite(data), (std::pair<size_t, size_t>{0, 1}));
  data.sites[{0, 1}] = JournalSiteRecord{};
  EXPECT_EQ(NextPendingSite(data), (std::pair<size_t, size_t>{0, 3}));
  JournalQuarantineRecord q;
  q.cohort_ordinal = 0;
  q.site_index = 3;
  data.quarantines[{0, 3}] = q;
  EXPECT_EQ(NextPendingSite(data), (std::pair<size_t, size_t>{0, 5}));
  data.sites[{0, 5}] = JournalSiteRecord{};
  EXPECT_EQ(NextPendingSite(data), std::nullopt);
  // No cohort record at all: startup crash, nothing to blame.
  EXPECT_EQ(NextPendingSite(JournalFileData{}), std::nullopt);
}

TEST(QuarantineTrackerTest, BlamesOnlyRepeatedNoProgressCrashes) {
  QuarantineTracker tracker(2, 3);
  std::pair<size_t, size_t> site{0, 5};
  EXPECT_FALSE(tracker.ObserveCrash(0, site, 4));
  EXPECT_FALSE(tracker.ObserveCrash(0, site, 4));
  EXPECT_TRUE(tracker.ObserveCrash(0, site, 4));  // third strike
  EXPECT_EQ(tracker.Blames(0), 3u);
  tracker.Reset(0);
  EXPECT_EQ(tracker.Blames(0), 0u);

  // Journal progress between crashes exonerates the suspect.
  EXPECT_FALSE(tracker.ObserveCrash(0, site, 4));
  EXPECT_FALSE(tracker.ObserveCrash(0, site, 5));
  EXPECT_FALSE(tracker.ObserveCrash(0, site, 5));
  EXPECT_TRUE(tracker.ObserveCrash(0, site, 5));

  // A different suspect starts a fresh streak; shards are independent.
  tracker.Reset(0);
  EXPECT_FALSE(tracker.ObserveCrash(0, site, 7));
  EXPECT_FALSE(tracker.ObserveCrash(0, std::pair<size_t, size_t>{0, 7}, 7));
  EXPECT_FALSE(tracker.ObserveCrash(1, site, 7));
  EXPECT_EQ(tracker.Blames(0), 1u);
  EXPECT_EQ(tracker.Blames(1), 1u);

  // A crash with no suspect (startup death) clears the streak entirely.
  EXPECT_FALSE(tracker.ObserveCrash(0, std::nullopt, 7));
  EXPECT_EQ(tracker.Blames(0), 0u);
}

// ---- end-to-end state machine with /bin/sh workers ------------------------

SupervisorOptions ShellOptions(size_t shards, std::string script) {
  SupervisorOptions opt;
  opt.shards = shards;
  opt.command = [script](size_t shard, bool /*sequential*/) {
    return std::vector<std::string>{"/bin/sh", "-c", script,
                                    "worker" + std::to_string(shard)};
  };
  for (size_t j = 0; j < shards; ++j) {
    opt.journal_paths.push_back(TempPath("sup_none_" + std::to_string(j) + ".jsonl"));
  }
  // Keep the test fast: millisecond backoffs, tight polling, quiet logs.
  opt.retry.initial_backoff = 0.001;
  opt.retry.max_backoff = 0.01;
  opt.poll_interval = 0.005;
  opt.log = nullptr;
  return opt;
}

TEST(SurveySupervisorTest, AllWorkersSucceeding) {
  SurveySupervisor supervisor(ShellOptions(3, "exit 0"));
  SupervisorResult result = supervisor.Run();
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.restarts, 0u);
  for (const SupervisorShardStatus& shard : result.shards) {
    EXPECT_TRUE(shard.completed);
    EXPECT_EQ(shard.launches, 1u);
  }
}

TEST(SurveySupervisorTest, RetryableCrashIsRestartedUntilSuccess) {
  // Each worker fails its first run, then succeeds once its marker exists.
  for (size_t j = 0; j < 2; ++j) {
    remove(TempPath("sup_marker_worker" + std::to_string(j)).c_str());
  }
  SupervisorOptions opt = ShellOptions(2, "exit 1");
  opt.command = [](size_t shard, bool /*sequential*/) {
    std::string marker = TempPath("sup_marker_worker" + std::to_string(shard));
    return std::vector<std::string>{
        "/bin/sh", "-c",
        "[ -f " + marker + " ] && exit 0; touch " + marker + "; exit 1"};
  };
  SurveySupervisor supervisor(std::move(opt));
  SupervisorResult result = supervisor.Run();
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.restarts, 2u);
  for (size_t j = 0; j < 2; ++j) {
    EXPECT_EQ(result.shards[j].launches, 2u);
    EXPECT_EQ(result.shards[j].crashes, 1u);
    remove(TempPath("sup_marker_worker" + std::to_string(j)).c_str());
  }
}

TEST(SurveySupervisorTest, PermanentExitCodeIsNeverRestarted) {
  SurveySupervisor supervisor(ShellOptions(2, "exit 3"));
  SupervisorResult result = supervisor.Run();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.interrupted);
  EXPECT_NE(result.error.find("permanent"), std::string::npos) << result.error;
  for (const SupervisorShardStatus& shard : result.shards) {
    EXPECT_EQ(shard.launches, 1u);  // no restart on exit 3
  }
}

TEST(SurveySupervisorTest, CrashLoopWithoutProgressGivesUpAfterMaxAttempts) {
  SupervisorOptions opt = ShellOptions(1, "exit 1");
  opt.retry.max_attempts = 3;
  SurveySupervisor supervisor(std::move(opt));
  SupervisorResult result = supervisor.Run();
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("without progress"), std::string::npos) << result.error;
  EXPECT_EQ(result.shards[0].launches, 3u);
}

TEST(SurveySupervisorTest, HungWorkerIsKilledAndCounted) {
  SupervisorOptions opt = ShellOptions(1, "sleep 30");
  opt.hang_timeout = 0.15;
  opt.retry.max_attempts = 2;
  SurveySupervisor supervisor(std::move(opt));
  SupervisorResult result = supervisor.Run();
  EXPECT_FALSE(result.ok);
  EXPECT_GE(result.hang_kills, 2u);
  EXPECT_NE(result.error.find("hung"), std::string::npos) << result.error;
}

// A fresh one-shard journal (header + cohort record over |servers| sites), so
// crashes have a suspect: site 0.
std::string JournalWithCohort(const std::string& name, size_t servers) {
  std::string path = TempPath(name);
  remove(path.c_str());
  std::string error;
  auto journal = SurveyJournal::Open(path, "supervisor_test", "fp", false, &error);
  EXPECT_NE(journal, nullptr) << error;
  EXPECT_TRUE(journal->BeginCohort(Cohort::kStartup, StageKind::kBase, servers, 10, 1, 0,
                                   &error))
      << error;
  return path;
}

TEST(SurveySupervisorTest, AmbiguousCrashNeverQuarantines) {
  // A parallel worker dies with no journal progress: the crash may belong to
  // any site in flight, not the suspect (site 0). Even with a one-strike
  // quarantine policy that must not quarantine site 0 — the shard reruns
  // sequentially instead, and here that run completes.
  SupervisorOptions opt = ShellOptions(1, "");
  opt.journal_paths = {JournalWithCohort("sup_ambiguous.jsonl", 4)};
  opt.quarantine_after = 1;
  opt.command = [](size_t, bool sequential) {
    return std::vector<std::string>{"/bin/sh", "-c", sequential ? "exit 0" : "exit 1"};
  };
  SurveySupervisor supervisor(std::move(opt));
  SupervisorResult result = supervisor.Run();
  EXPECT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.quarantines.empty());
  EXPECT_EQ(result.shards[0].launches, 2u);  // the second one sequential
}

TEST(SurveySupervisorTest, SequentialCrashesQuarantineTheSuspect) {
  // Every attempt crashes until site 0 is quarantined. The first (parallel)
  // crash blames nobody; the next two run sequentially and blame site 0
  // exactly, which quarantines it at quarantine_after=2; the shard then
  // returns to parallel and completes.
  SupervisorOptions opt = ShellOptions(1, "");
  std::string journal = JournalWithCohort("sup_poisoned.jsonl", 4);
  opt.journal_paths = {journal};
  opt.quarantine_after = 2;
  opt.command = [journal](size_t, bool) {
    return std::vector<std::string>{
        "/bin/sh", "-c", "grep -q '\"quarantine\"' " + journal + " && exit 0; exit 1"};
  };
  SurveySupervisor supervisor(std::move(opt));
  SupervisorResult result = supervisor.Run();
  EXPECT_TRUE(result.ok) << result.error;
  ASSERT_EQ(result.quarantines.size(), 1u);
  EXPECT_EQ(result.quarantines[0].site_index, 0u);
  EXPECT_EQ(result.quarantines[0].crashes, 2u);
  EXPECT_EQ(result.shards[0].launches, 4u);
}

TEST(SurveySupervisorTest, ShutdownSignalDrainsTheFleet) {
  SupervisorOptions opt = ShellOptions(2, "sleep 30");
  SurveySupervisor supervisor(std::move(opt));
  // Run() installs handlers and clears the flag, so raise the request from a
  // helper thread once the workers are up.
  std::thread interrupter([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    RequestShutdown();
  });
  SupervisorResult result = supervisor.Run();
  interrupter.join();
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.interrupted);
  for (const SupervisorShardStatus& shard : result.shards) {
    EXPECT_FALSE(shard.completed);
  }
}

}  // namespace
}  // namespace mfc
