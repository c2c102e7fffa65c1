// The one survey driver: shared flag validation, the journal fingerprint
// rule, and the exit codes its finish returns.
#include "src/core/survey_session.h"

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/journal/shutdown.h"

namespace mfc {
namespace {

constexpr Cohort kCohort = Cohort::kStartup;
constexpr StageKind kStage = StageKind::kBase;
constexpr size_t kServers = 2;
constexpr size_t kMaxCrowd = 20;
constexpr uint64_t kSeed = 901;

std::string TempPath(const std::string& name) { return testing::TempDir() + name; }

// Parses |args| as a survey tool would and applies the shared rule set.
bool ParsesAndValidates(const std::vector<std::string>& args) {
  SurveyFlags flags;
  bool ok = true;
  for (const std::string& arg : args) {
    EXPECT_TRUE(ParseSurveyFlag(arg, &flags, &ok)) << arg;
  }
  return ok && ValidateSurveyFlags(flags);
}

TEST(SurveySessionTest, ParsesOnlyTheSharedFlagsInEqualsForm) {
  SurveyFlags flags;
  bool ok = true;
  EXPECT_TRUE(ParseSurveyFlag("--jobs=3", &flags, &ok));
  EXPECT_TRUE(ParseSurveyFlag("--journal=j.wal", &flags, &ok));
  EXPECT_TRUE(ParseSurveyFlag("--resume", &flags, &ok));
  EXPECT_TRUE(ok);
  EXPECT_EQ(flags.jobs, 3u);
  EXPECT_EQ(flags.journal_path, "j.wal");
  EXPECT_TRUE(flags.resume);
  // Space-separated values and tool-specific flags are not the session's.
  EXPECT_FALSE(ParseSurveyFlag("--jobs", &flags, &ok));
  EXPECT_FALSE(ParseSurveyFlag("--survey=4", &flags, &ok));
  EXPECT_TRUE(ok);
  EXPECT_TRUE(ParseSurveyFlag("--jobs=four", &flags, &ok));
  EXPECT_FALSE(ok);
  // strtod reads these, but no sampling period is NaN or infinite.
  for (const char* arg : {"--stats-interval=nan", "--stats-interval=inf"}) {
    ok = true;
    EXPECT_TRUE(ParseSurveyFlag(arg, &flags, &ok)) << arg;
    EXPECT_FALSE(ok) << arg;
  }
}

TEST(SurveySessionTest, ValidationRejectsPartialAndInconsistentRuns) {
  EXPECT_TRUE(ParsesAndValidates({"--shards=2", "--shard-index=1", "--journal=j.wal"}));
  // One shard's --json would read like the whole survey.
  EXPECT_FALSE(ParsesAndValidates(
      {"--shards=2", "--shard-index=0", "--journal=j.wal", "--json=r.json"}));
  EXPECT_FALSE(ParsesAndValidates({"--resume"}));
  EXPECT_FALSE(ParsesAndValidates({"--shards=2", "--shard-index=2", "--journal=j.wal"}));
  EXPECT_FALSE(ParsesAndValidates({"--shards=2", "--shard-index=1"}));
}

TEST(SurveySessionTest, FinishReturnsOkAfterACompleteRun) {
  SurveySession session("survey_session_test", SurveyFlags{});
  ASSERT_EQ(session.Open(), kExitOk);
  SurveyBreakdown breakdown;
  ASSERT_EQ(session.RunCohort(kCohort, kStage, kServers, kMaxCrowd, kSeed, &breakdown), kExitOk);
  EXPECT_EQ(breakdown, RunSurveyCohortParallel(kCohort, kStage, kServers, kMaxCrowd, kSeed, 1));
  EXPECT_EQ(session.Finish(), kExitOk);
}

TEST(SurveySessionTest, FinishReturnsOneWhenAnOutputCannotBeWritten) {
  SurveyFlags flags;
  flags.trace_path = TempPath("no_such_dir/trace.json");
  SurveySession session("survey_session_test", flags);
  ASSERT_EQ(session.Open(), kExitOk);
  SurveyBreakdown breakdown;
  ASSERT_EQ(session.RunCohort(kCohort, kStage, kServers, kMaxCrowd, kSeed, &breakdown), kExitOk);
  EXPECT_EQ(session.Finish(), kExitFailure);
}

TEST(SurveySessionTest, FinishReturns130AfterAShutdownRequest) {
  SurveyFlags flags;
  flags.journal_path = TempPath("session_shutdown.wal");
  remove(flags.journal_path.c_str());
  SurveySession session("survey_session_test", flags);
  ASSERT_EQ(session.Open(), kExitOk);
  RequestShutdown();
  SurveyBreakdown breakdown;
  // The cohort never starts: it stays out of the journal and the outputs.
  EXPECT_EQ(session.RunCohort(kCohort, kStage, kServers, kMaxCrowd, kSeed, &breakdown),
            kExitInterrupted);
  EXPECT_TRUE(session.Interrupted());
  EXPECT_EQ(session.Finish(), kExitInterrupted);
  EXPECT_TRUE(session.Journal()->Cohorts().empty());
  ClearShutdownRequest();
  remove(flags.journal_path.c_str());
}

// The journal header pins only telemetry on/off; the cohort record pins the
// seed, so resuming under another seed is a journal error (exit 3).
TEST(SurveySessionTest, ResumeUnderAnotherSeedIsAJournalError) {
  SurveyFlags flags;
  flags.journal_path = TempPath("session_seed.wal");
  remove(flags.journal_path.c_str());
  {
    SurveySession session("survey_session_test", flags);
    ASSERT_EQ(session.Open(), kExitOk);
    SurveyBreakdown breakdown;
    ASSERT_EQ(session.RunCohort(kCohort, kStage, kServers, kMaxCrowd, kSeed, &breakdown),
              kExitOk);
    ASSERT_EQ(session.Finish(), kExitOk);
  }
  flags.resume = true;
  SurveySession session("survey_session_test", flags);
  ASSERT_EQ(session.Open(), kExitOk);
  SurveyBreakdown breakdown;
  EXPECT_EQ(session.RunCohort(kCohort, kStage, kServers, kMaxCrowd, kSeed + 1, &breakdown),
            kExitJournal);
  remove(flags.journal_path.c_str());
}

// A journal write that fails (here the file-size limit, standing in for a
// full disk) is a sticky journal error: the survey finishes, Finish prints
// the error and returns 3 instead of reporting success with records
// missing. The limit is lowered in a forked child, so it binds that child
// only; the child ignores SIGXFSZ so the write fails with EFBIG instead.
TEST(SurveySessionTest, JournalWriteErrorFinishesWithExitThree) {
  SurveyFlags flags;
  flags.jobs = 1;
  flags.journal_path = TempPath("session_write_error.wal");
  remove(flags.journal_path.c_str());
  int err_pipe[2];
  ASSERT_EQ(pipe(err_pipe), 0);
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(err_pipe[0]);
    dup2(err_pipe[1], STDERR_FILENO);
    signal(SIGXFSZ, SIG_IGN);
    // Room for the header and the cohort record, not for a site record.
    const rlimit limit{1024, 1024};
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) {
      _exit(100);
    }
    SurveySession session("survey_session_test", flags);
    SurveyBreakdown breakdown;
    if (session.Open() != kExitOk ||
        session.RunCohort(kCohort, kStage, kServers, kMaxCrowd, kSeed, &breakdown) != kExitOk) {
      _exit(101);
    }
    _exit(session.Finish());
  }
  close(err_pipe[1]);
  std::string err;
  char buf[512];
  ssize_t n = 0;
  while ((n = read(err_pipe[0], buf, sizeof(buf))) > 0) {
    err.append(buf, static_cast<size_t>(n));
  }
  close(err_pipe[0]);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status)) << status;
  EXPECT_EQ(WEXITSTATUS(status), kExitJournal) << err;
  EXPECT_NE(err.find("journal error: cannot append to journal"), std::string::npos) << err;
  remove(flags.journal_path.c_str());
}

}  // namespace
}  // namespace mfc
