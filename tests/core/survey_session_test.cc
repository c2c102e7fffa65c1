// The one survey driver: shared flag validation, the journal fingerprint
// rule, and the exit codes its finish returns.
#include "src/core/survey_session.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace mfc
