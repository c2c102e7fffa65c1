// One survey driver (DESIGN.md §6). Every Section 5 result — Figs 7-9 and
// Tables 4-5 — comes from one procedure: run one MFC stage on the sites of a
// cohort and bucket the stopping crowd sizes. The survey benches and
// `mfc_profile --survey` differ only in their cohort lists and output
// formats; everything between "parse the command line" and "exit" lives
// here once:
//
//   --jobs=N          worker threads (default: MFC_JOBS env, then hardware)
//   --shards=K        split every cohort K ways by interleaved site index;
//   --shard-index=J   this process runs the global sites i % K == J
//   --json=<path>     the tool's machine-readable report (tool-specific)
//   --trace=<path>    merged Chrome trace of every site's spans
//   --metrics=<path>  merged metrics CSV
//   --journal=<path>  write-ahead journal (DESIGN.md §9): every completed
//                     site is appended at once and fsynced in groups;
//                     SIGINT/SIGTERM drain the in-flight sites and exit 130
//                     with a resume hint
//   --resume          replay journaled sites, execute only the remainder
//   --stats-stream=<path>  runtime health snapshots as JSONL ('-' = stdout)
//   --stats-interval=<S>   snapshot cadence in wall-clock seconds
//
// Exit codes (the README table): 0 success, 1 aborted run or output write
// failure, 2 usage error, 3 journal or merge error, 130 interrupted. The
// session returns them; nothing here calls exit(). The shard supervisor
// relies on the split: 2 and 3 are permanent (the same argv fails the same
// way), everything else is retryable.
#ifndef MFC_SRC_CORE_SURVEY_SESSION_H_
#define MFC_SRC_CORE_SURVEY_SESSION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/journal/journal.h"
#include "src/core/survey.h"
#include "src/telemetry/stats_stream.h"

namespace mfc {

enum ExitCode : int {
  kExitOk = 0,
  kExitFailure = 1,  // aborted experiment or output write failure
  kExitUsage = 2,
  kExitJournal = 3,
  kExitInterrupted = 130,
};

struct SurveyFlags {
  size_t jobs = 0;         // 0 = MFC_JOBS env / hardware default
  size_t shards = 1;
  size_t shard_index = 0;
  std::string json_path;
  std::string trace_path;    // empty = tracing off
  std::string metrics_path;  // empty = metrics off
  std::string journal_path;  // empty = no journal
  bool resume = false;
  std::string stats_stream_path;  // empty = no JSONL health feed
  double stats_interval = 1.0;
};

// Consumes |arg| when it is one of the shared flags above and returns true;
// returns false for any other argument. A value that does not parse prints
// an error and clears |*ok|.
bool ParseSurveyFlag(const std::string& arg, SurveyFlags* flags, bool* ok);

// The rule set for runs that execute experiments: --resume needs --journal,
// --shard-index must be below --shards, and a sharded run needs --journal
// (shards are merged from journals) and refuses --json (one shard's report
// would read like the whole survey). Prints every violation; true when none.
bool ValidateSurveyFlags(const SurveyFlags& flags);

// Atomic write (temp file + rename), reported as "wrote <path>" on stdout or
// "cannot write <path>" on stderr.
bool WriteOutputFile(const std::string& path, const std::string& contents);

// Opens (or, with |resume|, reopens) the journal at |path|, printing the
// error or the corruption-recovery warning. Null on error.
std::unique_ptr<SurveyJournal> OpenJournal(const std::string& path, const std::string& tool,
                                           const std::string& fingerprint, bool resume);

// One survey run: Open, one RunCohort per cohort, Finish.
class SurveySession {
 public:
  // |tool| names the journal's producer; a resume must come from the same.
  SurveySession(std::string tool, const SurveyFlags& flags);

  SurveySession(const SurveySession&) = delete;
  SurveySession& operator=(const SurveySession&) = delete;

  // Opens the stats stream, the progress line and the journal, and installs
  // the shutdown handlers when journaling. The journal header pins only what
  // cohort records do not — trace and metrics on/off — so --jobs and output
  // paths may change across a resume. Returns kExitOk, kExitUsage (stats
  // stream) or kExitJournal.
  int Open();

  // Runs one cohort: BeginCohort, then RunSurveyCohortParallel with the
  // session's jobs, shard, telemetry and journal. Returns kExitOk with
  // |*breakdown| filled, kExitInterrupted when a shutdown signal arrived
  // before the cohort started (it is skipped entirely), or kExitJournal when
  // the journal refuses the cohort.
  int RunCohort(Cohort cohort, StageKind stage, size_t servers, size_t max_crowd, uint64_t seed,
                SurveyBreakdown* breakdown, std::vector<ExperimentResult>* per_site = nullptr);

  // Syncs the journal, prints one resume hint when interrupted and the
  // flow_network.no_progress warning, and writes --trace/--metrics. Returns
  // kExitJournal when a journal write or fsync failed (the error is
  // printed), else kExitFailure when an output write failed, else
  // kExitInterrupted when interrupted, else kExitOk.
  int Finish();

  size_t Jobs() const { return jobs_; }
  // Null without --journal.
  const SurveyJournal* Journal() const { return journal_.get(); }
  bool Interrupted() const { return interrupted_; }
  // The merged metrics of every cohort run so far; null without --metrics.
  const MetricsRegistry* Metrics() const {
    return telemetry_.collect_metrics ? &telemetry_.metrics : nullptr;
  }

 private:
  std::string tool_;
  SurveyFlags flags_;
  size_t jobs_;
  SurveyRunOptions run_;
  SurveyTelemetry telemetry_;
  std::unique_ptr<StatsStream> stats_;
  ProgressLine progress_line_;
  std::unique_ptr<SurveyJournal> journal_;
  bool interrupted_ = false;
};

}  // namespace mfc

#endif  // MFC_SRC_CORE_SURVEY_SESSION_H_
