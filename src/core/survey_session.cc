#include "src/core/survey_session.h"

#include <cstdio>
#include <utility>

#include "src/core/export.h"
#include "src/core/journal/shutdown.h"
#include "src/core/parallel_runner.h"

namespace mfc {

void AddSurveyFlags(FlagTable& table, SurveyFlags* flags) {
  constexpr FlagTable::Modes kRuns = kSingleMode | kSurveyMode | kSuperviseMode;
  constexpr FlagTable::Modes kShards = kSurveyMode | kSampleMode;
  table.Add("--jobs=<N>", &flags->jobs, "worker threads (default: MFC_JOBS env, then cores)",
            kSurveyMode | kSuperviseMode);
  table.Add("--shards=<K>", &flags->shards,
            "split the survey K ways by site index (a run needs --journal)",
            kShards | kSuperviseMode);
  table.Add("--shard-index=<J>", &flags->shard_index,
            "run the sites with index % K == J (default 0)", kShards);
  table.Add("--json=<path>", &flags->json_path, "write the report as JSON", kRuns | kMergeMode);
  table.Add("--trace=<path>", &flags->trace_path,
            "write request/coordinator spans as Chrome trace JSON", kRuns | kMergeMode);
  table.Add("--metrics=<path>", &flags->metrics_path, "write the merged metrics registry as CSV",
            kRuns | kMergeMode);
  table.Add("--journal=<path>", &flags->journal_path,
            "write-ahead journal of finished experiments; SIGINT/SIGTERM drain", kRuns);
  table.Add("--resume", &flags->resume, "replay the experiments --journal already holds",
            kSingleMode | kSurveyMode);
  table.Add("--stats-stream=<path>", &flags->stats_stream_path,
            "stream runtime health snapshots as JSONL ('-' = stdout)", kRuns);
  table.Add("--stats-interval=<S>", &flags->stats_interval,
            "snapshot cadence in seconds (default 1)", kRuns);
}

bool ValidateSurveyFlags(const SurveyFlags& flags) {
  bool ok = true;
  if (flags.resume && flags.journal_path.empty()) {
    fprintf(stderr, "--resume requires --journal=<path>\n");
    ok = false;
  }
  if (flags.shard_index >= flags.shards) {
    fprintf(stderr, "--shard-index=%zu out of range for --shards=%zu\n", flags.shard_index,
            flags.shards);
    ok = false;
  }
  if (flags.shards > 1 && flags.journal_path.empty()) {
    fprintf(stderr, "--shards requires --journal=<path> (shards are merged from journals)\n");
    ok = false;
  }
  if (flags.shards > 1 && !flags.json_path.empty()) {
    fprintf(stderr,
            "--json with --shards > 1 would be a partial report; merge the finished shard "
            "journals with mfc_profile --merge instead\n");
    ok = false;
  }
  return ok;
}

bool WriteOutputFile(const std::string& path, const std::string& contents) {
  if (!WriteFileAtomic(path, contents)) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  printf("wrote %s\n", path.c_str());
  return true;
}

std::unique_ptr<SurveyJournal> OpenJournal(const std::string& path, const std::string& tool,
                                           const std::string& fingerprint, bool resume) {
  std::string error;
  std::unique_ptr<SurveyJournal> journal =
      SurveyJournal::Open(path, tool, fingerprint, resume, &error);
  if (journal == nullptr) {
    fprintf(stderr, "journal error: %s\n", error.c_str());
    return nullptr;
  }
  if (!journal->Warning().empty()) {
    fprintf(stderr, "journal warning: %s\n", journal->Warning().c_str());
  }
  return journal;
}

SurveySession::SurveySession(std::string tool, const SurveyFlags& flags)
    : tool_(std::move(tool)), flags_(flags), jobs_(ResolveJobs(flags.jobs)) {
  run_.shards = flags.shards;
  run_.shard_index = flags.shard_index;
  telemetry_.collect_trace = !flags.trace_path.empty();
  telemetry_.collect_metrics = !flags.metrics_path.empty();
  telemetry_.stats_interval = flags.stats_interval;
}

int SurveySession::Open() {
  // Health plane: a rate-limited terminal line and/or the --stats-stream
  // JSONL feed report survey progress.
  if (!flags_.stats_stream_path.empty()) {
    std::string error;
    stats_ = StatsStream::Open(flags_.stats_stream_path, &error);
    if (stats_ == nullptr) {
      fprintf(stderr, "%s\n", error.c_str());
      return kExitUsage;
    }
    telemetry_.stats = stats_.get();
  }
  if (progress_line_.Enabled()) {
    telemetry_.progress_line = &progress_line_;
  }
  if (!flags_.journal_path.empty()) {
    char fingerprint[32];
    snprintf(fingerprint, sizeof(fingerprint), "trace=%d;metrics=%d",
             telemetry_.collect_trace ? 1 : 0, telemetry_.collect_metrics ? 1 : 0);
    journal_ = OpenJournal(flags_.journal_path, tool_, fingerprint, flags_.resume);
    if (journal_ == nullptr) {
      return kExitJournal;
    }
    ClearShutdownRequest();
    InstallShutdownHandlers();
  }
  return kExitOk;
}

int SurveySession::RunCohort(Cohort cohort, StageKind stage, size_t servers, size_t max_crowd,
                             uint64_t seed, SurveyBreakdown* breakdown,
                             std::vector<ExperimentResult>* per_site) {
  if (journal_ != nullptr && ShutdownRequested()) {
    interrupted_ = true;
    return kExitInterrupted;
  }
  if (journal_ != nullptr) {
    std::string error;
    if (!journal_->BeginCohort(cohort, stage, servers, max_crowd, seed, telemetry_.next_pid,
                               &error, run_.shards, run_.shard_index)) {
      fprintf(stderr, "journal error: %s\n", error.c_str());
      return kExitJournal;
    }
  }
  telemetry_.stats_label = std::string(CohortName(cohort));
  *breakdown = RunSurveyCohortParallel(cohort, stage, servers, max_crowd, seed, jobs_, per_site,
                                       &telemetry_, journal_.get(), run_);
  if (journal_ != nullptr && journal_->interrupted.load(std::memory_order_relaxed)) {
    interrupted_ = true;
  }
  return kExitOk;
}

int SurveySession::Finish() {
  bool journal_failed = false;
  if (journal_ != nullptr) {
    if (!journal_->Sync()) {
      fprintf(stderr, "journal error: %s\n", journal_->Error().c_str());
      journal_failed = true;
    }
    if (interrupted_) {
      fprintf(stderr, "interrupted: %zu site(s) journaled; resume with --journal=%s --resume\n",
              journal_->resumed_sites.load() + journal_->executed_sites.load(),
              journal_->Path().c_str());
    }
  }
  // A non-zero stall count means some allocation pass left flows pinned at
  // rate 0 (see FlowNetworkStats::no_progress): results are suspect.
  double stalls =
      telemetry_.collect_metrics ? telemetry_.metrics.Counter("flow_network.no_progress") : 0.0;
  if (stalls > 0.0) {
    fprintf(stderr, "warning: flow_network.no_progress = %.0f (water-filling stalls)\n",
            stalls);
  }
  int rc = kExitOk;
  if (telemetry_.collect_trace &&
      !WriteOutputFile(flags_.trace_path, ExportTraceJson(telemetry_.trace))) {
    rc = kExitFailure;
  }
  if (telemetry_.collect_metrics &&
      !WriteOutputFile(flags_.metrics_path, ExportMetricsCsv(telemetry_.metrics))) {
    rc = kExitFailure;
  }
  if (journal_failed) {
    rc = kExitJournal;
  } else if (rc == kExitOk && interrupted_) {
    rc = kExitInterrupted;
  }
  return rc;
}

}  // namespace mfc
