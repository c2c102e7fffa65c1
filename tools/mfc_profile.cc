// mfc_profile — command-line driver for simulated MFC experiments.
//
// Profile a named deployment (the paper's case-study profiles) or a site
// sampled from a survey cohort, with the experiment knobs exposed as flags:
//
//   mfc_profile --profile=qtnp --theta-ms=100 --max-crowd=55
//   mfc_profile --cohort=startup --seed=9 --stages=base,query
//   mfc_profile --profile=univ3 --background-rps=20 --mr=2 --theta-ms=250
//   mfc_profile --cohort=rank3 --stagger-ms=20
//   mfc_profile --cohort=rank4 --survey=100 --jobs=8
//
// Prints per-epoch progress and the operator inference report; --survey=N
// instead profiles N sites sampled from the cohort in parallel and prints
// the stopping-crowd-size breakdown. Each of the five modes (a single
// experiment, --survey, --sample-only, --merge, --supervise) reads some of
// the flags, and a flag the mode does not read exits 2; --help lists them.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/core/arg_parse.h"
#include "src/core/experiment_runner.h"
#include "src/core/export.h"
#include "src/core/inference.h"
#include "src/core/journal/journal.h"
#include "src/core/parallel_runner.h"
#include "src/core/shard_merge.h"
#include "src/core/supervisor.h"
#include "src/core/survey.h"
#include "src/core/survey_session.h"
#include "src/telemetry/stats_stream.h"

namespace mfc {
namespace {

struct Options {
  std::string argv0 = "mfc_profile";  // worker re-exec fallback (--supervise)
  std::string profile;          // named profile, or empty
  std::string cohort;           // survey cohort, or empty
  double theta_ms = 100.0;
  size_t step = 5;
  size_t max_crowd = 85;
  size_t fleet = 85;
  size_t mr = 1;
  double stagger_ms = 0.0;
  double background_rps = 0.0;
  uint64_t seed = 1;
  size_t survey = 0;            // when > 0: survey this many cohort sites
  // --jobs, --shards, --json, --trace, --metrics, --journal, --resume,
  // --stats-stream/-interval: shared with the survey benches
  // (survey_session.h); the single-experiment mode reads some of them too.
  SurveyFlags flags;
  std::vector<std::string> merge_paths;  // --merge: shard journals to fold
  bool supervise = false;       // fork/monitor shard workers, then auto-merge
  double hang_timeout = 30.0;   // supervise: no-heartbeat deadline (seconds)
  size_t quarantine_after = 3;  // supervise: same-site crashes before quarantine
  bool sample_only = false;     // stream/sample survey sites, run nothing
  bool crawl = false;           // profile via crawling instead of operator input
  bool quiet = false;           // no per-epoch lines
  std::string csv_path;         // write per-epoch CSV here
  std::vector<StageKind> stages = {StageKind::kBase, StageKind::kSmallQuery,
                                   StageKind::kLargeObject};
};

// "a,b" -> {"a", "b"}; "" -> {""}.
std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> items;
  size_t start = 0;
  for (size_t comma; (comma = list.find(',', start)) != std::string::npos; start = comma + 1) {
    items.push_back(list.substr(start, comma - start));
  }
  items.push_back(list.substr(start));
  return items;
}

// Every flag, once, with the modes that read it (survey_session.h).
void AddFlags(FlagTable& table, Options* o) {
  constexpr FlagTable::Modes kSurveys = kSurveyMode | kSampleMode | kSuperviseMode;
  constexpr FlagTable::Modes kRuns = kSingleMode | kSurveyMode | kSuperviseMode;
  table.Add("--profile=<name>", &o->profile,
            "named case-study deployment: lab, qtnp, qtp, univ1, univ2 or univ3", kSingleMode);
  table.Add("--cohort=<name>", &o->cohort,
            "cohort to sample sites from: rank1-rank4, startup, phishing or longtail "
            "(default rank3)",
            kSingleMode | kSurveys);
  table.Add("--seed=<N>", &o->seed, "RNG seed (default 1)", kSingleMode | kSurveys);
  table.Add("--theta-ms=<N>", &o->theta_ms, "degradation threshold (default 100)", kSingleMode);
  table.Add("--step=<N>", &o->step, "crowd-size increment (default 5)", kSingleMode);
  table.Add("--max-crowd=<N>", &o->max_crowd, "request ceiling (default 85)", kRuns);
  table.Add("--fleet=<N>", &o->fleet, "available clients (default 85)", kSingleMode);
  table.Add("--mr=<N>", &o->mr, "MFC-mr connections per client (default 1)", kSingleMode);
  table.Add("--stagger-ms=<N>", &o->stagger_ms, "staggered arrivals, spacing in ms (default 0)",
            kSingleMode);
  table.Add("--background-rps=<N>", &o->background_rps,
            "Poisson background request rate (default 0)", kSingleMode);
  table.Add(
      "--stages=<list>",
      [o](const std::string& list) {
        static const std::map<std::string, StageKind> kStages = {
            {"base", StageKind::kBase},
            {"query", StageKind::kSmallQuery},
            {"large", StageKind::kLargeObject},
        };
        o->stages.clear();
        for (const std::string& name : SplitCommas(list)) {
          auto it = kStages.find(name);
          if (it == kStages.end()) {
            fprintf(stderr, "unknown stage '%s'\n", name.c_str());
            return false;
          }
          o->stages.push_back(it->second);
        }
        return true;
      },
      "comma list of base,query,large (default all; a survey runs one)", kRuns);
  table.Add("--crawl", &o->crawl, "discover probe objects by crawling", kSingleMode);
  table.Add("--csv=<path>", &o->csv_path, "write per-epoch CSV", kSingleMode);
  table.Add("--quiet", &o->quiet, "suppress per-epoch output");
  table.Add("--survey=<N>", &o->survey, "run N sampled cohort sites and print the breakdown",
            kSurveys);
  table.Add("--sample-only", &o->sample_only,
            "sample the survey's sites without running them; print a digest", kSampleMode);
  table.Add(
      "--merge=<p1,p2,...>",
      [o](const std::string& list) {
        for (std::string& path : SplitCommas(list)) {
          if (!path.empty()) {
            o->merge_paths.push_back(std::move(path));
          }
        }
        return true;
      },
      "fold shard journals into the single-run report and outputs", kMergeMode);
  table.Add("--supervise", &o->supervise,
            "run the sharded survey unattended, one restarted worker per shard, then merge",
            kSuperviseMode);
  table.Add("--hang-timeout=<S>", &o->hang_timeout,
            "seconds without worker progress before a hang kill (default 30)", kSuperviseMode);
  table.Add("--quarantine-after=<K>", &o->quarantine_after,
            "sequential crashes on one site before it is quarantined (default 3)",
            kSuperviseMode);
  AddSurveyFlags(table, &o->flags);
}

SurveyMode ModeOf(const Options& options, const FlagTable& table) {
  if (options.supervise) {
    return kSuperviseMode;
  }
  if (table.Given("--merge")) {
    return kMergeMode;
  }
  if (options.sample_only) {
    return kSampleMode;
  }
  return options.survey > 0 ? kSurveyMode : kSingleMode;
}

// The rules that tie flags together, after the mode has refused every flag
// it does not read. Prints the violation; true when there is none.
bool Validate(const FlagTable& table, const Options& options) {
  const SurveyMode mode = ModeOf(options, table);
  if (table.Unread(mode)) {
    return false;
  }
  if (table.Given("--profile") && table.Given("--cohort")) {
    fprintf(stderr, "--cohort has no effect with --profile\n");
    return false;
  }
  if (mode != kSingleMode && table.Given("--stages") && options.stages.size() > 1) {
    fprintf(stderr, "--survey runs one stage; --stages names %zu\n", options.stages.size());
    return false;
  }
  const SurveyFlags& flags = options.flags;
  if (mode == kSurveyMode) {
    return ValidateSurveyFlags(flags);
  }
  if (flags.resume && flags.journal_path.empty()) {
    fprintf(stderr, "--resume requires --journal=<path>\n");
    return false;
  }
  if (flags.shard_index >= flags.shards) {
    fprintf(stderr, "--shard-index=%zu out of range for --shards=%zu\n", flags.shard_index,
            flags.shards);
    return false;
  }
  if ((mode == kSampleMode || mode == kSuperviseMode) && options.survey == 0) {
    fprintf(stderr, "%s requires --survey=<N>\n",
            mode == kSampleMode ? "--sample-only" : "--supervise");
    return false;
  }
  if (mode != kSuperviseMode) {
    return true;
  }
  // Supervised runs drive full shard workers and merge their journals, so
  // --json/--trace/--metrics are fine at any shard count — the supervisor
  // writes them from the merged view, never a partial one.
  if (flags.journal_path.empty()) {
    fprintf(stderr,
            "--supervise requires --journal=<prefix> (shard journals land at "
            "<prefix>.shard<j>)\n");
    return false;
  }
  if (options.hang_timeout <= 0.0) {
    fprintf(stderr, "--hang-timeout must be > 0\n");
    return false;
  }
  if (options.quarantine_after == 0) {
    fprintf(stderr, "--quarantine-after must be >= 1\n");
    return false;
  }
  return true;
}

std::optional<Cohort> ResolveCohort(const Options& options) {
  static const std::map<std::string, Cohort> kCohorts = {
      {"rank1", Cohort::kRank1To1K},      {"rank2", Cohort::kRank1KTo10K},
      {"rank3", Cohort::kRank10KTo100K},  {"rank4", Cohort::kRank100KTo1M},
      {"startup", Cohort::kStartup},      {"phishing", Cohort::kPhishing},
      {"longtail", Cohort::kLongTail},
  };
  std::string cohort = options.cohort.empty() ? "rank3" : options.cohort;
  auto it = kCohorts.find(cohort);
  if (it == kCohorts.end()) {
    fprintf(stderr, "unknown cohort '%s'\n", cohort.c_str());
    return std::nullopt;
  }
  return it->second;
}

std::optional<SiteInstance> ResolveSite(const Options& options) {
  if (!options.profile.empty()) {
    static const std::map<std::string, SiteInstance (*)()> kProfiles = {
        {"lab", &MakeLabValidationProfile}, {"qtnp", &MakeQtnpProfile},
        {"qtp", &MakeQtpProfile},           {"univ1", &MakeUniv1Profile},
        {"univ2", &MakeUniv2Profile},       {"univ3", &MakeUniv3Profile},
    };
    auto it = kProfiles.find(options.profile);
    if (it == kProfiles.end()) {
      fprintf(stderr, "unknown profile '%s'\n", options.profile.c_str());
      return std::nullopt;
    }
    return it->second();
  }
  auto cohort = ResolveCohort(options);
  if (!cohort.has_value()) {
    return std::nullopt;
  }
  Rng rng(options.seed);
  return SampleSite(rng, *cohort);
}

std::string StagesToken(const std::vector<StageKind>& stages) {
  std::string token;
  for (StageKind kind : stages) {
    token += std::to_string(static_cast<int>(kind));
  }
  return token;
}

void PrintSurveyBreakdownLine(const SurveyBreakdown& b) {
  auto pct = [&](size_t n) {
    return b.servers == 0 ? 0.0 : 100.0 * static_cast<double>(n) /
                                      static_cast<double>(b.servers);
  };
  printf("servers=%zu  <=10: %.0f%%  10-20: %.0f%%  20-30: %.0f%%  30-40: %.0f%%  "
         "40-50: %.0f%%  >50: %.0f%%  NoStop: %.0f%%\n",
         b.servers, pct(b.b10), pct(b.b20), pct(b.b30), pct(b.b40), pct(b.b50),
         pct(b.b50plus), pct(b.nostop));
}

// --sample-only: stream this shard's slice of the survey's site instances —
// provisioning only, no experiments — and print an order-independent FNV-1a
// digest. check_shard_merge.py drives 100k+ sites through this to pin that
// streaming regeneration is reproducible at scale.
int RunSampleOnly(const Options& options, Cohort cohort) {
  uint64_t digest = 1469598103934665603ULL;  // FNV-1a 64 offset basis
  auto fold = [&digest](double v) {
    uint64_t bits;
    memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 64; b += 8) {
      digest = (digest ^ ((bits >> b) & 0xff)) * 1099511628211ULL;
    }
  };
  const SurveyFlags& flags = options.flags;
  for (size_t i = flags.shard_index; i < options.survey; i += flags.shards) {
    SiteInstance instance = SampleSiteAt(options.seed, cohort, i);
    fold(instance.base_knee);
    fold(instance.query_knee);
    fold(instance.bandwidth_knee);
    fold(instance.server_access_bps);
    fold(instance.background_rps);
    fold(static_cast<double>(instance.replicas));
  }
  printf("sampled cohort=%s servers=%zu shard=%zu/%zu digest=%016llx\n",
         std::string(CohortName(cohort)).c_str(), options.survey, flags.shard_index,
         flags.shards, static_cast<unsigned long long>(digest));
  return kExitOk;
}

// --survey=N: profile N cohort sites across the worker pool and print the
// paper-style stopping breakdown.
int RunSurvey(const Options& options) {
  auto cohort = ResolveCohort(options);
  if (!cohort.has_value()) {
    return kExitUsage;
  }
  if (options.sample_only) {
    return RunSampleOnly(options, *cohort);
  }
  const SurveyFlags& flags = options.flags;
  StageKind stage = options.stages.empty() ? StageKind::kBase : options.stages[0];
  SurveySession session("mfc_profile:survey", flags);
  printf("survey: cohort=%s stage=%s servers=%zu max-crowd=%zu jobs=%zu seed=%llu",
         std::string(CohortName(*cohort)).c_str(), std::string(StageName(stage)).c_str(),
         options.survey, options.max_crowd, session.Jobs(),
         static_cast<unsigned long long>(options.seed));
  if (flags.shards > 1) {
    printf(" shard=%zu/%zu", flags.shard_index, flags.shards);
  }
  printf("\n\n");
  int rc = session.Open();
  if (rc != kExitOk) {
    return rc;
  }
  const bool want_report = !flags.json_path.empty();
  std::vector<ExperimentResult> per_site;
  SurveyBreakdown b;
  rc = session.RunCohort(*cohort, stage, options.survey, options.max_crowd, options.seed, &b,
                         want_report ? &per_site : nullptr);
  if (rc == kExitJournal) {
    return rc;
  }
  PrintSurveyBreakdownLine(b);
  rc = session.Finish();
  const SurveyJournal* journal = session.Journal();
  if (journal != nullptr) {
    printf("journal: %zu site(s) replayed, %zu executed\n", journal->resumed_sites.load(),
           journal->executed_sites.load());
  }
  if (!want_report || session.Interrupted()) {
    return rc;  // an interrupted survey leaves the report to its resume
  }
  // Quarantine records in a resumed journal surface in this run's report
  // too, in global index order — the same view --merge would build.
  std::vector<JournalQuarantineRecord> quarantined;
  if (journal != nullptr) {
    const size_t ordinal = journal->CurrentOrdinal();
    const auto& all = journal->Quarantines();
    for (auto it = all.lower_bound({ordinal, 0}); it != all.end() && it->first.first == ordinal;
         ++it) {
      quarantined.push_back(it->second);
    }
  }
  SurveyReportInput report;
  report.cohort_name = std::string(CohortName(*cohort));
  report.stage = static_cast<int>(stage);
  report.servers = options.survey;
  report.max_crowd = options.max_crowd;
  report.seed = options.seed;
  report.breakdown = b;
  report.per_site = &per_site;
  report.quarantined = &quarantined;
  if (!WriteOutputFile(flags.json_path, BuildSurveyReportJson(report))) {
    rc = kExitFailure;
  }
  return rc;
}

// Folds the shard journals at |paths| back into the single-process outputs
// (report JSON, merged trace/metrics). The report goes through the same
// builder as an unsharded --survey --json run, so the two are comparable
// byte for byte. Shared by --merge and the --supervise auto-merge.
int MergeAndWrite(const Options& options, const std::vector<std::string>& paths) {
  const SurveyFlags& flags = options.flags;
  ShardMergeResult merged;
  std::string error;
  if (!MergeShardJournals(paths, &merged, &error)) {
    fprintf(stderr, "merge error: %s\n", error.c_str());
    return kExitJournal;
  }
  printf("merged %zu shard journal(s): tool=%s cohorts=%zu\n", paths.size(),
         merged.tool.c_str(), merged.cohorts.size());
  for (size_t ord = 0; ord < merged.breakdowns.size(); ++ord) {
    printf("[%s] ", std::string(CohortName(merged.cohorts[ord].cohort)).c_str());
    PrintSurveyBreakdownLine(merged.breakdowns[ord]);
    for (const JournalQuarantineRecord& q : merged.quarantined[ord]) {
      printf("  quarantined site %zu after %zu crash(es): %s\n", q.site_index, q.crashes,
             q.signature.c_str());
    }
  }
  if (!flags.json_path.empty()) {
    if (merged.cohorts.size() != 1) {
      fprintf(stderr, "--json merge report requires single-cohort journals (these hold %zu)\n",
              merged.cohorts.size());
      return kExitJournal;
    }
    const JournalCohortRecord& c = merged.cohorts[0];
    SurveyReportInput report;
    report.cohort_name = std::string(CohortName(c.cohort));
    report.stage = static_cast<int>(c.stage);
    report.servers = c.servers;
    report.max_crowd = c.max_crowd;
    report.seed = c.seed;
    report.breakdown = merged.breakdowns[0];
    report.per_site = &merged.per_site[0];
    report.quarantined = &merged.quarantined[0];
    if (!WriteOutputFile(flags.json_path, BuildSurveyReportJson(report))) {
      return kExitFailure;
    }
  }
  if (!flags.trace_path.empty() &&
      !WriteOutputFile(flags.trace_path, ExportTraceJson(merged.trace))) {
    return kExitFailure;
  }
  if (!flags.metrics_path.empty() &&
      !WriteOutputFile(flags.metrics_path, ExportMetricsCsv(merged.metrics))) {
    return kExitFailure;
  }
  return kExitOk;
}

// The path workers are exec'd from: this very binary, so supervisor and
// worker can never skew versions. argv[0] is the fallback off-proc.
std::string SelfExePath(const std::string& fallback) {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    return fallback;
  }
  buf[n] = '\0';
  return buf;
}

// --supervise: run the whole sharded survey unattended (DESIGN.md §14).
// Forks one worker per shard with its own journal/stats/log files derived
// from --journal, restarts crashes from their journals, SIGKILLs hung
// workers, quarantines poisoned sites, and on success merges everything into
// the same report/trace/metrics files an unsharded run would have written.
int RunSupervise(const Options& options, const FlagTable& table) {
  auto cohort = ResolveCohort(options);
  if (!cohort.has_value()) {
    return kExitUsage;
  }
  const SurveyFlags& flags = options.flags;
  const std::string exe = SelfExePath(options.argv0);
  const size_t shards = flags.shards;
  // Each worker gets an equal slice of the machine unless --jobs pins it.
  size_t worker_jobs = flags.jobs;
  if (worker_jobs == 0) {
    worker_jobs = std::max<size_t>(1, ResolveJobs(0) / shards);
  }
  std::vector<std::string> journal_paths;
  std::vector<std::string> stats_paths;
  std::vector<std::string> log_paths;
  for (size_t j = 0; j < shards; ++j) {
    journal_paths.push_back(flags.journal_path + ".shard" + std::to_string(j));
    stats_paths.push_back(journal_paths.back() + ".stats");
    log_paths.push_back(journal_paths.back() + ".log");
  }
  // Workers always stream stats: their growth is the heartbeat that lets the
  // supervisor tell "slow site" from "wedged worker", so the cadence must
  // beat the hang deadline comfortably.
  const double worker_stats_interval =
      std::min(flags.stats_interval, options.hang_timeout / 4.0);

  SupervisorOptions sup;
  sup.shards = shards;
  sup.journal_paths = journal_paths;
  sup.heartbeat_paths = stats_paths;
  sup.log_paths = log_paths;
  sup.hang_timeout = options.hang_timeout;
  sup.quarantine_after = options.quarantine_after;
  sup.seed = options.seed;
  // The survey's own flags reach every worker exactly as they were typed.
  const std::vector<std::string> survey_args =
      table.Spelled({"--cohort", "--survey", "--max-crowd", "--seed", "--stages"});
  sup.command = [&](size_t shard, bool sequential) {
    std::vector<std::string> argv = {exe};
    argv.insert(argv.end(), survey_args.begin(), survey_args.end());
    argv.push_back("--jobs=" + std::to_string(sequential ? 1 : worker_jobs));
    argv.push_back("--shards=" + std::to_string(shards));
    argv.push_back("--shard-index=" + std::to_string(shard));
    argv.push_back("--journal=" + journal_paths[shard]);
    // --resume makes every launch — first, restart, whole-command re-run —
    // the same argv: replay what the journal has, execute the rest.
    argv.push_back("--resume");
    argv.push_back("--stats-stream=" + stats_paths[shard]);
    char interval[48];
    snprintf(interval, sizeof(interval), "--stats-interval=%g", worker_stats_interval);
    argv.push_back(interval);
    // Trace/metrics requests make workers journal their telemetry so the
    // merge can export it; the workers' own export files are scratch.
    if (!flags.trace_path.empty()) {
      argv.push_back("--trace=" + journal_paths[shard] + ".trace.json");
    }
    if (!flags.metrics_path.empty()) {
      argv.push_back("--metrics=" + journal_paths[shard] + ".metrics.csv");
    }
    return argv;
  };
  std::unique_ptr<StatsStream> stats;
  if (!flags.stats_stream_path.empty()) {
    std::string error;
    stats = StatsStream::Open(flags.stats_stream_path, &error);
    if (stats == nullptr) {
      fprintf(stderr, "%s\n", error.c_str());
      return kExitUsage;
    }
    sup.stats = stats.get();
    sup.stats_interval = flags.stats_interval;
  }

  printf("supervise: shards=%zu jobs/worker=%zu hang-timeout=%.0fs quarantine-after=%zu "
         "journals=%s.shard<j>\n",
         shards, worker_jobs, options.hang_timeout, options.quarantine_after,
         flags.journal_path.c_str());
  SurveySupervisor supervisor(std::move(sup));
  SupervisorResult result = supervisor.Run();
  if (result.interrupted) {
    size_t done = 0;
    for (const SupervisorShardStatus& s : result.shards) {
      done += s.completed ? 1 : 0;
    }
    fprintf(stderr,
            "interrupted: %zu/%zu shard(s) complete; re-run the same --supervise command to "
            "resume\n",
            done, shards);
    return kExitInterrupted;
  }
  if (!result.ok) {
    fprintf(stderr, "supervise error: %s\n", result.error.c_str());
    return kExitJournal;
  }
  printf("supervise: all %zu shard(s) complete (%zu restart(s), %zu hang kill(s), "
         "%zu quarantine(s))\n",
         shards, result.restarts, result.hang_kills, result.quarantines.size());
  return MergeAndWrite(options, journal_paths);
}

int Run(const Options& options, const FlagTable& table) {
  switch (ModeOf(options, table)) {
    case kSuperviseMode:
      return RunSupervise(options, table);
    case kMergeMode:
      return MergeAndWrite(options, options.merge_paths);
    case kSampleMode:
    case kSurveyMode:
      return RunSurvey(options);
    case kSingleMode:
      break;
  }
  auto site = ResolveSite(options);
  if (!site.has_value()) {
    return kExitUsage;
  }

  const SurveyFlags& flags = options.flags;
  ExperimentConfig config;
  config.threshold = Millis(options.theta_ms);
  config.crowd_step = options.step;
  config.max_crowd = options.max_crowd;
  config.min_clients = std::min<size_t>(50, options.fleet);
  config.requests_per_client = options.mr;
  config.stagger_spacing = Millis(options.stagger_ms);

  const bool want_trace = !flags.trace_path.empty();
  const bool want_metrics = !flags.metrics_path.empty();
  std::unique_ptr<SurveyJournal> journal;
  if (!flags.journal_path.empty()) {
    char fingerprint[256];
    snprintf(fingerprint, sizeof(fingerprint),
             "profile=%s;cohort=%s;theta=%g;step=%zu;max=%zu;fleet=%zu;mr=%zu;stagger=%g;"
             "bg=%g;seed=%llu;stages=%s;crawl=%d;trace=%d;metrics=%d",
             options.profile.c_str(), options.cohort.c_str(), options.theta_ms, options.step,
             options.max_crowd, options.fleet, options.mr, options.stagger_ms,
             options.background_rps, static_cast<unsigned long long>(options.seed),
             StagesToken(options.stages).c_str(), options.crawl ? 1 : 0, want_trace ? 1 : 0,
             want_metrics ? 1 : 0);
    journal = OpenJournal(flags.journal_path, "mfc_profile:single", fingerprint, flags.resume);
    if (journal == nullptr) {
      return kExitJournal;
    }
  }

  // Single experiments journal as site (0, 0) with no cohort record; a
  // completed run replays without even deploying the site. Either way the
  // outputs below fold from the site record, as a survey's do.
  JournalSiteRecord live;
  const JournalSiteRecord* record = journal != nullptr ? journal->SiteAt(0, 0) : nullptr;
  if (record != nullptr) {
    printf("target: %s  fleet=%zu  theta=%.0fms  step=%zu  max=%zu  mr=%zu  "
           "(replayed from journal)\n\n",
           site->server.name.c_str(), options.fleet, options.theta_ms, options.step,
           options.max_crowd, options.mr);
    journal->resumed_sites.fetch_add(1);
  } else {
    record = &live;
    live.seed = options.seed;
    live.stage = options.stages.empty() ? StageKind::kBase : options.stages[0];
    live.has_trace = want_trace;
    live.has_metrics = want_metrics;
    DeploymentOptions deployment_options;
    deployment_options.seed = options.seed;
    deployment_options.fleet_size = options.fleet;
    deployment_options.background_rps = options.background_rps;
    Deployment deployment(*site, deployment_options);
    deployment.StartBackground();

    // Telemetry sink; wired only when a --trace / --metrics output was asked
    // for, so plain runs keep the uninstrumented code path.
    Tracer site_tracer;
    Telemetry telemetry;
    if (want_trace) {
      telemetry.tracer = &site_tracer;
    }
    if (want_metrics) {
      telemetry.metrics = &live.metrics;
    }
    if (telemetry.Enabled()) {
      deployment.SetTelemetry(&telemetry);
    }

    StageObjects objects =
        options.crawl ? deployment.ProfileByCrawl() : deployment.ObjectsFromContent();

    printf("target: %s  fleet=%zu  theta=%.0fms  step=%zu  max=%zu  mr=%zu%s\n\n",
           site->server.name.c_str(), options.fleet, options.theta_ms, options.step,
           options.max_crowd, options.mr, options.crawl ? "  (crawl-profiled)" : "");

    Coordinator coordinator(deployment.Testbed(), config, options.seed + 1);
    if (telemetry.Enabled()) {
      coordinator.SetTelemetry(&telemetry);
    }

    // Health plane for a single experiment: simulated-time snapshots of the
    // event loop and flow network. The sampler's events are read-only, so
    // results with it attached are identical to results without.
    std::unique_ptr<StatsStream> stats;
    std::unique_ptr<SimStatsSampler> sampler;
    if (!flags.stats_stream_path.empty()) {
      std::string error;
      stats = StatsStream::Open(flags.stats_stream_path, &error);
      if (stats == nullptr) {
        fprintf(stderr, "%s\n", error.c_str());
        return kExitUsage;
      }
      auto probe = [&deployment] {
        SimHealthSnapshot s;
        const FlowNetwork& net = deployment.Testbed().Wan().Flows();
        s.flows_active = net.ActiveFlowCount();
        s.reallocs = net.Stats().reallocs;
        s.links_touched = net.Stats().links_touched;
        s.no_progress = net.Stats().no_progress;
        return s;
      };
      sampler = std::make_unique<SimStatsSampler>(deployment.Loop(), *stats,
                                                  flags.stats_interval, probe,
                                                  want_metrics ? &live.metrics : nullptr);
      sampler->Start();
    }

    live.result = coordinator.Run(objects, options.stages);
    if (sampler != nullptr) {
      sampler->Stop();  // cancels the pending tick, emits the final snapshot
    }
    deployment.StopBackground();
    live.trace_spans = site_tracer.Spans();

    if (journal != nullptr) {
      journal->AppendSite(live);
      if (!journal->Sync()) {
        fprintf(stderr, "journal error: %s\n", journal->Error().c_str());
        return kExitJournal;
      }
    }
  }
  Tracer tracer;
  MetricsRegistry metrics;
  FoldSiteRecord(*record, nullptr, &metrics, &tracer);
  const ExperimentResult& result = record->result;

  if (result.aborted) {
    printf("ABORTED: %s\n", result.abort_reason.c_str());
    return kExitFailure;
  }
  for (const StageResult& stage : result.stages) {
    printf("[%s]\n", std::string(StageName(stage.kind)).c_str());
    if (!options.quiet) {
      for (const EpochResult& epoch : stage.epochs) {
        printf("  crowd=%-4zu samples=%-4zu metric=%7.1f ms%s%s\n", epoch.crowd_size,
               epoch.samples_received, ToMillis(epoch.metric),
               epoch.check_phase ? "  [check]" : "",
               epoch.exceeded_threshold ? "  EXCEEDED" : "");
      }
    }
    printf("  -> %s\n\n",
           stage.stopped
               ? ("stopped at crowd " + std::to_string(stage.stopping_crowd_size)).c_str()
               : "NoStop");
  }
  printf("%s", AnalyzeExperiment(result, config).ToText().c_str());

  int rc = kExitOk;
  if (!options.csv_path.empty() && !WriteOutputFile(options.csv_path, ExportEpochsCsv(result))) {
    rc = kExitFailure;
  }
  if (!flags.json_path.empty() && !WriteOutputFile(flags.json_path, ExportJson(result))) {
    rc = kExitFailure;
  }
  if (want_trace && !WriteOutputFile(flags.trace_path, ExportTraceJson(tracer))) {
    rc = kExitFailure;
  }
  if (want_metrics && !WriteOutputFile(flags.metrics_path, ExportMetricsCsv(metrics))) {
    rc = kExitFailure;
  }
  return rc;
}

}  // namespace
}  // namespace mfc

int main(int argc, char** argv) {
  mfc::Options options;
  if (argc > 0 && argv[0] != nullptr && argv[0][0] != '\0') {
    options.argv0 = argv[0];
  }
  // Named in SurveyMode bit order.
  mfc::FlagTable table(
      {"a single experiment", "--survey", "--sample-only", "--merge", "--supervise"});
  mfc::AddFlags(table, &options);
  if (!table.Parse(argc, argv) || !mfc::Validate(table, options)) {
    table.PrintUsage(stdout, "mfc_profile");
    return mfc::kExitUsage;
  }
  return mfc::Run(options, table);
}
