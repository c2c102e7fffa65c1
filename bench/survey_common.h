// Shared machinery for the Section 5 survey benches (Figures 7-9, Tables
// 4-5): each bench is a cohort table plus header and footer text. The run
// itself — flags, journal, health plane, shutdown, --trace/--metrics — is
// the one SurveySession (src/core/survey_session.h) that `mfc_profile
// --survey` uses too; this header adds only what is bench-specific:
//
//   <N>               positional: override every cohort's server count
//   stdout            the paper's stopping-crowd-size table, one row per cohort
//   --json=<path>     the bench record: breakdowns + wall-clock + jobs (and,
//                     with --metrics, span_totals; see README.md)
//
// Exit codes match mfc_profile (see the README table): 0 success, 1 output
// write failure, 2 usage errors, 3 journal errors, 130 interrupted.
#ifndef MFC_BENCH_SURVEY_COMMON_H_
#define MFC_BENCH_SURVEY_COMMON_H_

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/survey_session.h"

namespace mfc {

inline void PrintBreakdownHeader() {
  printf("%-20s %-8s %-7s %-7s %-7s %-7s %-7s %-7s %-8s %-10s\n", "cohort", "servers",
         "<=10", "10-20", "20-30", "30-40", "40-50", ">50", "NoStop", "stop frac");
}

inline void PrintBreakdown(const SurveyBreakdown& b) {
  auto pct = [&](size_t n) {
    char buf[16];
    double v = b.servers == 0 ? 0.0 : 100.0 * static_cast<double>(n) /
                                          static_cast<double>(b.servers);
    snprintf(buf, sizeof(buf), "%.0f%%", v);
    return std::string(buf);
  };
  printf("%-20s %-8zu %-7s %-7s %-7s %-7s %-7s %-7s %-8s %-10s\n",
         std::string(CohortName(b.cohort)).c_str(), b.servers, pct(b.b10).c_str(),
         pct(b.b20).c_str(), pct(b.b30).c_str(), pct(b.b40).c_str(), pct(b.b50).c_str(),
         pct(b.b50plus).c_str(), pct(b.nostop).c_str(),
         pct(b.servers - b.nostop).c_str());
}

// The bench's --json record: the breakdowns, wall-clock seconds and jobs
// used, so per-PR BENCH_*.json trajectories can be captured.
inline std::string BuildBenchRecord(const std::string& bench, const SurveySession& session,
                                    const std::vector<SurveyBreakdown>& breakdowns,
                                    double wall_seconds) {
  const SurveyJournal* journal = session.Journal();
  const MetricsRegistry* metrics = session.Metrics();
  std::string json;
  char line[512];
  snprintf(line, sizeof(line), "{\n  \"bench\": \"%s\",\n  \"jobs\": %zu,\n", bench.c_str(),
           session.Jobs());
  json += line;
  if (journal != nullptr) {
    // Resume-audit fields: only present when journaling so a no-journal
    // run's --json stays byte-identical to pre-journal builds.
    snprintf(line, sizeof(line),
             "  \"resumed_sites\": %zu,\n  \"executed_sites\": %zu,\n"
             "  \"interrupted\": %s,\n",
             journal->resumed_sites.load(), journal->executed_sites.load(),
             session.Interrupted() ? "true" : "false");
    json += line;
    if (session.Interrupted()) {
      snprintf(line, sizeof(line), "  \"resume_hint\": \"--journal=%s --resume\",\n",
               journal->Path().c_str());
      json += line;
    }
  }
  snprintf(line, sizeof(line), "  \"wall_seconds\": %.6f,\n", wall_seconds);
  json += line;
  json += "  \"breakdowns\": [\n";
  for (size_t i = 0; i < breakdowns.size(); ++i) {
    const SurveyBreakdown& b = breakdowns[i];
    snprintf(line, sizeof(line),
             "    {\"cohort\": \"%s\", \"servers\": %zu, \"le10\": %zu, \"b20\": %zu, "
             "\"b30\": %zu, \"b40\": %zu, \"b50\": %zu, \"gt50\": %zu, \"nostop\": %zu}%s\n",
             std::string(CohortName(b.cohort)).c_str(), b.servers, b.b10, b.b20, b.b30, b.b40,
             b.b50, b.b50plus, b.nostop, i + 1 < breakdowns.size() ? "," : "");
    json += line;
  }
  json += "  ]";
  json += metrics != nullptr ? ",\n" : "\n";
  // Per-stage span-time breakdown (seconds of simulated time each request
  // spent per lifecycle phase), summed over every surveyed site. Only
  // present when --metrics was given so default --json output is unchanged.
  if (metrics != nullptr) {
    json += "  \"span_totals\": {\n";
    static const char* kStages[] = {"Base", "SmallQuery", "LargeObject"};
    bool first = true;
    for (const char* stage : kStages) {
      std::string prefix = std::string("span.") + stage + ".";
      double count = metrics->Counter(prefix + "count");
      if (count == 0.0) {
        continue;
      }
      snprintf(line, sizeof(line),
               "%s    \"%s\": {\"count\": %.0f, \"queue_s\": %.9g, \"cpu_s\": %.9g, "
               "\"db_s\": %.9g, \"disk_s\": %.9g, \"net_s\": %.9g}",
               first ? "" : ",\n", stage, count, metrics->Counter(prefix + "queue_s"),
               metrics->Counter(prefix + "cpu_s"), metrics->Counter(prefix + "db_s"),
               metrics->Counter(prefix + "disk_s"), metrics->Counter(prefix + "net_s"));
      json += line;
      first = false;
    }
    json += "\n  },\n";
    // Allocator health: water-filling passes that made no progress. Always
    // 0 in a healthy run; a nonzero value means some flows were left
    // pinned at rate 0 (see FlowNetworkStats::no_progress).
    snprintf(line, sizeof(line), "  \"flow_network\": {\"no_progress\": %.0f}\n",
             metrics->Counter("flow_network.no_progress"));
    json += line;
  }
  json += "}\n";
  return json;
}

// One row of a bench's cohort table.
struct SurveyBenchCohort {
  Cohort cohort;
  StageKind stage;
  size_t servers;  // the paper's count; the positional <N> overrides it
  size_t max_crowd;
  uint64_t seed;
};

struct SurveyBench {
  const char* name;    // journal tool name and the record's "bench"
  const char* title;   // header line
  const char* figure;  // "Reproduces: ..." line
  std::vector<SurveyBenchCohort> cohorts;
  const char* footer;  // printed verbatim after the table
};

// A survey bench's whole main(): parse, print the header, run the cohort
// table through one SurveySession printing each row, print the footer, then
// finish and write the --json record. Returns the exit code.
inline int RunSurveyBench(int argc, char** argv, const SurveyBench& bench) {
  SurveyFlags flags;
  size_t servers_override = 0;
  FlagTable table;
  table.Add("<servers>", &servers_override, "override every cohort's server count");
  AddSurveyFlags(table, &flags);
  if (!table.Parse(argc, argv) || !ValidateSurveyFlags(flags)) {
    table.PrintUsage(stderr, bench.name);
    return kExitUsage;
  }

  PrintHeader(bench.title, bench.figure);
  printf("\n");
  PrintBreakdownHeader();
  SurveySession session(bench.name, flags);
  const auto start = std::chrono::steady_clock::now();
  int rc = session.Open();
  if (rc != kExitOk) {
    return rc;
  }
  std::vector<SurveyBreakdown> breakdowns;
  for (const SurveyBenchCohort& row : bench.cohorts) {
    SurveyBreakdown b;
    rc = session.RunCohort(row.cohort, row.stage,
                           servers_override > 0 ? servers_override : row.servers, row.max_crowd,
                           row.seed, &b);
    if (rc == kExitJournal) {
      return rc;
    }
    if (rc == kExitOk) {
      PrintBreakdown(b);
      breakdowns.push_back(b);
    }
  }
  fputs(bench.footer, stdout);
  rc = session.Finish();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (!flags.json_path.empty() &&
      !WriteOutputFile(flags.json_path, BuildBenchRecord(bench.name, session, breakdowns, wall))) {
    rc = kExitFailure;
  }
  return rc;
}

}  // namespace mfc

#endif  // MFC_BENCH_SURVEY_COMMON_H_
