#include "src/core/shard_merge.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/telemetry/json_quote.h"

namespace mfc {
namespace {

std::string Describe(const JournalCohortRecord& c) {
  char buf[256];
  snprintf(buf, sizeof(buf),
           "cohort=%d stage=%d servers=%zu max_crowd=%zu seed=%llu pid_base=%llu shards=%zu",
           static_cast<int>(c.cohort), static_cast<int>(c.stage), c.servers, c.max_crowd,
           static_cast<unsigned long long>(c.seed), static_cast<unsigned long long>(c.pid_base),
           c.shards);
  return buf;
}

// Everything but shard_index must agree across one cohort's shard records.
bool SameCohortModuloShard(const JournalCohortRecord& a, const JournalCohortRecord& b) {
  return a.ordinal == b.ordinal && a.cohort == b.cohort && a.stage == b.stage &&
         a.servers == b.servers && a.max_crowd == b.max_crowd && a.seed == b.seed &&
         a.pid_base == b.pid_base && a.shards == b.shards;
}

size_t CountSitesForOrdinal(const JournalFileData& data, size_t ordinal) {
  size_t count = 0;
  for (const auto& entry : data.sites) {
    if (entry.first.first == ordinal) {
      ++count;
    }
  }
  return count;
}

}  // namespace

bool MergeShardJournals(const std::vector<std::string>& paths, ShardMergeResult* out,
                        std::string* error) {
  if (paths.empty()) {
    *error = "no shard journals to merge";
    return false;
  }
  std::vector<JournalFileData> files(paths.size());
  for (size_t f = 0; f < paths.size(); ++f) {
    if (!ReadJournalFile(paths[f], &files[f], error)) {
      *error = paths[f] + ": " + *error;
      return false;
    }
    if (!files[f].warning.empty()) {
      fprintf(stderr, "warning: %s: %s\n", paths[f].c_str(), files[f].warning.c_str());
    }
  }
  for (size_t f = 1; f < files.size(); ++f) {
    if (files[f].tool != files[0].tool || files[f].fingerprint != files[0].fingerprint) {
      *error = paths[f] + ": belongs to a different run than " + paths[0] + " (tool \"" +
               files[f].tool + "\" fingerprint \"" + files[f].fingerprint + "\" vs tool \"" +
               files[0].tool + "\" fingerprint \"" + files[0].fingerprint + "\")";
      return false;
    }
  }

  // Index every shard's cohort records by ordinal and cross-check them. A
  // shard with fewer cohort records than its peers is not corrupt — its
  // worker died early. Classify precisely instead of rejecting ambiguously:
  // a journal holding only a header, or a BeginCohort with no site record
  // yet, is "resumable, zero progress".
  size_t ordinals = 0;
  for (const JournalFileData& file : files) {
    ordinals = std::max(ordinals, file.cohorts.size());
  }
  for (size_t f = 0; f < files.size(); ++f) {
    if (files[f].cohorts.size() == ordinals) {
      continue;
    }
    char buf[320];
    if (files[f].cohorts.empty()) {
      snprintf(buf, sizeof(buf),
               "%s: resumable, zero progress — a valid header but no cohort records yet (its "
               "worker died during startup); re-run that shard with --resume before merging",
               paths[f].c_str());
    } else {
      const JournalCohortRecord& last = files[f].cohorts.back();
      if (CountSitesForOrdinal(files[f], last.ordinal) == 0) {
        snprintf(buf, sizeof(buf),
                 "%s: shard %zu is resumable, zero progress on cohort %zu — its worker died "
                 "between BeginCohort and the first site record; re-run that shard with "
                 "--resume before merging",
                 paths[f].c_str(), last.shard_index, last.ordinal);
      } else {
        snprintf(buf, sizeof(buf),
                 "%s: shard %zu has %zu cohort record(s) but its peers have %zu; re-run that "
                 "shard with --resume before merging",
                 paths[f].c_str(), last.shard_index, files[f].cohorts.size(), ordinals);
      }
    }
    *error = buf;
    return false;
  }
  if (ordinals == 0) {
    *error = paths[0] + ": no cohort records (nothing to merge)";
    return false;
  }

  out->tool = files[0].tool;
  out->fingerprint = files[0].fingerprint;
  out->cohorts.clear();
  out->breakdowns.clear();
  out->per_site.clear();
  out->quarantined.clear();
  out->has_trace = false;
  out->has_metrics = false;

  for (size_t ord = 0; ord < ordinals; ++ord) {
    const JournalCohortRecord& ref = files[0].cohorts[ord];
    const size_t shard_count = ref.shards == 0 ? 1 : ref.shards;
    if (paths.size() != shard_count) {
      char buf[160];
      snprintf(buf, sizeof(buf),
               "cohort %zu was run with %zu shard(s) but %zu journal(s) were given", ord,
               shard_count, paths.size());
      *error = buf;
      return false;
    }
    // shard_index values must be a permutation of 0..k-1; owner[j] maps
    // shard index j to the journal file holding it.
    std::vector<size_t> owner(shard_count, paths.size());
    for (size_t f = 0; f < files.size(); ++f) {
      const JournalCohortRecord& c = files[f].cohorts[ord];
      if (!SameCohortModuloShard(ref, c)) {
        *error = paths[f] + ": cohort " + std::to_string(ord) + " mismatch (" + Describe(c) +
                 " vs " + Describe(ref) + " in " + paths[0] + ")";
        return false;
      }
      if (c.shard_index >= shard_count) {
        *error = paths[f] + ": cohort " + std::to_string(ord) + " claims shard_index " +
                 std::to_string(c.shard_index) + " of " + std::to_string(shard_count);
        return false;
      }
      if (owner[c.shard_index] != paths.size()) {
        *error = paths[f] + " and " + paths[owner[c.shard_index]] +
                 " both claim shard " + std::to_string(c.shard_index) + " of cohort " +
                 std::to_string(ord);
        return false;
      }
      owner[c.shard_index] = f;
    }

    // Completeness: every global site must exist in its owning shard. A gap
    // means that shard was interrupted — merging a partial survey would
    // silently understate the breakdown, so this is a hard error. The one
    // legal gap is a quarantined site: its slot stays default-constructed
    // (invisible to the breakdown, matching what the surviving worker
    // computed) and the record is surfaced in the merged report instead.
    SurveyBreakdown breakdown;
    breakdown.cohort = ref.cohort;
    std::vector<ExperimentResult> sites(ref.servers);
    std::vector<JournalQuarantineRecord> cohort_quarantined;
    for (size_t i = 0; i < ref.servers; ++i) {
      const size_t f = owner[i % shard_count];
      auto it = files[f].sites.find({ord, i});
      if (it == files[f].sites.end()) {
        // The scan keeps a quarantine only in the journal of the shard that
        // owns its site, and never beside that site's record.
        auto q = files[f].quarantines.find({ord, i});
        if (q != files[f].quarantines.end()) {
          cohort_quarantined.push_back(q->second);
          continue;
        }
        if (CountSitesForOrdinal(files[f], ord) == 0) {
          *error = paths[f] + ": shard " + std::to_string(i % shard_count) +
                   " is resumable, zero progress on cohort " + std::to_string(ord) +
                   " — its worker died between BeginCohort and the first site record; re-run "
                   "that shard with --resume before merging";
        } else {
          *error = paths[f] + ": shard " + std::to_string(i % shard_count) + " is missing site " +
                   std::to_string(i) + " of cohort " + std::to_string(ord) +
                   " — that shard looks interrupted; finish it with --resume before merging";
        }
        return false;
      }
      const JournalSiteRecord& record = it->second;
      FoldSiteRecord(record, &breakdown, &out->metrics, &out->trace);
      out->has_metrics = out->has_metrics || record.has_metrics;
      out->has_trace = out->has_trace || record.has_trace;
      sites[i] = record.result;
    }

    JournalCohortRecord merged = ref;
    merged.shards = 1;
    merged.shard_index = 0;
    out->cohorts.push_back(merged);
    out->breakdowns.push_back(breakdown);
    out->per_site.push_back(std::move(sites));
    out->quarantined.push_back(std::move(cohort_quarantined));
  }
  return true;
}

std::string BuildSurveyReportJson(const SurveyReportInput& input) {
  std::string json;
  char line[256];
  snprintf(line, sizeof(line),
           "{\n  \"survey\": {\"cohort\": \"%s\", \"stage\": %d, \"servers\": %zu, "
           "\"max_crowd\": %zu, \"seed\": %llu},\n",
           input.cohort_name.c_str(), input.stage, input.servers, input.max_crowd,
           static_cast<unsigned long long>(input.seed));
  json += line;
  const SurveyBreakdown& b = input.breakdown;
  snprintf(line, sizeof(line),
           "  \"breakdown\": {\"servers\": %zu, \"le10\": %zu, \"b20\": %zu, \"b30\": %zu, "
           "\"b40\": %zu, \"b50\": %zu, \"gt50\": %zu, \"nostop\": %zu},\n",
           b.servers, b.b10, b.b20, b.b30, b.b40, b.b50, b.b50plus, b.nostop);
  json += line;
  if (input.quarantined != nullptr && !input.quarantined->empty()) {
    json += "  \"quarantined_sites\": [\n";
    for (size_t i = 0; i < input.quarantined->size(); ++i) {
      const JournalQuarantineRecord& q = (*input.quarantined)[i];
      snprintf(line, sizeof(line), "    {\"index\": %zu, \"crashes\": %zu, \"signature\": ",
               q.site_index, q.crashes);
      json += line;
      JsonAppendQuoted(json, q.signature);
      json += i + 1 < input.quarantined->size() ? "},\n" : "}\n";
    }
    json += "  ],\n";
  }
  json += "  \"sites\": [\n";
  const size_t n = input.per_site != nullptr ? input.per_site->size() : 0;
  for (size_t i = 0; i < n; ++i) {
    const ExperimentResult& result = (*input.per_site)[i];
    const StageResult* sr = result.stages.empty() ? nullptr : &result.stages[0];
    const bool stopped = sr != nullptr && sr->stopped;
    snprintf(line, sizeof(line),
             "    {\"index\": %zu, \"aborted\": %s, \"stopped\": %s, \"stop_at\": %zu}%s\n", i,
             result.aborted ? "true" : "false", stopped ? "true" : "false",
             stopped ? sr->stopping_crowd_size : 0, i + 1 < n ? "," : "");
    json += line;
  }
  json += "  ]\n}\n";
  return json;
}

}  // namespace mfc
