// Shard-merge: fold the journals written by a sharded survey (DESIGN.md §12)
// back into the outputs a single-process run would have produced.
//
// A k-shard survey runs the same global site index space as an unsharded one,
// interleaved: shard j executes sites {j, j+k, j+2k, ...} and journals each
// with its GLOBAL index, seed and merged-trace pid. That makes the k shard
// journals exactly a partition of the records one process would have written
// — so merging is validation plus an index-ordered fold, no re-execution:
//
//   1. every journal parses, and all carry the same tool + fingerprint;
//   2. per cohort ordinal, the shards' cohort records agree on everything
//      except shard_index, and the shard_index values are exactly 0..k-1;
//   3. every global site of every cohort is present in its owning shard
//      (a gap means that shard was interrupted — resume it first), with one
//      legal exception: a site covered by a quarantine record (DESIGN.md
//      §14) was deliberately skipped and is surfaced in the merged report
//      instead of failing the merge. A shard with a cohort record but zero
//      site records is classified "resumable, zero progress" — a worker
//      that died between BeginCohort and its first site, not corruption;
//   4. sites fold in (ordinal, global index) order through FoldSiteRecord,
//      the function RunSurveyCohortParallel folds its own site records
//      with, so the outputs are byte-identical.
#ifndef MFC_SRC_CORE_SHARD_MERGE_H_
#define MFC_SRC_CORE_SHARD_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/journal/journal.h"
#include "src/core/survey.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace mfc {

// One merged survey: everything a single-process run at the same seed would
// have in hand after its cohorts finished.
struct ShardMergeResult {
  std::string tool;
  std::string fingerprint;
  // Cohort parameters in ordinal order (shard_index rewritten to 0,
  // shards to 1 — the merged view is an unsharded run).
  std::vector<JournalCohortRecord> cohorts;
  // Per cohort: breakdown + per-site results in global index order.
  std::vector<SurveyBreakdown> breakdowns;
  std::vector<std::vector<ExperimentResult>> per_site;
  // Per cohort: quarantined sites in global index order. Their per_site
  // slots stay default-constructed (excluded from the breakdown), mirroring
  // what the surviving worker computed.
  std::vector<std::vector<JournalQuarantineRecord>> quarantined;
  // Folded telemetry; empty when the shards recorded none.
  MetricsRegistry metrics;
  Tracer trace;
  bool has_trace = false;
  bool has_metrics = false;
};

// Merges the shard journals at |paths| (one per shard, any order). Returns
// false and fills |error| when the shards are inconsistent or incomplete;
// a missing site names the journal to resume. |out| is only valid on success.
bool MergeShardJournals(const std::vector<std::string>& paths, ShardMergeResult* out,
                        std::string* error);

// Canonical single-cohort survey report. Both a single-process
// `mfc_profile --survey --json` run and `mfc_profile --merge` build their
// report through this function, which is what makes "merged output is
// byte-identical to the unsharded run" checkable with a plain byte compare.
struct SurveyReportInput {
  std::string cohort_name;
  int stage = 0;
  size_t servers = 0;
  size_t max_crowd = 0;
  uint64_t seed = 0;
  SurveyBreakdown breakdown;
  // Per-site results in global index order, exactly |servers| entries.
  const std::vector<ExperimentResult>* per_site = nullptr;
  // Sites excluded by supervisor quarantine, in global index order. The
  // report gains a "quarantined_sites" array only when non-empty, so
  // quarantine-free runs stay byte-identical to earlier versions.
  const std::vector<JournalQuarantineRecord>* quarantined = nullptr;
};
std::string BuildSurveyReportJson(const SurveyReportInput& input);

}  // namespace mfc

#endif  // MFC_SRC_CORE_SHARD_MERGE_H_
