// Cohort surveys (Section 5): run one MFC stage against N sites sampled from
// a cohort and aggregate the paper's stopping-crowd-size breakdown.
//
// Determinism contract: site i is a pure function of (seed, cohort, i) —
// provisioning comes from Rng(SiteSampleSeed(seed, cohort, i)) and the
// experiment runs under SiteExperimentSeed(seed, cohort, i), both
// SplitMix64 mixes with no collisions across surveys (DESIGN.md §12) — and
// per-site results land in index-ordered slots before aggregation, so the
// breakdown is bit-identical for any jobs count, any shard partition of the
// index space, and any resume point. Tools drive surveys through
// SurveySession (survey_session.h), which owns flags, journal and outputs.
#ifndef MFC_SRC_CORE_SURVEY_H_
#define MFC_SRC_CORE_SURVEY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/core/experiment_runner.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/trace.h"

namespace mfc {

class ProgressLine;
class StatsStream;
class SurveyJournal;
struct JournalSiteRecord;

// Optional observability for a survey run. Each site experiment records into
// its own site record (its simulation world runs on one worker thread);
// after all tasks finish the records are folded into |metrics| and |trace|
// in site-index order, so the merged outputs are byte-identical for any
// --jobs value. In the merged trace each site's spans carry pid = its global
// site index (offset by |next_pid| across successive cohorts).
struct SurveyTelemetry {
  bool collect_trace = false;
  bool collect_metrics = false;
  // Runtime health plane (DESIGN.md §11): while the cohort runs, a sampler
  // thread periodically captures done/total, sites/sec, ETA, journal lag and
  // per-worker state, feeding the JSONL |stats| stream and/or the single
  // redrawn terminal |progress_line|. Both null = sampler never starts and
  // the run is exactly the pre-health-plane code path.
  StatsStream* stats = nullptr;
  ProgressLine* progress_line = nullptr;
  double stats_interval = 1.0;  // wall-clock seconds between samples
  std::string stats_label;      // snapshot label (cohort/run name)

  MetricsRegistry metrics;  // merged, deterministic
  Tracer trace;             // merged, deterministic
  uint64_t next_pid = 0;    // first pid the next survey call will assign

  bool Enabled() const { return collect_trace || collect_metrics; }
  bool HealthAttached() const { return stats != nullptr || progress_line != nullptr; }
};

struct SurveyBreakdown {
  Cohort cohort = Cohort::kRank1To1K;
  size_t servers = 0;
  // Counts by stopping bucket: <=10, 10-20, 20-30, 30-40, 40-50, 50+..max, NoStop.
  size_t b10 = 0, b20 = 0, b30 = 0, b40 = 0, b50 = 0, b50plus = 0, nostop = 0;

  bool operator==(const SurveyBreakdown&) const = default;
};

// Folds one site's result into the breakdown (aborted experiments and
// object-less stages are skipped, matching the paper's "could not run" rows).
void AccumulateBreakdown(SurveyBreakdown& breakdown, const ExperimentResult& result);

// Folds one finished site into a survey's outputs: its verdict into
// |breakdown|, its metrics into |metrics| and its spans into |trace| under
// pid record.pid. A null output is skipped. Surveys (executed and replayed
// sites alike), shard merge and mfc_profile's single experiment all fold
// through here, sites in global index order, which is what makes their
// outputs byte-identical to one another.
void FoldSiteRecord(const JournalSiteRecord& record, SurveyBreakdown* breakdown,
                    MetricsRegistry* metrics, Tracer* trace);

// How one RunSurveyCohortParallel call partitions and seeds the survey.
// Sharding is by interleaved site index: this process runs global sites i
// with i % shards == shard_index (global index = shard_index + local *
// shards), so every shard samples the load-heavy head and tail of a cohort
// evenly. Per-site seeds, journal records, pids and per_site slots all use
// the GLOBAL index — a k-shard run writes exactly the records a 1-process
// run would, partitioned — which is what makes shard_merge able to rebuild
// the single-process output byte for byte.
struct SurveyRunOptions {
  size_t shards = 1;       // total shard count (1 = unsharded)
  size_t shard_index = 0;  // this process's shard in [0, shards)
};

// Runs this shard's slice of |servers| independent site experiments across
// |jobs| workers (0 = MFC_JOBS env / hardware default; 1 = sequential).
// Sites stream from SampleSiteAt on demand — no up-front instances vector.
// When |per_site| is non-null it receives |servers| index-ordered slots with
// this shard's results filled in (other shards' slots stay default). A slot
// replayed from the journal holds the verdict and epoch summary only: its
// EpochResult::samples are empty, while executed sites keep theirs.
// |telemetry|, when non-null and enabled, accumulates merged per-site
// traces/metrics (see SurveyTelemetry).
//
// |journal|, when non-null, makes the run crash-safe: the caller must have
// called journal->BeginCohort for this cohort first (with matching shard
// options). Sites already present in the journal replay their site record
// (result and, when collected, telemetry) instead of executing; every live
// site is appended as it completes (fsynced in groups, DESIGN.md §9).
// Because records fold in index order either way, a resumed run is
// byte-identical to an uninterrupted one for any --jobs. With a journal the
// run also polls ShutdownRequested(): on a signal, in-flight sites drain,
// unstarted sites are skipped (their per_site slots stay default — ignored
// by AccumulateBreakdown), and journal->interrupted is set.
SurveyBreakdown RunSurveyCohortParallel(Cohort cohort, StageKind stage, size_t servers,
                                        size_t max_crowd, uint64_t seed, size_t jobs,
                                        std::vector<ExperimentResult>* per_site = nullptr,
                                        SurveyTelemetry* telemetry = nullptr,
                                        SurveyJournal* journal = nullptr,
                                        const SurveyRunOptions& run = {});

}  // namespace mfc

#endif  // MFC_SRC_CORE_SURVEY_H_
