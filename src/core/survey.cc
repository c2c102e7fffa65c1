#include "src/core/survey.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "src/core/arg_parse.h"
#include "src/core/journal/journal.h"
#include "src/core/journal/shutdown.h"
#include "src/core/parallel_runner.h"
#include "src/telemetry/stats_stream.h"

namespace mfc {

void AccumulateBreakdown(SurveyBreakdown& breakdown, const ExperimentResult& result) {
  const StageResult* stage_result = result.stages.empty() ? nullptr : &result.stages[0];
  if (result.aborted || stage_result == nullptr) {
    return;
  }
  ++breakdown.servers;
  if (!stage_result->stopped) {
    ++breakdown.nostop;
  } else if (stage_result->stopping_crowd_size <= 10) {
    ++breakdown.b10;
  } else if (stage_result->stopping_crowd_size <= 20) {
    ++breakdown.b20;
  } else if (stage_result->stopping_crowd_size <= 30) {
    ++breakdown.b30;
  } else if (stage_result->stopping_crowd_size <= 40) {
    ++breakdown.b40;
  } else if (stage_result->stopping_crowd_size <= 50) {
    ++breakdown.b50;
  } else {
    ++breakdown.b50plus;
  }
}

void FoldSiteRecord(const JournalSiteRecord& record, SurveyBreakdown* breakdown,
                    MetricsRegistry* metrics, Tracer* trace) {
  if (breakdown != nullptr) {
    AccumulateBreakdown(*breakdown, record.result);
  }
  if (metrics != nullptr) {
    metrics->Merge(record.metrics);
  }
  if (trace != nullptr) {
    trace->MergeFrom(record.trace_spans, record.pid);
  }
}

SurveyBreakdown RunSurveyCohortParallel(Cohort cohort, StageKind stage, size_t servers,
                                        size_t max_crowd, uint64_t seed, size_t jobs,
                                        std::vector<ExperimentResult>* per_site,
                                        SurveyTelemetry* telemetry, SurveyJournal* journal,
                                        const SurveyRunOptions& run) {
  ExperimentConfig config;
  config.threshold = Millis(100);
  config.crowd_step = 5;
  config.max_crowd = max_crowd;
  config.min_clients = 50;

  // Sites stream on demand: instance i is regenerated from its own
  // SplitMix64-derived seed whenever a worker needs it, so even a 1M-site
  // survey holds no instances vector. This process covers the interleaved
  // shard { run.shard_index, run.shard_index + shards, ... } of the global
  // index space; everything observable (seeds, journal records, pids,
  // per_site slots) is keyed by GLOBAL index so shard outputs merge
  // byte-identically.
  const size_t shard_count = run.shards == 0 ? 1 : run.shards;
  const size_t shard_index = run.shard_index % shard_count;
  const size_t local_count =
      servers > shard_index ? (servers - shard_index - 1) / shard_count + 1 : 0;
  auto global_of = [shard_index, shard_count](size_t local) {
    return shard_index + local * shard_count;
  };

  // One site record per local slot, filled only by the task that owns it:
  // an executed site writes its result, spans and metrics into its record, a
  // replayed site takes the journal's record, and a quarantined or skipped
  // site stays empty (a default result, which AccumulateBreakdown ignores).
  // The records fold in (global) index order below, so the breakdown and
  // merged telemetry are byte-identical for any jobs count.
  const bool observe = telemetry != nullptr && telemetry->Enabled();
  std::vector<JournalSiteRecord> records(local_count);
  std::atomic<size_t> processed{0};
  const uint64_t pid_base = telemetry != nullptr ? telemetry->next_pid : 0;

  // Fault-injection hook for the supervisor's chaos gate (DESIGN.md §14):
  // when MFC_CRASH_SITE names a global site index, *executing* that site
  // aborts the process. Replayed and quarantined sites never trip it, so a
  // quarantine decision demonstrably un-wedges the shard. A value that is
  // not a site index (empty, negative, trailing garbage) crashes nothing and
  // warns once per process.
  size_t crash_site = SIZE_MAX;
  const char* crash_env = getenv("MFC_CRASH_SITE");
  if (crash_env != nullptr && !ParseSizeValue(crash_env, &crash_site)) {
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true)) {
      fprintf(stderr, "warning: MFC_CRASH_SITE=\"%s\" is not a site index; crashing no site\n",
              crash_env);
    }
  }

  auto run_site = [&](size_t local) {
    const size_t i = global_of(local);
    JournalSiteRecord& record = records[local];
    // A quarantined site (poisoned: it crashed this shard's worker
    // repeatedly) is skipped entirely: its record stays empty and no site
    // record is ever appended for it.
    if (journal != nullptr && journal->Quarantined(i) != nullptr) {
      processed.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    // Replay from the journal when this site already completed in an
    // earlier (interrupted) run: its record is exactly what the live path
    // would have produced.
    if (const JournalSiteRecord* replay = journal != nullptr ? journal->Replayed(i) : nullptr) {
      record = *replay;
      journal->resumed_sites.fetch_add(1, std::memory_order_relaxed);
      processed.fetch_add(1, std::memory_order_relaxed);
      return;
    }

    record.cohort_ordinal = journal != nullptr ? journal->CurrentOrdinal() : 0;
    record.site_index = i;
    record.seed = SiteExperimentSeed(seed, cohort, i);
    record.stage = stage;
    record.pid = pid_base + i;
    Tracer tracer;
    Telemetry site_telemetry;
    if (observe) {
      record.has_trace = telemetry->collect_trace;
      record.has_metrics = telemetry->collect_metrics;
      site_telemetry.tracer = record.has_trace ? &tracer : nullptr;
      site_telemetry.metrics = record.has_metrics ? &record.metrics : nullptr;
    }
    if (i == crash_site) {
      fprintf(stderr, "[survey] MFC_CRASH_SITE: crashing on site index %zu\n", i);
      abort();
    }
    record.result = RunSiteExperiment(SampleSiteAt(seed, cohort, i), config, {stage}, record.seed,
                                      observe ? &site_telemetry : nullptr);
    record.trace_spans = tracer.Spans();
    if (journal != nullptr) {
      journal->AppendSite(record);
    }
    processed.fetch_add(1, std::memory_order_relaxed);
  };

  ParallelRunner runner(jobs);

  // Health-plane sampler (DESIGN.md §11): reads only the atomics the run
  // already maintains, so attaching it cannot change results or scheduling.
  std::unique_ptr<ParallelProgress> worker_progress;
  std::unique_ptr<SurveyStatsSampler> sampler;
  if (telemetry != nullptr && telemetry->HealthAttached()) {
    worker_progress = std::make_unique<ParallelProgress>(runner.Jobs());
    SurveySamplerSource source;
    source.label = telemetry->stats_label;
    source.processed = &processed;
    source.total = local_count;
    if (journal != nullptr) {
      source.journal_executed = &journal->executed_sites;
      source.journal_resumed = &journal->resumed_sites;
    }
    source.workers = worker_progress.get();
    sampler = std::make_unique<SurveyStatsSampler>(telemetry->stats, telemetry->progress_line,
                                                   telemetry->stats_interval, source);
    sampler->Start();
  }

  // Journaled runs are cancelable: a shutdown signal drains in-flight sites
  // (which still reach the journal) and skips the rest.
  runner.RunIndexed(local_count, run_site, journal != nullptr ? ShutdownRequested : nullptr,
                    worker_progress.get());
  if (journal != nullptr && processed.load(std::memory_order_relaxed) < local_count) {
    journal->interrupted.store(true, std::memory_order_relaxed);
  }
  if (sampler != nullptr) {
    sampler->Stop();  // emits the final done/total snapshot
  }

  SurveyBreakdown breakdown;
  breakdown.cohort = cohort;
  for (const JournalSiteRecord& record : records) {
    FoldSiteRecord(record, &breakdown, observe ? &telemetry->metrics : nullptr,
                   observe ? &telemetry->trace : nullptr);
  }
  if (observe) {
    // Advance by the GLOBAL site count: successive cohorts get the same pid
    // layout in every shard, matching the single-process run they merge to.
    telemetry->next_pid += servers;
  }
  if (per_site != nullptr) {
    per_site->clear();
    per_site->resize(servers);
    for (size_t local = 0; local < records.size(); ++local) {
      (*per_site)[global_of(local)] = std::move(records[local].result);
    }
  }
  return breakdown;
}

}  // namespace mfc
