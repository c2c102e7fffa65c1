// Perf macrobench: fig9-shaped Large Object survey (the allocator-heaviest
// stage — every crowd client holds a concurrent flow on the server access
// link) across the four Quantcast rank bands. Emits BENCH_survey.json with
// sites/sec plus the full breakdown counts, so a run doubles as a result-
// identity check across allocator rewrites: same commit-to-commit counts or
// the speedup is measuring different work.
//
// The headline also records the flow-network work behind it (reallocs: water-
// filling passes run; skipped_reallocs: events an exactness certificate
// resolved without one; flows_touched: flows those passes visited), counted
// on an untimed replay of the same sites.
//
// Three non-headline scenarios ride along: the rank3 band re-run as a 2-way
// interleaved shard partition (whose summed breakdown must equal the
// headline's single-process run — the shard-equivalence contract of
// DESIGN.md §12, timed), the same band run 4-way under the multi-process
// SurveySupervisor (DESIGN.md §14 — fork/exec/wait overhead on top of the
// simulation, the unattended-survey configuration), and the streaming
// long-tail sampler regenerating sites from (seed, cohort, index) with no
// instances vector.
//
//   perf_survey [--repeats=N] [--sites=N] [--jobs=N] [--out=PATH]
#include <unistd.h>

#include <cstdint>
#include <cstring>

#include "bench/perf_util.h"
#include "src/core/experiment_runner.h"
#include "src/core/population.h"
#include "src/core/supervisor.h"
#include "src/core/survey.h"

namespace {

// Replays site |index| of a fig9 band untimed with the steps, options and
// seeds of RunSiteExperiment (src/core/experiment_runner.cc), keeping the
// deployment so its flow-network counters can be added to |work|. Returns the
// verdict so the caller can check it matches the timed run's.
mfc::ExperimentResult ReplayForNetworkWork(mfc::Cohort cohort, uint64_t survey_seed,
                                           size_t index, mfc::FlowNetworkStats& work) {
  mfc::ExperimentConfig config;  // as RunSurveyCohortParallel builds it
  config.threshold = mfc::Millis(100);
  config.crowd_step = 5;
  config.max_crowd = 85;
  config.min_clients = 50;
  const mfc::SiteInstance instance = mfc::SampleSiteAt(survey_seed, cohort, index);
  const uint64_t seed = mfc::SiteExperimentSeed(survey_seed, cohort, index);
  mfc::DeploymentOptions options;
  options.seed = seed;
  options.fleet_size = std::max<size_t>(config.min_clients, 85);
  options.background_rps = instance.background_rps;
  mfc::Deployment deployment(instance, options);
  mfc::StageObjects objects = deployment.ObjectsFromContent();
  mfc::Coordinator coordinator(deployment.Testbed(), config, seed ^ 0x9e3779b9);
  deployment.StartBackground();
  mfc::ExperimentResult result = coordinator.Run(objects, {mfc::StageKind::kLargeObject});
  deployment.StopBackground();
  const mfc::FlowNetworkStats& net = deployment.Testbed().Wan().Flows().Stats();
  work.reallocs += net.reallocs;
  work.skipped_reallocs += net.skipped_reallocs;
  work.flows_touched += net.flows_touched;
  return result;
}

// Re-exec target for the supervised scenario: run one 4-way shard of the
// rank3 band and write its breakdown counts where the parent can fold them.
// Handled before ParsePerfArgs — it is not a user-facing flag.
int RunSupervisedWorker(int argc, char** argv) {
  size_t shard = 0, sites = 0, jobs = 1;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    if (sscanf(argv[i], "--supervised-worker=%zu", &shard) == 1) continue;
    if (sscanf(argv[i], "--worker-sites=%zu", &sites) == 1) continue;
    if (sscanf(argv[i], "--worker-jobs=%zu", &jobs) == 1) continue;
    if (strncmp(argv[i], "--worker-out=", 13) == 0) out = argv[i] + 13;
  }
  if (sites == 0 || out.empty()) {
    return 2;
  }
  mfc::SurveyRunOptions run;
  run.shards = 4;
  run.shard_index = shard;
  mfc::SurveyBreakdown b = mfc::RunSurveyCohortParallel(
      mfc::Cohort::kRank10KTo100K, mfc::StageKind::kLargeObject, sites, 85, 902, jobs,
      nullptr, nullptr, nullptr, run);
  FILE* f = fopen(out.c_str(), "w");
  if (!f) {
    return 1;
  }
  fprintf(f, "%zu %zu %zu %zu %zu %zu %zu %zu\n", b.servers, b.b10, b.b20, b.b30, b.b40,
          b.b50, b.b50plus, b.nostop);
  fclose(f);
  return 0;
}

std::string SelfExePath(const char* fallback) {
  char buf[4096];
  ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    return fallback;
  }
  buf[n] = '\0';
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && strncmp(argv[1], "--supervised-worker=", 20) == 0) {
    return RunSupervisedWorker(argc, argv);
  }
  mfc::PerfArgs args = mfc::ParsePerfArgs(argc, argv, "BENCH_survey.json");
  if (!args.ok) {
    return 2;
  }
  size_t sites_per_band = args.sites > 0 ? args.sites : 24;
  // Default jobs=1: sites/sec then measures the hot path, not the core count,
  // and numbers stay comparable across differently-sized machines.
  size_t jobs = args.jobs > 0 ? args.jobs : 1;

  const mfc::Cohort kBands[] = {mfc::Cohort::kRank1To1K, mfc::Cohort::kRank1KTo10K,
                                mfc::Cohort::kRank10KTo100K, mfc::Cohort::kRank100KTo1M};
  const char* kBandNames[] = {"rank1", "rank2", "rank3", "rank4"};

  mfc::PerfReport report("survey", jobs);
  mfc::PerfScenario all;
  all.name = "fig9_large_object";
  all.items_unit = "sites";
  all.items = 4 * sites_per_band;
  mfc::SurveyBreakdown breakdowns[4];
  std::vector<mfc::ExperimentResult> verdicts[4];
  for (size_t rep = 0; rep < args.repeats; ++rep) {
    mfc::PerfTimer timer;
    uint64_t seed = 900;
    for (int band = 0; band < 4; ++band) {
      mfc::SurveyBreakdown b = mfc::RunSurveyCohortParallel(
          kBands[band], mfc::StageKind::kLargeObject, sites_per_band, 85, seed++, jobs,
          rep == 0 ? &verdicts[band] : nullptr);
      if (rep == 0) {
        breakdowns[band] = b;
      } else if (!(b == breakdowns[band])) {
        fprintf(stderr, "non-deterministic breakdown in band %s\n", kBandNames[band]);
        return 1;
      }
    }
    all.wall_seconds.push_back(timer.Seconds());
  }
  mfc::FlowNetworkStats work;
  for (int band = 0; band < 4; ++band) {
    for (size_t i = 0; i < sites_per_band; ++i) {
      const mfc::StageResult& timed = verdicts[band][i].stages.at(0);
      const mfc::StageResult replayed =
          ReplayForNetworkWork(kBands[band], 900 + band, i, work).stages.at(0);
      if (replayed.stopped != timed.stopped ||
          replayed.stopping_crowd_size != timed.stopping_crowd_size) {
        fprintf(stderr, "network-work replay of %s site %zu gave another verdict\n",
                kBandNames[band], i);
        return 1;
      }
    }
  }
  all.extras.emplace_back("reallocs", static_cast<double>(work.reallocs));
  all.extras.emplace_back("skipped_reallocs", static_cast<double>(work.skipped_reallocs));
  all.extras.emplace_back("flows_touched", static_cast<double>(work.flows_touched));
  // Breakdown counts double as a cross-allocator result fingerprint.
  for (int band = 0; band < 4; ++band) {
    const mfc::SurveyBreakdown& b = breakdowns[band];
    size_t stopped = b.servers - b.nostop;
    all.extras.emplace_back(std::string(kBandNames[band]) + "_stopped",
                            static_cast<double>(stopped));
    all.extras.emplace_back(std::string(kBandNames[band]) + "_le10",
                            static_cast<double>(b.b10));
    all.extras.emplace_back(std::string(kBandNames[band]) + "_nostop",
                            static_cast<double>(b.nostop));
  }
  report.Add(std::move(all));

  // Sharded partition of the headline's rank3 band: shard 0 + shard 1 run
  // back to back (one process standing in for two), and their summed
  // breakdown must reproduce the single-process band bucket for bucket.
  mfc::PerfScenario sharded;
  sharded.name = "sharded_2way_rank3";
  sharded.items_unit = "sites";
  sharded.items = sites_per_band;
  mfc::SurveyBreakdown combined;
  for (size_t rep = 0; rep < args.repeats; ++rep) {
    mfc::PerfTimer timer;
    mfc::SurveyBreakdown shard_sum;
    shard_sum.cohort = kBands[2];
    for (size_t shard = 0; shard < 2; ++shard) {
      mfc::SurveyRunOptions run;
      run.shards = 2;
      run.shard_index = shard;
      mfc::SurveyBreakdown b = mfc::RunSurveyCohortParallel(
          kBands[2], mfc::StageKind::kLargeObject, sites_per_band, 85, 902, jobs,
          nullptr, nullptr, nullptr, run);
      shard_sum.servers += b.servers;
      shard_sum.b10 += b.b10;
      shard_sum.b20 += b.b20;
      shard_sum.b30 += b.b30;
      shard_sum.b40 += b.b40;
      shard_sum.b50 += b.b50;
      shard_sum.b50plus += b.b50plus;
      shard_sum.nostop += b.nostop;
    }
    if (rep == 0) {
      combined = shard_sum;
    }
    if (!(shard_sum == combined) || !(shard_sum == breakdowns[2])) {
      fprintf(stderr, "2-way shard partition does not reproduce the rank3 band\n");
      return 1;
    }
    sharded.wall_seconds.push_back(timer.Seconds());
  }
  report.Add(std::move(sharded));

  // The same rank3 band as a real supervised fleet: fork/exec 4 shard worker
  // processes (re-execing this binary in --supervised-worker mode) under the
  // SurveySupervisor and fold their written breakdowns. Times what an
  // unattended `mfc_profile --supervise` run pays on top of the simulation —
  // process launch, heartbeat polling, exit collection — and re-checks the
  // shard-equivalence contract across a process boundary.
  mfc::PerfScenario supervised;
  supervised.name = "supervised_fig9_4shard";
  supervised.items_unit = "sites";
  supervised.items = sites_per_band;
  std::string self_exe = SelfExePath(argv[0]);
  std::string worker_prefix = args.out_path + ".supworker";
  for (size_t rep = 0; rep < args.repeats; ++rep) {
    for (size_t shard = 0; shard < 4; ++shard) {
      remove((worker_prefix + std::to_string(shard)).c_str());
    }
    mfc::PerfTimer timer;
    mfc::SupervisorOptions opt;
    opt.shards = 4;
    opt.command = [&](size_t shard, bool sequential) {
      return std::vector<std::string>{
          self_exe, "--supervised-worker=" + std::to_string(shard),
          "--worker-sites=" + std::to_string(sites_per_band),
          "--worker-jobs=" + std::to_string(sequential ? 1 : jobs),
          "--worker-out=" + worker_prefix + std::to_string(shard)};
    };
    for (size_t shard = 0; shard < 4; ++shard) {
      opt.journal_paths.push_back(worker_prefix + std::to_string(shard));
    }
    opt.hang_timeout = 600.0;  // workers journal nothing; never hang-kill
    opt.poll_interval = 0.002;
    opt.log = nullptr;
    mfc::SupervisorResult sup = mfc::SurveySupervisor(std::move(opt)).Run();
    if (!sup.ok) {
      fprintf(stderr, "supervised 4-shard run failed: %s\n", sup.error.c_str());
      return 1;
    }
    mfc::SurveyBreakdown shard_sum;
    shard_sum.cohort = kBands[2];
    for (size_t shard = 0; shard < 4; ++shard) {
      std::string out_file = worker_prefix + std::to_string(shard);
      FILE* f = fopen(out_file.c_str(), "r");
      size_t v[8] = {0};
      if (!f || fscanf(f, "%zu %zu %zu %zu %zu %zu %zu %zu", &v[0], &v[1], &v[2], &v[3],
                       &v[4], &v[5], &v[6], &v[7]) != 8) {
        fprintf(stderr, "supervised worker %zu left no breakdown in %s\n", shard,
                out_file.c_str());
        if (f) fclose(f);
        return 1;
      }
      fclose(f);
      remove(out_file.c_str());
      shard_sum.servers += v[0];
      shard_sum.b10 += v[1];
      shard_sum.b20 += v[2];
      shard_sum.b30 += v[3];
      shard_sum.b40 += v[4];
      shard_sum.b50 += v[5];
      shard_sum.b50plus += v[6];
      shard_sum.nostop += v[7];
    }
    if (!(shard_sum == breakdowns[2])) {
      fprintf(stderr, "supervised 4-shard partition does not reproduce the rank3 band\n");
      return 1;
    }
    supervised.wall_seconds.push_back(timer.Seconds());
  }
  report.Add(std::move(supervised));

  // Streaming long-tail sampling: regenerate sites_per_band * 2500 sites as
  // pure functions of (seed, cohort, index). The checksum keeps the work
  // live and doubles as a cross-repeat determinism fingerprint.
  mfc::PerfScenario stream;
  stream.name = "longtail_stream_sample";
  stream.items_unit = "sites";
  stream.items = sites_per_band * 2500;
  uint64_t checksum = 0;
  for (size_t rep = 0; rep < args.repeats; ++rep) {
    mfc::PerfTimer timer;
    uint64_t sum = 0;
    for (size_t i = 0; i < stream.items; ++i) {
      mfc::SiteInstance inst = mfc::SampleSiteAt(4242, mfc::Cohort::kLongTail, i);
      sum += mfc::SiteExperimentSeed(4242, mfc::Cohort::kLongTail, i) ^
             static_cast<uint64_t>(inst.base_knee * 1e3) ^
             static_cast<uint64_t>(inst.background_rps * 1e3);
    }
    if (rep == 0) {
      checksum = sum;
    }
    if (sum != checksum) {
      fprintf(stderr, "non-deterministic long-tail stream\n");
      return 1;
    }
    stream.wall_seconds.push_back(timer.Seconds());
  }
  stream.extras.emplace_back("checksum_low32", static_cast<double>(checksum & 0xFFFFFFFF));
  report.Add(std::move(stream));
  return report.Finish(args.out_path);
}
