// Survey benchmark driver: runs MFC site experiments one at a time through
// the public survey API (closed loop, one thread: the next site starts when
// the previous one returns) and prints one JSON result line.
//
//   mfc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--setup-only]
//
// A run times passes over one fixed, seed-derived set of sites, as many as
// fit in --seconds and at least one. --trace 0 reports the end-to-end
// metrics from untraced passes; --trace 1 alternates untraced and traced
// passes, at least one of each, and reports per-layer attribution
// (timed_harness.h) plus the tracing overhead.
// Every run ends with a correctness gate; a failed check sets "correct":
// false, empties the metrics and exits 1. perfbench/README.md documents the
// workloads and every metric; perfbench/run.py builds this program and is the
// command to run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "perfbench/timed_harness.h"
#include "src/core/export.h"
#include "src/core/journal/journal.h"
#include "src/core/survey.h"

namespace mfc::perfbench {
namespace {

constexpr size_t kMaxCrowd = 85;  // every survey bench's crowd ceiling

struct Workload {
  const char* name;
  std::vector<Cohort> cohorts;
  StageKind stage;
  size_t sites_per_cohort;
  bool observed;  // merged metrics collection + crash-safe journal
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Cohort> kRankBands = {Cohort::kRank1To1K, Cohort::kRank1KTo10K,
                                                 Cohort::kRank10KTo100K, Cohort::kRank100KTo1M};
  // Site counts make one pass about 7.5 s at the reference speed. The spread
  // of a metric across seeds is sampling noise over the site mix and shrinks
  // with the square root of the count, so a pass is as large as the run
  // length allows.
  static const std::vector<Workload> kWorkloads = {
      {"large_object", kRankBands, StageKind::kLargeObject, 96, false},
      {"base", kRankBands, StageKind::kBase, 350, false},
      {"longtail_query", {Cohort::kLongTail}, StageKind::kSmallQuery, 500, false},
      {"base_observed", kRankBands, StageKind::kBase, 250, true},
  };
  return kWorkloads;
}

// The ExperimentConfig RunSurveyCohortParallel builds (src/core/survey.cc);
// the per-run gate proves the two agree by comparing breakdowns and verdicts.
ExperimentConfig SurveyConfig() {
  ExperimentConfig config;
  config.threshold = Millis(100);
  config.crowd_step = 5;
  config.max_crowd = kMaxCrowd;
  config.min_clients = 50;
  return config;
}

// One cohort of the run's site set: sites [0, count) of the survey
// (cohort, survey_seed), exactly the sites RunSurveyCohortParallel runs.
struct Band {
  Cohort cohort;
  uint64_t survey_seed;
};

struct Plan {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  std::vector<Band> bands;
  size_t SitesPerPass() const { return bands.size() * workload->sites_per_cohort; }
};

Plan MakePlan(const Workload& workload, uint64_t seed) {
  Plan plan;
  plan.workload = &workload;
  plan.seed = seed;
  for (size_t b = 0; b < workload.cohorts.size(); ++b) {
    // Distinct survey seeds per (seed, band); the benches use consecutive
    // seeds per band the same way (fig9: 900..903).
    plan.bands.push_back(Band{workload.cohorts[b], seed * 4 + b});
  }
  return plan;
}

// ---- verdict digests and the correctness gate ------------------------------

uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 0xcbf29ce484222325ULL) {
  for (unsigned char c : bytes) {
    hash = (hash ^ c) * 0x100000001b3ULL;
  }
  return hash;
}

// Digest of the full result in the journal's exact encoding (bit-pattern
// doubles), so any difference in any epoch or sample changes it.
uint64_t VerdictDigest(const ExperimentResult& result) {
  return Fnv1a(EncodeExperimentResult(result));
}

class Gate {
 public:
  void Require(bool ok, const std::string& what) {
    if (!ok) {
      failures_.push_back(what);
    }
  }
  // Site-for-site comparison; names the first differing site.
  void RequireSameDigests(const std::vector<uint64_t>& expected,
                          const std::vector<uint64_t>& actual, const std::string& what) {
    if (expected.size() != actual.size()) {
      Require(false, what + ": " + std::to_string(actual.size()) + " sites, expected " +
                         std::to_string(expected.size()));
      return;
    }
    for (size_t i = 0; i < expected.size(); ++i) {
      if (expected[i] != actual[i]) {
        Require(false, what + ": site " + std::to_string(i) + " verdict differs");
        return;
      }
    }
  }
  bool Passed() const { return failures_.empty(); }
  const std::vector<std::string>& Failures() const { return failures_; }

 private:
  std::vector<std::string> failures_;
};

// Nearest-rank percentile. Refuses (nullopt) unless at least ten samples lie
// beyond the chosen rank, so a reported tail percentile is never one outlier.
std::optional<double> Percentile(std::vector<double> values, double p) {
  const size_t n = values.size();
  if (n == 0 || p <= 0.0 || p > 100.0) {
    return std::nullopt;
  }
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) {
    return std::nullopt;
  }
  std::nth_element(values.begin(), values.begin() + static_cast<long>(rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Why a site gave no verdict, counted against sites attempted.
struct Outcomes {
  size_t attempted = 0;
  size_t no_probe_object = 0;  // the stage had no qualifying object
  size_t aborted = 0;          // registration check failed
  size_t quorum_failed = 0;    // the stage ended kQuorumFailed

  void Count(const ExperimentResult& result) {
    ++attempted;
    if (result.aborted) {
      ++aborted;
    } else if (result.stages.empty()) {
      ++no_probe_object;
    } else if (result.stages[0].end_reason == StageEndReason::kQuorumFailed) {
      ++quorum_failed;
    }
  }
  size_t Failed() const { return no_probe_object + aborted + quorum_failed; }
  double Frac(size_t n) const {
    return attempted == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(attempted);
  }
};

// FNV-1a of a file's bytes, streamed so a large journal never sits in memory
// (peak_rss_mb must measure the survey, not this check). |size| gets the
// byte count.
uint64_t FileDigest(const std::string& path, uint64_t* size) {
  std::ifstream in(path, std::ios::binary);
  uint64_t hash = Fnv1a("");
  *size = 0;
  char buf[1 << 16];
  while (in.read(buf, sizeof(buf)) || in.gcount() > 0) {
    hash = Fnv1a(std::string_view(buf, static_cast<size_t>(in.gcount())), hash);
    *size += static_cast<uint64_t>(in.gcount());
  }
  return hash;
}

// Peak resident set of this process image (VmHWM, in MB). Unlike ru_maxrss
// it starts afresh at exec, so the launching interpreter is not counted.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return strtod(line.c_str() + strlen("VmHWM:"), nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

// ---- machine-speed normalisation ----------------------------------------------
//
// A shared host drifts in speed by up to ±25% over tens of seconds. On a
// 4-vCPU VM the host time of one fixed site and of the fixed kernel below
// moved together (correlation 0.8), so the drift would swamp the changes
// the benchmark exists to show. Every timed span is therefore reported at
// a reference speed: the kernel runs between blocks of about kBlockSeconds
// of site work, and each block's host times are scaled by
// kReferenceKernelSeconds / (mean kernel time before and after the block).
// The kernel is code in this file only, independent of src/, so a change to
// the program under test cannot move it. Raw host throughput rides in the
// provenance line.

constexpr double kReferenceKernelSeconds = 0.65e-3;
constexpr double kBlockSeconds = 0.05;

uint64_t kernel_sink = 0;  // keeps the kernel's result observable

// Shaped like the simulator's hot path: a binary-heap event queue, hashed
// lookups, std::function calls and small allocations.
double KernelSeconds() {
  const Clock::time_point start = Clock::now();
  using Event = std::pair<double, uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<uint64_t, uint64_t> table;
  std::vector<std::function<uint64_t(uint64_t)>> callbacks;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  uint64_t acc = 0;
  for (int i = 0; i < 4000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    events.emplace(static_cast<double>(x % 100000), x);
    table[x % 16384] += x;
    callbacks.emplace_back([x](uint64_t v) { return v ^ x; });
    if (events.size() > 1024) {
      acc = callbacks[events.top().second % callbacks.size()](acc);
      events.pop();
    }
  }
  kernel_sink += acc + table.size();
  return SecondsSince(start);
}

// Noise only ever slows a kernel run down, so the fastest of three is the
// machine's current speed.
double CalibrationSeconds() {
  return std::min({KernelSeconds(), KernelSeconds(), KernelSeconds()});
}

// ---- one pass over the site set ----------------------------------------------

struct Pass {
  bool traced = false;
  double seconds = 0.0;      // sum of per-site times, at the reference speed
  double raw_seconds = 0.0;  // the same sum in host seconds
  std::vector<double> site_ms;  // per site, at the reference speed
  std::vector<uint64_t> digests;  // per site, plan order
  std::vector<SurveyBreakdown> breakdowns;  // per band
  Outcomes outcomes;
  LayerTimes times;
  EngineCounters counters;
  // Observed workloads: the merged metrics CSV and the journal's digest/size.
  std::string metrics_csv;
  uint64_t journal_digest = 0;
  uint64_t journal_bytes = 0;

  double SitesPerSecond() const { return static_cast<double>(site_ms.size()) / seconds; }
  double RawSitesPerSecond() const { return static_cast<double>(site_ms.size()) / raw_seconds; }
  // Host seconds -> reference seconds, averaged over the pass.
  double Scale() const { return seconds / raw_seconds; }
};

std::string JournalFingerprint(const Plan& plan) {
  return "seed=" + std::to_string(plan.seed) +
         ";sites=" + std::to_string(plan.workload->sites_per_cohort) + ";metrics=1";
}

std::unique_ptr<SurveyJournal> OpenFreshJournal(const std::string& path, const Plan& plan) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::string error;
  auto journal = SurveyJournal::Open(path, std::string("perfbench:") + plan.workload->name,
                                     JournalFingerprint(plan), /*resume=*/false, &error);
  if (journal == nullptr) {
    fprintf(stderr, "perfbench: journal error: %s\n", error.c_str());
  }
  return journal;
}

bool BeginCohort(SurveyJournal& journal, const Plan& plan, const Band& band, uint64_t pid_base) {
  std::string error;
  if (!journal.BeginCohort(band.cohort, plan.workload->stage, plan.workload->sites_per_cohort,
                           kMaxCrowd, band.survey_seed, pid_base, &error)) {
    fprintf(stderr, "perfbench: journal error: %s\n", error.c_str());
    return false;
  }
  return true;
}

// Runs every site of |plan| once, in (band, index) order. Only the site work
// is timed: the per-site window covers sampling, the experiment and, on an
// observed workload, the journal append and metrics merge — what a survey
// pays per site. Digests, breakdowns and counters are bookkeeping after the
// window closes. With |setup_only| the pass stops where the first site would
// be dispatched, reports that instant and the host-to-reference speed scale
// on stdout, and returns.
std::optional<Pass> RunPass(const Plan& plan, bool traced, bool setup_only,
                            const std::string& journal_path) {
  const Workload& workload = *plan.workload;
  const ExperimentConfig config = SurveyConfig();
  const std::vector<StageKind> stages = {workload.stage};
  Pass pass;
  pass.traced = traced;
  std::unique_ptr<SurveyJournal> journal;
  MetricsRegistry merged;
  uint64_t pid_base = 0;
  if (workload.observed) {
    journal = OpenFreshJournal(journal_path, plan);
    if (journal == nullptr) {
      return std::nullopt;
    }
  }
  // The current block of sites awaiting its closing kernel run.
  size_t block_begin = 0;
  double block_seconds = 0.0;
  double kernel_before = 0.0;
  auto close_block = [&] {
    const double kernel_after = CalibrationSeconds();
    const double scale = 2.0 * kReferenceKernelSeconds / (kernel_before + kernel_after);
    for (size_t k = block_begin; k < pass.site_ms.size(); ++k) {
      pass.site_ms[k] *= scale;
    }
    pass.seconds += block_seconds * scale;
    pass.raw_seconds += block_seconds;
    block_begin = pass.site_ms.size();
    block_seconds = 0.0;
    kernel_before = kernel_after;
  };
  for (const Band& band : plan.bands) {
    if (journal != nullptr && !BeginCohort(*journal, plan, band, pid_base)) {
      return std::nullopt;
    }
    if (setup_only) {
      printf("{\"event\": \"dispatch\"}\n");
      fflush(stdout);
      printf("{\"event\": \"speed\", \"scale\": %.17g}\n",
             kReferenceKernelSeconds / CalibrationSeconds());
      return pass;
    }
    if (&band == &plan.bands.front()) {
      kernel_before = CalibrationSeconds();  // opens the first block
    }
    SurveyBreakdown breakdown;
    breakdown.cohort = band.cohort;
    for (size_t i = 0; i < workload.sites_per_cohort; ++i) {
      Clock::time_point start = Clock::now();
      SiteInstance instance = SampleSiteAt(band.survey_seed, band.cohort, i);
      pass.times.population += SecondsSince(start);
      const uint64_t seed = SiteExperimentSeed(band.survey_seed, band.cohort, i);
      MetricsRegistry site_metrics;
      Telemetry telemetry;
      telemetry.metrics = &site_metrics;
      Telemetry* observe = journal != nullptr ? &telemetry : nullptr;
      ExperimentResult result =
          traced ? RunSiteTraced(instance, config, stages, seed, observe, pass.times,
                                 pass.counters)
                 : RunSiteExperiment(instance, config, stages, seed, observe);
      if (journal != nullptr) {
        // The record survey.cc appends for a live site, then its fold into
        // the survey's merged registry.
        Clock::time_point append = Clock::now();
        JournalSiteRecord record;
        record.cohort_ordinal = journal->CurrentOrdinal();
        record.site_index = i;
        record.seed = seed;
        record.stage = workload.stage;
        record.pid = pid_base + i;
        record.result = result;
        record.has_metrics = true;
        record.metrics = site_metrics;
        journal->AppendSite(record);
        pass.times.journal += SecondsSince(append);
        Clock::time_point merge = Clock::now();
        merged.Merge(site_metrics);
        pass.times.merge += SecondsSince(merge);
      }
      const double seconds = SecondsSince(start);
      block_seconds += seconds;
      pass.site_ms.push_back(seconds * 1e3);
      pass.digests.push_back(VerdictDigest(result));
      AccumulateBreakdown(breakdown, result);
      pass.outcomes.Count(result);
      if (block_seconds >= kBlockSeconds) {
        close_block();
      }
    }
    pid_base += workload.sites_per_cohort;
    pass.breakdowns.push_back(breakdown);
  }
  if (block_begin < pass.site_ms.size()) {
    close_block();
  }
  if (journal != nullptr) {
    journal.reset();  // closes the file
    pass.metrics_csv = ExportMetricsCsv(merged);
    pass.journal_digest = FileDigest(journal_path, &pass.journal_bytes);
  }
  return pass;
}

// ---- the reference: RunSurveyCohortParallel on the same inputs --------------

struct Reference {
  std::vector<uint64_t> digests;
  std::vector<SurveyBreakdown> breakdowns;
  std::string metrics_csv;
  uint64_t journal_digest = 0;
  double no_progress = 0.0;
};

// Untimed. Metrics are always collected here so the water-filling stall
// counter (flow_network.no_progress) is checked on every workload. Results
// are identical for any jobs count, so the check uses up to four threads —
// except with a journal, whose records land in completion order and are
// byte-comparable only from a sequential run.
std::optional<Reference> RunReference(const Plan& plan, const std::string& journal_path) {
  const Workload& workload = *plan.workload;
  const size_t jobs =
      workload.observed ? 1 : std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  Reference ref;
  SurveyTelemetry telemetry;
  telemetry.collect_metrics = true;
  std::unique_ptr<SurveyJournal> journal;
  if (workload.observed) {
    journal = OpenFreshJournal(journal_path, plan);
    if (journal == nullptr) {
      return std::nullopt;
    }
  }
  for (const Band& band : plan.bands) {
    if (journal != nullptr && !BeginCohort(*journal, plan, band, telemetry.next_pid)) {
      return std::nullopt;
    }
    std::vector<ExperimentResult> per_site;
    ref.breakdowns.push_back(RunSurveyCohortParallel(
        band.cohort, workload.stage, workload.sites_per_cohort, kMaxCrowd, band.survey_seed,
        jobs, &per_site, &telemetry, journal.get()));
    for (const ExperimentResult& result : per_site) {
      ref.digests.push_back(VerdictDigest(result));
    }
  }
  ref.no_progress = telemetry.metrics.Counter("flow_network.no_progress");
  if (journal != nullptr) {
    journal.reset();
    ref.metrics_csv = ExportMetricsCsv(telemetry.metrics);
    uint64_t size = 0;
    ref.journal_digest = FileDigest(journal_path, &size);
  }
  return ref;
}

// Re-runs every kRepeatStride-th site untimed and requires the verdict the
// timed pass recorded, so a run with a single pass still checks repeats.
constexpr size_t kRepeatStride = 8;

void CheckRepeats(const Plan& plan, const Pass& timed, Gate& gate) {
  const size_t per_band = plan.workload->sites_per_cohort;
  for (size_t k = 0; k < plan.SitesPerPass(); k += kRepeatStride) {
    const Band& band = plan.bands[k / per_band];
    const size_t i = k % per_band;
    const ExperimentResult result = RunSiteExperiment(
        SampleSiteAt(band.survey_seed, band.cohort, i), SurveyConfig(), {plan.workload->stage},
        SiteExperimentSeed(band.survey_seed, band.cohort, i));
    if (VerdictDigest(result) != timed.digests[k]) {
      gate.Require(false, "repeat of site " + std::to_string(k) + " gave another verdict");
      return;
    }
  }
}

// ---- self-tests, run in every run ---------------------------------------------

void RunSelfTests(Gate& gate) {
  // The forwarding harness replays RunSiteExperiment exactly on a fixed site.
  {
    const SiteInstance site = SampleSiteAt(1, Cohort::kRank10KTo100K, 0);
    const uint64_t seed = SiteExperimentSeed(1, Cohort::kRank10KTo100K, 0);
    const std::vector<StageKind> stages = {StageKind::kBase};
    const ExperimentResult direct = RunSiteExperiment(site, SurveyConfig(), stages, seed);
    LayerTimes times;
    EngineCounters counters;
    const ExperimentResult traced =
        RunSiteTraced(site, SurveyConfig(), stages, seed, nullptr, times, counters);
    gate.Require(EncodeExperimentResult(direct) == EncodeExperimentResult(traced),
                 "self-test: traced replay differs from RunSiteExperiment");
    gate.Require(times.Testbed() > 0.0 && counters.events > 0,
                 "self-test: traced replay recorded no testbed time or events");
  }
  // The percentile helper picks the nearest rank and refuses thin tails.
  {
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i) {
      hundred.push_back(i);
    }
    gate.Require(Percentile(hundred, 50) == 50.0, "self-test: p50 of 1..100 is not 50");
    gate.Require(Percentile(hundred, 90) == 90.0, "self-test: p90 of 1..100 is not 90");
    hundred.pop_back();
    gate.Require(!Percentile(hundred, 90).has_value(),
                 "self-test: p90 of 99 samples was not refused");
    gate.Require(Percentile(hundred, 50).has_value(), "self-test: p50 of 99 samples refused");
  }
  // A perturbed verdict digest fails the gate; an identical one passes.
  {
    const std::vector<uint64_t> digests = {Fnv1a("a"), Fnv1a("b"), Fnv1a("c")};
    std::vector<uint64_t> perturbed = digests;
    perturbed[1] ^= 1;
    Gate same;
    same.RequireSameDigests(digests, digests, "identical");
    Gate different;
    different.RequireSameDigests(digests, perturbed, "perturbed");
    gate.Require(same.Passed() && !different.Passed(),
                 "self-test: the gate does not catch a perturbed verdict digest");
  }
}

// ---- output --------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[40];
  snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

double PerSite(double total, size_t sites) {
  return sites == 0 ? 0.0 : total / static_cast<double>(sites);
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

std::vector<Metric> EndToEndMetrics(const std::vector<Pass>& passes, double peak_rss_mb,
                                    Gate& gate) {
  std::vector<double> rates, p50s, p90s;
  for (const Pass& pass : passes) {
    const std::optional<double> p50 = Percentile(pass.site_ms, 50);
    const std::optional<double> p90 = Percentile(pass.site_ms, 90);
    gate.Require(p50 && p90, "a pass has too few sites for p90");
    rates.push_back(pass.SitesPerSecond());
    p50s.push_back(p50.value_or(0.0));
    p90s.push_back(p90.value_or(0.0));
  }
  const Outcomes& outcomes = passes.front().outcomes;
  return {
      {"sites_per_s", Median(rates), "1/s"},
      {"site_ms_p50", Median(p50s), "ms"},
      {"site_ms_p90", Median(p90s), "ms"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"verdict_frac", 1.0 - outcomes.Frac(outcomes.Failed()), "frac"},
  };
}

std::vector<Metric> LayerMetrics(const std::vector<Pass>& untraced,
                                 const std::vector<Pass>& traced) {
  LayerTimes t;
  EngineCounters c;
  double wall = 0.0;
  size_t sites = 0;
  std::vector<double> traced_rates, untraced_rates;
  for (const Pass& pass : traced) {
    t.Add(pass.times, pass.Scale());  // host -> reference seconds, like the wall
    c.Add(pass.counters);
    wall += pass.seconds;
    sites += pass.site_ms.size();
    traced_rates.push_back(pass.SitesPerSecond());
  }
  for (const Pass& pass : untraced) {
    untraced_rates.push_back(pass.SitesPerSecond());
  }
  const Outcomes& outcomes = untraced.front().outcomes;
  const double ms = 1e3;
  const Pass& last = traced.back();
  return {
      {"population.site_us", PerSite(t.population, sites) * 1e6, "us"},
      {"deploy.ms", PerSite(t.deploy, sites) * ms, "ms"},
      {"coordinator.self_ms", PerSite(t.coordinator - t.Testbed(), sites) * ms, "ms"},
      {"coordinator.epochs", PerSite(c.epochs, sites), "count"},
      {"coordinator.check_epoch_frac", Ratio(c.check_epochs, c.epochs), "frac"},
      {"testbed.crowd_ms", PerSite(t.crowd, sites) * ms, "ms"},
      {"testbed.fetch_ms", PerSite(t.fetch, sites) * ms, "ms"},
      {"testbed.probe_rtt_ms", PerSite(t.probe_rtt, sites) * ms, "ms"},
      {"testbed.wait_ms", PerSite(t.wait, sites) * ms, "ms"},
      {"testbed.other_ms", PerSite(t.other, sites) * ms, "ms"},
      {"sim.events", PerSite(c.events, sites), "count"},
      {"sim.ns_per_event", Ratio(t.Testbed() * 1e9, c.events), "ns"},
      {"net.reallocs", PerSite(c.reallocs, sites), "count"},
      {"net.full_realloc_frac", Ratio(c.full_reallocs, c.reallocs), "frac"},
      {"net.flows_per_realloc", Ratio(c.flows_touched, c.reallocs), "count"},
      {"net.links_per_realloc", Ratio(c.links_touched, c.reallocs), "count"},
      {"net.no_progress", PerSite(c.no_progress, sites), "count"},
      {"server.requests", PerSite(c.requests, sites), "count"},
      {"server.rejected_503", PerSite(c.rejected_503, sites), "count"},
      {"server.db_queries", PerSite(c.db_queries, sites), "count"},
      {"server.query_cache_hit_rate",
       Ratio(c.query_cache_hits, c.query_cache_hits + c.query_cache_misses), "frac"},
      {"server.page_cache_hit_rate",
       Ratio(c.page_cache_hits, c.page_cache_hits + c.page_cache_misses), "frac"},
      {"telemetry.merge_ms", PerSite(t.merge, sites) * ms, "ms"},
      {"journal.append_ms", PerSite(t.journal, sites) * ms, "ms"},
      {"journal.bytes", PerSite(last.journal_bytes, last.site_ms.size()), "B"},
      {"unattributed_frac", Ratio(wall - t.Attributed(), wall), "frac"},
      {"trace.overhead", Median(untraced_rates) / Median(traced_rates) - 1.0, "frac"},
      {"failed_frac", outcomes.Frac(outcomes.Failed()), "frac"},
      {"failed.no_probe_object_frac", outcomes.Frac(outcomes.no_probe_object), "frac"},
      {"failed.aborted_frac", outcomes.Frac(outcomes.aborted), "frac"},
      {"failed.quorum_failed_frac", outcomes.Frac(outcomes.quorum_failed), "frac"},
  };
}

void PrintResult(const Plan& plan, const Gate& gate, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics, const std::vector<Pass>& untraced,
                 const std::vector<Pass>& traced) {
  std::string seeds;
  for (const Band& band : plan.bands) {
    seeds += (seeds.empty() ? "" : ", ") + JsonString(std::string(CohortName(band.cohort))) +
             ": " + std::to_string(band.survey_seed);
  }
  size_t samples = 0;
  std::vector<double> raw_rates, scales;
  for (const Pass& pass : untraced) {
    samples += pass.site_ms.size();
    raw_rates.push_back(pass.RawSitesPerSecond());
    scales.push_back(pass.Scale());
  }
  const Outcomes& outcomes = untraced.front().outcomes;
  std::string info = "{\"workload\": " + JsonString(plan.workload->name) +
                     ", \"seed\": " + std::to_string(plan.seed) + ", \"survey_seeds\": {" +
                     seeds + "}, \"sites_per_pass\": " + std::to_string(plan.SitesPerPass()) +
                     ", \"untraced_passes\": " + std::to_string(untraced.size()) +
                     ", \"traced_passes\": " + std::to_string(traced.size()) +
                     ", \"site_samples\": " + std::to_string(samples) +
                     ", \"host_sites_per_s\": " + JsonNumber(Median(raw_rates)) +
                     ", \"speed_scale\": " + JsonNumber(Median(scales)) +
                     ", \"no_verdict_per_pass\": {\"no_probe_object\": " +
                     std::to_string(outcomes.no_probe_object) +
                     ", \"aborted\": " + std::to_string(outcomes.aborted) +
                     ", \"quorum_failed\": " + std::to_string(outcomes.quorum_failed) +
                     "}, \"build_type\": " + JsonString(MFC_PERFBENCH_BUILD_TYPE) +
                     ", \"hardware_threads\": " +
                     std::to_string(std::thread::hardware_concurrency()) + ", \"gate\": [";
  for (size_t i = 0; i < gate.Failures().size(); ++i) {
    info += (i > 0 ? ", " : "") + JsonString(gate.Failures()[i]);
  }
  info += "]}";
  std::string line = "{\"correct\": " + std::string(gate.Passed() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  if (gate.Passed()) {
    for (size_t i = 0; i < metrics.size(); ++i) {
      line += (i > 0 ? ", " : "") + JsonString(metrics[i].name) +
              ": {\"value\": " + JsonNumber(metrics[i].value) +
              ", \"unit\": " + JsonString(metrics[i].unit) + "}";
    }
  }
  line += "}, \"info\": " + info + "}";
  printf("%s\n", line.c_str());
}

// ---- main ------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  bool setup_only = false;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      args.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) {
      fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return std::nullopt;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        fprintf(stderr, "perfbench: --trace must be 0 or 1\n");
        return std::nullopt;
      }
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !have_seed || !have_seconds || args.work_dir.empty()) {
    fprintf(stderr,
            "usage: mfc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
            "--work-dir <dir> [--setup-only]\n");
    return std::nullopt;
  }
  return args;
}

int Main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    return 2;
  }
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (args->workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    fprintf(stderr, "perfbench: unknown workload %s\n", args->workload.c_str());
    return 2;
  }
  const Plan plan = MakePlan(*workload, args->seed);
  std::error_code ec;
  std::filesystem::create_directories(args->work_dir, ec);
  const std::string journal_path = args->work_dir + "/survey.journal";
  const std::string ref_journal_path = args->work_dir + "/reference.journal";

  if (args->setup_only) {
    return RunPass(plan, /*traced=*/false, /*setup_only=*/true, journal_path) ? 0 : 1;
  }

  // Timed passes: --trace 0 runs untraced passes only; --trace 1 alternates
  // untraced and traced passes, at least one of each. A further pass starts
  // only while it is expected to finish within --seconds.
  std::vector<Pass> untraced, traced;
  const size_t min_passes = args->trace ? 2 : 1;
  const Clock::time_point start = Clock::now();
  while (true) {
    const bool trace_pass = args->trace && untraced.size() > traced.size();
    std::optional<Pass> pass = RunPass(plan, trace_pass, /*setup_only=*/false, journal_path);
    if (!pass) {
      return 1;
    }
    (trace_pass ? traced : untraced).push_back(std::move(*pass));
    const size_t done = untraced.size() + traced.size();
    const double elapsed = SecondsSince(start);
    if (done >= min_passes &&
        elapsed * static_cast<double>(done + 1) / static_cast<double>(done) > args->seconds) {
      break;
    }
  }
  const double peak_rss_mb = PeakRssMb();

  Gate gate;
  CheckRepeats(plan, untraced.front(), gate);
  const std::optional<Reference> ref = RunReference(plan, ref_journal_path);
  if (!ref) {
    return 1;
  }
  const Pass& first = untraced.front();
  gate.Require(first.breakdowns == ref->breakdowns,
               "per-site breakdown differs from RunSurveyCohortParallel");
  gate.RequireSameDigests(ref->digests, first.digests,
                          "per-site verdicts vs RunSurveyCohortParallel");
  gate.Require(ref->no_progress == 0.0, "net.no_progress is not 0 (water-filling stalls)");
  size_t attempted = 0;
  size_t failed = 0;
  for (const std::vector<Pass>* group : {&untraced, &traced}) {
    for (size_t k = 0; k < group->size(); ++k) {
      const Pass& pass = (*group)[k];
      const std::string label =
          std::string(pass.traced ? "traced" : "untraced") + " pass " + std::to_string(k);
      gate.RequireSameDigests(first.digests, pass.digests, label + " vs first pass");
      attempted += pass.digests.size();
      for (size_t i = 0; i < pass.digests.size(); ++i) {
        failed += i >= ref->digests.size() || pass.digests[i] != ref->digests[i];
      }
      gate.Require(pass.counters.no_progress == 0, label + ": net.no_progress is not 0");
      if (workload->observed) {
        gate.Require(pass.journal_digest == ref->journal_digest,
                     label + ": journal differs from RunSurveyCohortParallel's");
        gate.Require(pass.metrics_csv == ref->metrics_csv,
                     label + ": merged metrics CSV differs from RunSurveyCohortParallel's");
      }
    }
  }
  RunSelfTests(gate);
  std::filesystem::remove(journal_path, ec);
  std::filesystem::remove(ref_journal_path, ec);

  const std::vector<Metric> metrics = args->trace ? LayerMetrics(untraced, traced)
                                                  : EndToEndMetrics(untraced, peak_rss_mb, gate);
  PrintResult(plan, gate, attempted, failed, metrics, untraced, traced);
  if (!gate.Passed()) {
    for (const std::string& failure : gate.Failures()) {
      fprintf(stderr, "perfbench: correctness gate: %s\n", failure.c_str());
    }
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace mfc::perfbench

int main(int argc, char** argv) { return mfc::perfbench::Main(argc, argv); }
