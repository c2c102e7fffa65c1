#include "src/core/population.h"

#include <algorithm>
#include <cmath>

#include "src/sim/distributions.h"

namespace mfc {
namespace {

// Lognormal capacity-knee distribution: the concurrent-request count at
// which a sub-system adds ~θ to the response time.
struct KneeDist {
  double median;
  double sigma;
};

// Per-cohort provisioning: medians/sigmas are calibrated so the measured
// stopping fractions approximate Figures 7-9 and Tables 4-5 (see
// EXPERIMENTS.md for the paper-vs-measured comparison).
struct CohortSpec {
  KneeDist base;
  KneeDist query;
  KneeDist bandwidth;
  size_t cores;
  size_t threads;
  double weak_fastcgi_prob;  // cheap shared hosting with a forking CGI stack
};

const CohortSpec& SpecFor(Cohort cohort) {
  static const CohortSpec kRank1{{364, 2.0}, {153, 1.6}, {385, 1.8}, 8, 512, 0.0};
  static const CohortSpec kRank2{{159, 1.6}, {81, 1.4}, {103, 1.6}, 4, 512, 0.0};
  static const CohortSpec kRank3{{96, 1.5}, {63, 1.4}, {76, 1.6}, 2, 256, 0.05};
  static const CohortSpec kRank4{{65, 1.5}, {22, 2.0}, {68, 1.6}, 1, 256, 0.10};
  static const CohortSpec kStartup{{60, 1.8}, {39, 1.55}, {69, 1.6}, 2, 256, 0.20};
  static const CohortSpec kPhishing{{37, 0.55}, {23, 1.15}, {45, 1.6}, 1, 128, 0.25};
  switch (cohort) {
    case Cohort::kRank1To1K:
      return kRank1;
    case Cohort::kRank1KTo10K:
      return kRank2;
    case Cohort::kRank10KTo100K:
      return kRank3;
    case Cohort::kRank100KTo1M:
      return kRank4;
    case Cohort::kStartup:
      return kStartup;
    case Cohort::kPhishing:
      return kPhishing;
    case Cohort::kLongTail:
      return kRank4;  // rank-independent fallback; SampleLongTailSite overrides
  }
  return kRank4;
}

double SampleKnee(Rng& rng, const KneeDist& dist) {
  double knee = LognormalDist::FromMedian(dist.median, dist.sigma).Sample(rng);
  return std::clamp(knee, 4.0, 20000.0);
}

double Clamp(double v, double lo, double hi) { return std::clamp(v, lo, hi); }

// The survey's probe large object: fixed 400 KB so the bandwidth knee maps
// cleanly onto link capacity.
constexpr uint64_t kSurveyLargeObjectBytes = 400 * 1024;

SiteSpec SurveySiteSpec() {
  SiteSpec spec;
  spec.page_count = 8;
  spec.image_count = 10;
  spec.binary_count = 2;
  spec.binary_size_min = kSurveyLargeObjectBytes;
  spec.binary_size_max = kSurveyLargeObjectBytes;
  spec.query_endpoint_count = 2;
  spec.query_response_min = 2 * 1024;
  spec.query_response_max = 8 * 1024;
  spec.queries_unique_per_string = true;
  return spec;
}

// Converts knees into concrete resource parameters. With n simultaneous
// requests on c cores, processor sharing gives response ≈ demand * n / c, so
// a θ=100 ms knee at n* means demand ≈ 0.1 * c / n*.
void ApplyKnees(SiteInstance& instance, double theta = 0.100) {
  WebServerConfig& server = instance.server;
  double cores = static_cast<double>(server.cpu_cores) * server.cpu_speed;
  server.request_parse_cpu_s = 4e-4;
  server.head_cpu_s =
      Clamp(theta * cores / instance.base_knee - server.request_parse_cpu_s, 5e-5, 0.08);
  double chain = Clamp(theta * cores / instance.query_knee - server.request_parse_cpu_s,
                       5e-4, 0.3);
  server.cgi_cpu_s = 0.25 * chain;
  server.db.base_query_cpu_s = 0.05 * chain;
  server.db.per_row_cpu_s = 4e-6;
  server.db.disk_miss_fraction = 0.0;
  // Typical dynamic endpoints recompute on every hit; without this, the base
  // response-time measurements would warm the result cache for the exact
  // per-client URLs the epochs then re-request, hiding the back-end cost.
  server.db.query_cache_bytes = 0.0;
  uint64_t rows = static_cast<uint64_t>(0.70 * chain / server.db.per_row_cpu_s);
  instance.site.query_rows_min = std::max<uint64_t>(rows, 50);
  instance.site.query_rows_max = std::max<uint64_t>(rows, 50);
  // Empirical knee->capacity mapping for the 400 KB probe object over the
  // wide-area fleet (slow start absorbs much of the contention, so the naive
  // size*knee/theta formula overshoots by ~8x): measured stopping size is
  // about 2x the link capacity in MB/s.
  instance.server_access_bps = Clamp(instance.bandwidth_knee * 0.5e6, 1.5e6, 4.0e9);
}

}  // namespace

std::string_view CohortName(Cohort cohort) {
  switch (cohort) {
    case Cohort::kRank1To1K:
      return "Quantcast 1-1K";
    case Cohort::kRank1KTo10K:
      return "Quantcast 1K-10K";
    case Cohort::kRank10KTo100K:
      return "Quantcast 10K-100K";
    case Cohort::kRank100KTo1M:
      return "Quantcast 100K-1M";
    case Cohort::kStartup:
      return "Startup";
    case Cohort::kPhishing:
      return "Phishing";
    case Cohort::kLongTail:
      return "Long tail";
  }
  return "Unknown";
}

namespace {

// Chains the triple through three finalizer rounds; |domain| separates
// otherwise-identical triples used for different purposes.
uint64_t MixSeedTriple(uint64_t seed, uint64_t cohort, uint64_t index, uint64_t domain) {
  uint64_t h = SplitMix64(seed ^ domain);
  h = SplitMix64(h ^ cohort);
  return SplitMix64(h ^ index);
}

// ASCII "mfc-expr" / "mfc-samp": stable, greppable domain constants.
constexpr uint64_t kExperimentDomain = 0x6d66632d65787072ULL;
constexpr uint64_t kSampleDomain = 0x6d66632d73616d70ULL;

}  // namespace

uint64_t SiteExperimentSeed(uint64_t survey_seed, Cohort cohort, uint64_t index) {
  return MixSeedTriple(survey_seed, static_cast<uint64_t>(cohort), index, kExperimentDomain);
}

uint64_t SiteSampleSeed(uint64_t survey_seed, Cohort cohort, uint64_t index) {
  return MixSeedTriple(survey_seed, static_cast<uint64_t>(cohort), index, kSampleDomain);
}

SiteInstance SampleSiteAt(uint64_t survey_seed, Cohort cohort, size_t index) {
  Rng rng(SiteSampleSeed(survey_seed, cohort, index));
  if (cohort == Cohort::kLongTail) {
    return SampleLongTailSite(rng, index + 1);
  }
  return SampleSite(rng, cohort);
}

SiteInstance SampleLongTailSite(Rng& rng, size_t rank) {
  // Place |rank| in the simulated 100K..1M band; depth in [0, 1] is the
  // log-popularity position within the band (Zipf popularity proxy).
  double absolute_rank = 1e5 + static_cast<double>(rank);
  double depth = Clamp((std::log10(std::min(absolute_rank, 1e6)) - 5.0) / (6.0 - 5.0), 0.0, 1.0);

  // Knee medians decay log-linearly from rank-3-grade provisioning at the
  // band's head to sub-phishing shared hosting at the bottom.
  auto interpolate = [&](double head, double tail) {
    return std::exp(std::log(head) + depth * (std::log(tail) - std::log(head)));
  };
  KneeDist base{interpolate(96, 28), 1.5};
  KneeDist query{interpolate(63, 14), 1.6};
  KneeDist bandwidth{interpolate(76, 32), 1.6};

  SiteInstance instance;
  instance.base_knee = SampleKnee(rng, base);
  instance.query_knee = SampleKnee(rng, query);
  instance.bandwidth_knee = SampleKnee(rng, bandwidth);

  // Content is per-site instead of the fixed survey probe spec: lognormal
  // page weights with a Pareto upper tail for the occasional media-heavy
  // site, and only a deep-tail-typical 1-3 dynamic endpoints.
  SiteSpec& site = instance.site;
  site.page_count = static_cast<size_t>(rng.UniformInt(4, 16));
  site.image_count = static_cast<size_t>(rng.UniformInt(6, 30));
  site.binary_count = static_cast<size_t>(rng.UniformInt(1, 3));
  double object_kb = LognormalDist::FromMedian(300.0, 0.7).Sample(rng);
  if (rng.Chance(0.05)) {
    // Pareto(alpha=1.2) tail grafted above the lognormal body.
    object_kb = 800.0 * std::pow(1.0 - rng.NextDouble() * 0.999, -1.0 / 1.2);
  }
  object_kb = Clamp(object_kb, 64.0, 8192.0);
  site.binary_size_min = static_cast<uint64_t>(object_kb * 1024.0);
  site.binary_size_max = site.binary_size_min;
  site.query_endpoint_count = static_cast<size_t>(rng.UniformInt(1, 3));
  site.query_response_min = 1 * 1024;
  site.query_response_max = 16 * 1024;
  site.queries_unique_per_string = true;

  WebServerConfig& server = instance.server;
  server.name = "Long tail";
  server.cpu_cores = depth < 0.5 ? 2 : 1;
  server.worker_threads = depth < 0.5 ? 256 : 128;
  server.db.connection_pool = 48;
  server.db.query_cache_bytes = 16e6;
  server.ram_bytes = 4e9;
  server.base_memory_bytes = 0.5e9;
  server.cgi_model = CgiModel::kFastCgi;
  server.cgi_process_memory_bytes = 8e6;
  // Cheap shared hosting becomes the norm, not the exception, with depth.
  if (rng.Chance(0.05 + 0.25 * depth)) {
    server.ram_bytes = 768e6;
    server.base_memory_bytes = 400e6;
    server.cgi_process_memory_bytes = 24e6;
  }

  // Organic session load: heavy-tailed visitor rate shrinking with depth —
  // the probes share the box with its (few) real users.
  double session_median = 2.0 * std::exp(-3.0 * depth);
  instance.background_rps = Clamp(LognormalDist::FromMedian(session_median, 1.2).Sample(rng),
                                  0.0, 40.0);

  ApplyKnees(instance);
  return instance;
}

SiteInstance SampleSite(Rng& rng, Cohort cohort) {
  if (cohort == Cohort::kLongTail) {
    // No externally-supplied rank (single-site profiles): draw one
    // log-uniformly over the simulated band.
    double log_rank = rng.NextDouble() * std::log(900000.0);
    return SampleLongTailSite(rng, static_cast<size_t>(std::exp(log_rank)));
  }
  const CohortSpec& spec = SpecFor(cohort);
  SiteInstance instance;
  instance.site = SurveySiteSpec();
  instance.base_knee = SampleKnee(rng, spec.base);
  instance.query_knee = SampleKnee(rng, spec.query);
  instance.bandwidth_knee = SampleKnee(rng, spec.bandwidth);

  WebServerConfig& server = instance.server;
  server.name = std::string(CohortName(cohort));
  server.cpu_cores = spec.cores;
  server.worker_threads = spec.threads;
  server.db.connection_pool = 48;
  server.db.query_cache_bytes = 16e6;
  server.ram_bytes = 4e9;
  server.base_memory_bytes = 0.5e9;
  server.cgi_model = CgiModel::kFastCgi;
  server.cgi_process_memory_bytes = 8e6;
  if (rng.Chance(spec.weak_fastcgi_prob)) {
    // Cheap shared hosting: a forking CGI stack on a small-memory box. The
    // memory blow-up (Figure 6) then dominates the query knee.
    server.ram_bytes = 768e6;
    server.base_memory_bytes = 400e6;
    server.cgi_process_memory_bytes = 24e6;
  }
  ApplyKnees(instance);
  return instance;
}

SiteInstance MakeLabValidationProfile() {
  // Section 3.2: Apache 2.2 (worker MPM) on a 3 GHz P4, 1 GB RAM; MySQL with
  // a 16 MB query cache; a 100 KB object; a query retrieving 50,000 rows and
  // returning under 100 B; a 100 Mbit/s access link.
  SiteInstance instance;
  instance.site = SiteSpec{};
  instance.site.page_count = 4;
  instance.site.image_count = 4;
  instance.site.binary_count = 1;
  instance.site.binary_size_min = 100 * 1024;
  instance.site.binary_size_max = 100 * 1024;
  instance.site.query_endpoint_count = 1;
  instance.site.query_response_min = 100;
  instance.site.query_response_max = 100;
  instance.site.query_rows_min = 50'000;
  instance.site.query_rows_max = 50'000;
  instance.site.queries_unique_per_string = false;  // "clients make the same query"

  WebServerConfig& server = instance.server;
  server.name = "lab-apache";
  server.cpu_cores = 1;
  server.cpu_speed = 1.0;
  server.worker_threads = 256;
  // A 3 GHz P4 shrugs off per-request CPU: the lab knees come from the
  // access link (Fig 5) and FastCGI memory (Fig 6), not from raw cycles.
  server.request_parse_cpu_s = 1e-4;
  server.head_cpu_s = 1e-4;
  server.ram_bytes = 1e9;
  server.base_memory_bytes = 200e6;
  // Thrashing on a 2007-era IDE-disk box is brutal; this reproduces the
  // Figure 6 response-time blow-up once ~35 forked handlers exceed RAM.
  server.swap_penalty = 40.0;
  server.cgi_model = CgiModel::kFastCgi;
  server.cgi_process_memory_bytes = 24e6;
  server.cgi_cpu_s = 1e-4;
  server.mongrel_pool = 16;
  server.db.connection_pool = 64;
  server.db.base_query_cpu_s = 1e-4;
  server.db.per_row_cpu_s = 4e-6;  // 50k rows -> 200 ms per cache miss
  server.db.query_cache_bytes = 16e6;
  server.db.disk_miss_fraction = 0.02;
  instance.server_access_bps = 12.5e6;  // 100 Mbit/s
  return instance;
}

SiteInstance MakeQtnpProfile() {
  // Section 4.1 QTNP: identical content to a top-50 production system but a
  // single lightly-used box; Base degraded at 20-25 requests (a surprise to
  // the operators), Small Query at 45-55, Large Object never (well past 150).
  SiteInstance instance;
  instance.site = SurveySiteSpec();
  instance.base_knee = 20;
  instance.query_knee = 52;
  instance.bandwidth_knee = 1500;

  WebServerConfig& server = instance.server;
  server.name = "qtnp";
  server.cpu_cores = 2;
  server.worker_threads = 512;
  server.ram_bytes = 8e9;
  server.base_memory_bytes = 1e9;
  server.request_parse_cpu_s = 4e-4;
  // The base page is assembled dynamically even for HEAD: expensive.
  server.head_cpu_s = 11e-3;
  // Queries fan out to a separate (better-provisioned) data tier.
  server.db_dedicated_cores = 2;
  server.cgi_cpu_s = 1.0e-3;
  server.db.base_query_cpu_s = 3e-4;
  server.db.per_row_cpu_s = 4e-6;
  server.db.disk_miss_fraction = 0.0;
  server.db.query_cache_bytes = 0.0;  // the data tier recomputes per hit
  server.db.connection_pool = 64;
  instance.site.query_rows_min = 1400;  // ~5.6 ms of DB work per unique query
  instance.site.query_rows_max = 1400;
  instance.server_access_bps = 600e6;
  return instance;
}

SiteInstance MakeQtpProfile() {
  // QTP: the production deployment — 16 multiprocessor servers behind a load
  // balancer; nothing moved even at 375 concurrent requests.
  SiteInstance instance = MakeQtnpProfile();
  instance.server.name = "qtp";
  instance.server.cpu_cores = 4;
  instance.server.head_cpu_s = 2e-3;  // production front ends are tuned
  instance.replicas = 16;
  instance.server_access_bps = 2e9;
  return instance;
}

SiteInstance MakeUniv1Profile() {
  // Univ-1: a small European research-group server; every stage stopped at
  // 5-25 clients; bandwidth relatively the best-provisioned resource.
  SiteInstance instance;
  instance.site = SurveySiteSpec();
  instance.site.binary_size_min = 300 * 1024;
  instance.site.binary_size_max = 300 * 1024;
  instance.base_knee = 5;
  instance.query_knee = 5;
  instance.bandwidth_knee = 25;

  WebServerConfig& server = instance.server;
  server.name = "univ-1";
  server.cpu_cores = 1;
  server.worker_threads = 64;
  server.request_parse_cpu_s = 5e-4;
  server.head_cpu_s = 19.5e-3;
  server.cgi_cpu_s = 5e-3;
  server.db.base_query_cpu_s = 1e-3;
  server.db.per_row_cpu_s = 4e-6;
  server.db.disk_miss_fraction = 0.0;
  server.db.query_cache_bytes = 0.0;
  instance.site.query_rows_min = 3500;
  instance.site.query_rows_max = 3500;
  instance.server_access_bps = 12.5e6;
  return instance;
}

SiteInstance MakeUniv2Profile() {
  // Univ-2: CS department server behind a 1 Gbps link; every stage stalled
  // around 110-150 concurrent requests — a software-configuration artifact
  // (the config had not changed in years), modelled as O(n) per-connection
  // CPU overhead; hardware otherwise ample.
  SiteInstance instance;
  instance.site = SurveySiteSpec();
  instance.base_knee = 140;
  instance.query_knee = 130;
  instance.bandwidth_knee = 110;

  WebServerConfig& server = instance.server;
  server.name = "univ-2";
  server.cpu_cores = 2;
  server.worker_threads = 512;
  server.ram_bytes = 4e9;  // hardware is ample; the config is the problem
  server.request_parse_cpu_s = 3e-4;
  server.head_cpu_s = 2e-4;
  server.per_connection_cpu_s = 2.3e-5;
  server.cgi_cpu_s = 5e-4;
  server.db.base_query_cpu_s = 3e-4;
  server.db.per_row_cpu_s = 4e-6;
  server.db.disk_miss_fraction = 0.0;
  server.db.query_cache_bytes = 0.0;
  instance.site.query_rows_min = 500;
  instance.site.query_rows_max = 500;
  instance.server_access_bps = 125e6;  // 1 Gbit/s
  return instance;
}

SiteInstance MakeUniv3Profile() {
  // Univ-3: 1.5 GHz Sun V240; adequate base handling (stop 90-110 at
  // θ=250 ms), poor query handling (stop ~30: the legacy stack was not
  // caching dynamic responses), well-provisioned bandwidth; 12-20 req/s of
  // background traffic in the paper's runs.
  SiteInstance instance;
  instance.site = SurveySiteSpec();
  instance.base_knee = 100;
  instance.query_knee = 30;
  instance.bandwidth_knee = 2000;

  WebServerConfig& server = instance.server;
  server.name = "univ-3";
  server.cpu_cores = 2;
  server.cpu_speed = 0.5;
  server.worker_threads = 256;
  server.ram_bytes = 4e9;
  server.request_parse_cpu_s = 5e-4;
  server.head_cpu_s = 2e-3;
  server.cgi_cpu_s = 1e-3;
  server.db.base_query_cpu_s = 3e-4;
  server.db.per_row_cpu_s = 4e-6;
  server.db.query_cache_bytes = 0.0;  // responses never cached
  server.db.disk_miss_fraction = 0.0;
  instance.site.query_rows_min = 1800;
  instance.site.query_rows_max = 1800;
  instance.site.queries_unique_per_string = false;
  instance.server_access_bps = 250e6;
  return instance;
}

}  // namespace mfc
