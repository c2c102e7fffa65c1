// Survey populations (Section 5): parameterized cohorts of simulated sites.
//
// The paper measured ~450 Quantcast-ranked servers across four rank bands,
// 107 startup servers, and 89 phishing servers. We cannot probe those hosts;
// instead each cohort is a distribution over server provisioning. A sampled
// site's "capacity knees" — the approximate concurrent-request counts at
// which base processing, query processing, and the access link each add
// ~100 ms — are drawn from cohort-specific lognormals (popular sites: high
// medians; phishing: like the 100K-1M band), then translated into concrete
// WebServerConfig / bandwidth parameters. The measured stopping distributions
// (Figs 7-9, Tables 4-5) then come out of running real MFC experiments
// against each sampled site, not from the knees directly: queueing dynamics,
// jitter, slow start and the check phase all intervene.
#ifndef MFC_SRC_CORE_POPULATION_H_
#define MFC_SRC_CORE_POPULATION_H_

#include <string>

#include "src/content/site_generator.h"
#include "src/net/wide_area.h"
#include "src/server/background_traffic.h"
#include "src/server/web_server.h"
#include "src/sim/rng.h"

namespace mfc {

enum class Cohort {
  kRank1To1K,      // Quantcast top 1-1K
  kRank1KTo10K,    // 1K-10K
  kRank10KTo100K,  // 10K-100K
  kRank100KTo1M,   // 100K-1M
  kStartup,        // recent startups (Section 5.2)
  kPhishing,       // PhishTank-listed hosts (Section 5.3)
  kLongTail,       // simulated Quantcast deep tail (rank-dependent, see below)
};

std::string_view CohortName(Cohort cohort);

// A fully-specified simulated deployment.
struct SiteInstance {
  SiteSpec site;
  WebServerConfig server;
  double server_access_bps = 12.5e6;
  size_t replicas = 1;
  // Steady organic visitor load the probes contend with (req/s). Zero for
  // the paper cohorts; the long-tail synthesizer draws it per site.
  double background_rps = 0.0;
  // The intended capacity knees, kept for calibration diagnostics.
  double base_knee = 0.0;
  double query_knee = 0.0;
  double bandwidth_knee = 0.0;
};

// Draws one site from the cohort's provisioning distribution.
SiteInstance SampleSite(Rng& rng, Cohort cohort);

// ---- per-index seed derivation (DESIGN.md §12) ---------------------------
//
// Survey seeds must be collision-free across (survey_seed, cohort, index):
// the historical seed * 1000 + i derivation made site 1000 of seed s reuse
// the exact seed of site 0 of seed s+1, silently correlating surveys once a
// cohort crosses 1000 sites. These helpers mix the full triple through
// SplitMix64 (src/sim/rng.h) instead; sampling and experiment execution use
// distinct domain constants so a site's provisioning draw can never alias
// its workload stream. check_journal.py / check_shard_merge.py reimplement
// the same math in Python — keep them in sync.

// Seed for running site |index|'s experiment.
uint64_t SiteExperimentSeed(uint64_t survey_seed, Cohort cohort, uint64_t index);
// Seed for drawing site |index|'s provisioning from the cohort distribution.
uint64_t SiteSampleSeed(uint64_t survey_seed, Cohort cohort, uint64_t index);

// Regenerates site |index| of a survey as a pure function of
// (survey_seed, cohort, index) — the streaming sampler: O(1) memory, any
// access order, thread-safe, so a 1M-site survey never materializes its
// instance vector. For kLongTail the index doubles as the site's tail rank,
// making provisioning rank-dependent.
SiteInstance SampleSiteAt(uint64_t survey_seed, Cohort cohort, size_t index);

// Long-tail synthesizer: one site at 100K+|rank| in a simulated top-1M
// popularity order. Knee medians decay log-linearly with depth (Zipf-style
// popularity proxy), object sizes are lognormal with a Pareto upper tail,
// and a heavy-tailed session rate supplies organic background load — the
// workload-characterization shape (arXiv 2409.12299) rather than the three
// fixed paper cohorts.
SiteInstance SampleLongTailSite(Rng& rng, size_t rank);

// Named profiles for the cooperating-site case studies (Section 4). These
// are hand-built to match the paper's descriptions, not sampled.
SiteInstance MakeQtnpProfile();  // top-50 commercial, non-production mirror
SiteInstance MakeQtpProfile();   // production: 16 servers, load balanced
SiteInstance MakeUniv1Profile(); // small research-group server
SiteInstance MakeUniv2Profile(); // 1 Gbps link, software thread limit ~130
SiteInstance MakeUniv3Profile(); // 1.5 GHz Sun V240, weak query handling
SiteInstance MakeLabValidationProfile();  // Section 3.2 Apache + MySQL box

}  // namespace mfc

#endif  // MFC_SRC_CORE_POPULATION_H_
