// Survey-scale oracle for the flow network's fast paths. Real survey sites
// run through a Deployment twice: once as a survey runs them, and once with
// the allocator forced to full passes (set_force_full_reallocate), which
// water-fills the whole graph at every event with both certificates off and
// sorts every order from scratch. The encoded results must be byte-identical.
// tests/net/flow_network_differential_test.cc checks the same contract on
// synthetic scripts; this checks it on the traffic the benchmarks measure:
// the four Large Object rank bands, the long-tail Small Query cohort (with
// background load) and one Base band.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "src/core/experiment_runner.h"
#include "src/core/journal/journal.h"
#include "src/core/population.h"

namespace mfc {
namespace {

struct SiteRun {
  std::string encoded;  // EncodeExperimentResult
  FlowNetworkStats net;
};

// RunSiteExperiment's steps (src/core/experiment_runner.cc), with the
// allocator optionally forced to full passes.
SiteRun RunSite(const SiteInstance& instance, const ExperimentConfig& config, StageKind stage,
                uint64_t seed, bool force_full) {
  DeploymentOptions options;
  options.seed = seed;
  options.fleet_size = std::max<size_t>(config.min_clients, 85);
  options.background_rps = instance.background_rps;
  Deployment deployment(instance, options);
  FlowNetwork& flows = deployment.Testbed().Wan().Flows();
  flows.set_force_full_reallocate(force_full);
  StageObjects objects = deployment.ObjectsFromContent();
  Coordinator coordinator(deployment.Testbed(), config, seed ^ 0x9e3779b9);
  deployment.StartBackground();
  ExperimentResult result = coordinator.Run(objects, {stage});
  deployment.StopBackground();
  return {EncodeExperimentResult(result), flows.Stats()};
}

TEST(FlowNetworkSurveyOracleTest, ForcedFullMatchesSurveySitesByteForByte) {
  ExperimentConfig config;  // the survey's (src/core/survey.cc)
  config.threshold = Millis(100);
  config.crowd_step = 5;
  config.max_crowd = 85;
  config.min_clients = 50;
  struct Band {
    Cohort cohort;
    StageKind stage;
    uint64_t survey_seed;
  };
  // The benchmark's seed-1 bands (perfbench: survey seed = 4 * seed + band).
  const Band bands[] = {
      {Cohort::kRank1To1K, StageKind::kLargeObject, 4},
      {Cohort::kRank1KTo10K, StageKind::kLargeObject, 5},
      {Cohort::kRank10KTo100K, StageKind::kLargeObject, 6},
      {Cohort::kRank100KTo1M, StageKind::kLargeObject, 7},
      {Cohort::kLongTail, StageKind::kSmallQuery, 4},
      {Cohort::kRank1To1K, StageKind::kBase, 4},
  };
  constexpr size_t kSitesPerBand = 6;
  FlowNetworkStats large_fast;
  for (const Band& band : bands) {
    for (size_t i = 0; i < kSitesPerBand; ++i) {
      const SiteInstance instance = SampleSiteAt(band.survey_seed, band.cohort, i);
      const uint64_t seed = SiteExperimentSeed(band.survey_seed, band.cohort, i);
      const std::string survey =
          EncodeExperimentResult(RunSiteExperiment(instance, config, {band.stage}, seed));
      const SiteRun fast = RunSite(instance, config, band.stage, seed, false);
      const SiteRun oracle = RunSite(instance, config, band.stage, seed, true);
      const std::string where =
          std::string(CohortName(band.cohort)) + " site " + std::to_string(i);
      // The replica is the survey's own path...
      EXPECT_EQ(fast.encoded, survey) << where;
      // ...and the forced-full oracle reproduces it bit for bit.
      EXPECT_EQ(oracle.encoded, fast.encoded) << where;
      EXPECT_EQ(oracle.net.order_rebuilds, oracle.net.reallocs) << where;
      EXPECT_EQ(oracle.net.skipped_reallocs, 0u) << where;
      if (band.stage == StageKind::kLargeObject) {
        large_fast.reallocs += fast.net.reallocs;
        large_fast.skipped_reallocs += fast.net.skipped_reallocs;
        large_fast.order_rebuilds += fast.net.order_rebuilds;
      }
    }
  }
  // The fast side really took its fast paths: certificates resolved events,
  // and most Large Object passes merged the persistent orders.
  EXPECT_GT(large_fast.skipped_reallocs, 0u);
  EXPECT_GT(large_fast.reallocs, 0u);
  EXPECT_LT(large_fast.order_rebuilds * 4, large_fast.reallocs);
}

}  // namespace
}  // namespace mfc
