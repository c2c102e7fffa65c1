// End-to-end experiments against full simulated deployments: the lab
// validation setups of Section 3 and the cooperating-site profiles of
// Section 4, driven through the public Deployment + Coordinator API.
#include <gtest/gtest.h>

#include "src/core/experiment_runner.h"
#include "src/core/inference.h"

namespace mfc {
namespace {

ExperimentConfig LabConfig() {
  ExperimentConfig config;
  config.threshold = Millis(100);
  config.crowd_step = 5;
  config.max_crowd = 50;
  config.min_clients = 50;
  return config;
}

DeploymentOptions LanOptions(uint64_t seed) {
  DeploymentOptions options;
  options.seed = seed;
  options.fleet_size = 55;
  options.lan_clients = true;
  options.jitter_sigma = 0.0;
  return options;
}

TEST(IntegrationTest, LargeObjectStageFindsBandwidthConstraint) {
  // 100 Mbit/s access link + 100 KB object: per-flow share shrinks with the
  // crowd; the response time knee lands within a few crowd steps of
  // 0.1 s * 12.5 MB/s / 100 KB = ~13 concurrent requests.
  Deployment deployment(MakeLabValidationProfile(), LanOptions(1));
  ExperimentResult result =
      deployment.RunMfc(LabConfig(), deployment.ObjectsFromContent(), 11);
  ASSERT_FALSE(result.aborted);
  const StageResult* stage = result.Stage(StageKind::kLargeObject);
  ASSERT_NE(stage, nullptr);
  EXPECT_TRUE(stage->stopped);
  EXPECT_GE(stage->stopping_crowd_size, 10u);
  EXPECT_LE(stage->stopping_crowd_size, 35u);
}

TEST(IntegrationTest, FastCgiQueryStageDegradesButMongrelHolds) {
  // Figure 6's contrast: the forking FastCGI stack blows past RAM and
  // degrades; the fixed Mongrel pool stays flat at the same crowd sizes.
  SiteInstance fcgi_site = MakeLabValidationProfile();
  Deployment fcgi(fcgi_site, LanOptions(2));
  ExperimentResult fcgi_result =
      fcgi.RunMfc(LabConfig(), fcgi.ObjectsFromContent(), 13);
  const StageResult* fcgi_stage = fcgi_result.Stage(StageKind::kSmallQuery);
  ASSERT_NE(fcgi_stage, nullptr);
  EXPECT_TRUE(fcgi_stage->stopped);

  SiteInstance mongrel_site = MakeLabValidationProfile();
  mongrel_site.server.cgi_model = CgiModel::kMongrel;
  mongrel_site.server.mongrel_pool = 16;
  Deployment mongrel(mongrel_site, LanOptions(2));
  ExperimentResult mongrel_result =
      mongrel.RunMfc(LabConfig(), mongrel.ObjectsFromContent(), 13);
  const StageResult* mongrel_stage = mongrel_result.Stage(StageKind::kSmallQuery);
  ASSERT_NE(mongrel_stage, nullptr);
  EXPECT_FALSE(mongrel_stage->stopped);
}

TEST(IntegrationTest, QtnpShowsPaperOrdering) {
  // QTNP (Table 1): Base stops first (~20-25), Small Query later (~45-55),
  // Large Object not at all.
  DeploymentOptions options;
  options.seed = 3;
  options.fleet_size = 60;
  Deployment deployment(MakeQtnpProfile(), options);
  ExperimentConfig config = LabConfig();
  config.max_crowd = 55;
  ExperimentResult result = deployment.RunMfc(config, deployment.ObjectsFromContent(), 17);
  ASSERT_FALSE(result.aborted);

  const StageResult* base = result.Stage(StageKind::kBase);
  const StageResult* query = result.Stage(StageKind::kSmallQuery);
  const StageResult* large = result.Stage(StageKind::kLargeObject);
  ASSERT_NE(base, nullptr);
  ASSERT_NE(query, nullptr);
  ASSERT_NE(large, nullptr);

  EXPECT_TRUE(base->stopped);
  EXPECT_GE(base->stopping_crowd_size, 10u);
  EXPECT_LE(base->stopping_crowd_size, 35u);
  EXPECT_FALSE(large->stopped);
  if (query->stopped) {
    EXPECT_GT(query->stopping_crowd_size, base->stopping_crowd_size);
  }
}

TEST(IntegrationTest, QtpClusterIsUnmoved) {
  // QTP: 16 load-balanced servers; no stage shows even a small degradation.
  DeploymentOptions options;
  options.seed = 4;
  options.fleet_size = 85;
  Deployment deployment(MakeQtpProfile(), options);
  ExperimentConfig config = LabConfig();
  config.max_crowd = 80;
  config.requests_per_client = 2;  // MFC-mr, as in the paper's QTP runs
  ExperimentResult result =
      deployment.RunMfc(config, deployment.ObjectsFromContent(), 19);
  for (const StageResult& stage : result.stages) {
    EXPECT_FALSE(stage.stopped) << StageName(stage.kind);
  }
}

TEST(IntegrationTest, Univ1IsPoorlyProvisionedEverywhere) {
  DeploymentOptions options;
  options.seed = 5;
  options.fleet_size = 55;
  Deployment deployment(MakeUniv1Profile(), options);
  ExperimentConfig config = LabConfig();
  ExperimentResult result =
      deployment.RunMfc(config, deployment.ObjectsFromContent(), 23);
  const StageResult* base = result.Stage(StageKind::kBase);
  const StageResult* query = result.Stage(StageKind::kSmallQuery);
  ASSERT_NE(base, nullptr);
  ASSERT_NE(query, nullptr);
  EXPECT_TRUE(base->stopped);
  EXPECT_LE(base->stopping_crowd_size, 15u);
  EXPECT_TRUE(query->stopped);
  // The paper reports a stopping size of 5 by log inspection (footnote 2:
  // stages run to at least crowd 15); base-measurement cache warming also
  // softens the first epochs, as Section 2.3 cautions.
  EXPECT_LE(query->stopping_crowd_size, 30u);

  InferenceReport report = AnalyzeExperiment(result, config);
  EXPECT_TRUE(report.AnyConstraint());
}

TEST(IntegrationTest, CrawlProfileDiscoversProbeObjects) {
  SiteInstance instance = MakeQtnpProfile();
  DeploymentOptions options;
  options.seed = 6;
  options.fleet_size = 50;
  Deployment deployment(instance, options);
  ContentProfile profile = deployment.CrawlProfile();
  EXPECT_GT(profile.pages_crawled, 0u);
  EXPECT_TRUE(profile.HasLargeObject());
  EXPECT_TRUE(profile.HasSmallQuery());
  // The crawl-derived stage objects match the content-derived ones.
  StageObjects crawled = SelectStageObjects(profile);
  StageObjects direct = deployment.ObjectsFromContent();
  ASSERT_TRUE(crawled.large_object.has_value());
  ASSERT_TRUE(direct.large_object.has_value());
  EXPECT_EQ(crawled.large_object->path, direct.large_object->path);
  ASSERT_TRUE(crawled.small_query.has_value());
  // Both pick a qualifying query endpoint (not necessarily the same one).
  EXPECT_EQ(crawled.small_query->path.substr(0, 11), "/cgi/search");
  EXPECT_EQ(direct.small_query->path.substr(0, 11), "/cgi/search");
}

TEST(IntegrationTest, RegistrationAbortsWithTinyFleet) {
  DeploymentOptions options;
  options.seed = 7;
  options.fleet_size = 20;  // < 50 required
  Deployment deployment(MakeQtnpProfile(), options);
  ExperimentResult result =
      deployment.RunMfc(LabConfig(), deployment.ObjectsFromContent(), 29);
  EXPECT_TRUE(result.aborted);
}

TEST(IntegrationTest, SurveyRunnerProducesVerdicts) {
  ExperimentConfig config = LabConfig();
  config.max_crowd = 30;  // keep the test fast
  ExperimentResult result = RunSiteExperiment(SampleSiteAt(31, Cohort::kPhishing, 0), config,
                                              {StageKind::kBase}, 101);
  ASSERT_FALSE(result.aborted);
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_GT(result.stages[0].max_crowd_tested, 0u);
}

TEST(IntegrationTest, BackgroundTrafficLowersBaseStoppingSize) {
  // Univ-3's morning-vs-evening effect: more background traffic, earlier
  // Base-stage stop.
  auto run_with_bg = [](double rps) {
    SiteInstance site = MakeUniv3Profile();
    site.base_knee = 35;  // bring the knee into the testable range
    site.server.head_cpu_s = 0.1 * 1.0 / 35.0;
    DeploymentOptions options;
    options.seed = 8;
    options.fleet_size = 55;
    options.background_rps = rps;
    Deployment deployment(site, options);
    deployment.StartBackground();
    ExperimentConfig config;
    config.threshold = Millis(100);
    config.max_crowd = 50;
    ExperimentResult result =
        deployment.RunMfc(config, deployment.ObjectsFromContent(), 37);
    const StageResult* base = result.Stage(StageKind::kBase);
    return base != nullptr && base->stopped ? base->stopping_crowd_size : 999u;
  };
  size_t quiet = run_with_bg(0.0);
  size_t busy = run_with_bg(25.0);
  EXPECT_LE(busy, quiet);
  EXPECT_LT(busy, 999u);
}

}  // namespace
}  // namespace mfc
