#include <gtest/gtest.h>

#include "src/baseline/keynote_prober.h"
#include "src/core/experiment_runner.h"

namespace mfc {
namespace {

HttpRequest HeadRoot() {
  HttpRequest req;
  req.method = HttpMethod::kHead;
  req.target = "/";
  req.headers.Set("Host", "t");
  return req;
}

TEST(KeynoteProberTest, ReportsSingleRequestLatencies) {
  DeploymentOptions options;
  options.seed = 1;
  options.fleet_size = 10;
  options.lan_clients = true;
  options.jitter_sigma = 0.0;
  Deployment deployment(MakeLabValidationProfile(), options);
  KeynoteProber prober(deployment.Testbed(), HeadRoot(), Seconds(10));
  ProbeReport report = prober.Run(20);
  EXPECT_EQ(report.probes, 20u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_GT(report.mean_response, 0.0);
  EXPECT_LE(report.median_response, report.p95_response);
  EXPECT_LE(report.p95_response, report.max_response);
  // Unloaded LAN HEAD: a few milliseconds at most.
  EXPECT_LT(report.median_response, 0.050);
}

TEST(KeynoteProberTest, SingleProbesMissConcurrencyBottlenecks) {
  // The same server that collapses under a 30-client MFC crowd looks
  // perfectly healthy to sequential single-request monitoring — the paper's
  // core argument against Keynote-style measurement (Section 7).
  SiteInstance site = MakeLabValidationProfile();
  DeploymentOptions options;
  options.seed = 2;
  options.fleet_size = 55;
  options.lan_clients = true;
  Deployment deployment(site, options);

  KeynoteProber prober(deployment.Testbed(), HeadRoot(), Seconds(5));
  ProbeReport probe_report = prober.Run(30);
  EXPECT_LT(probe_report.p95_response, 0.100);  // no degradation visible

  ExperimentConfig config;
  config.max_crowd = 50;
  ExperimentResult mfc = deployment.RunMfc(config, deployment.ObjectsFromContent(), 5);
  const StageResult* large = mfc.Stage(StageKind::kLargeObject);
  ASSERT_NE(large, nullptr);
  EXPECT_TRUE(large->stopped);  // the crowd finds what the prober cannot
}

}  // namespace
}  // namespace mfc
