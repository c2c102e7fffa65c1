// Failure-injection tests: the coordinator must behave sensibly when the
// wide area misbehaves — lost control messages, overloaded servers shedding
// load, broken targets, or clients whose base measurements fail.
#include <gtest/gtest.h>

#include "src/core/config.h"
#include "src/core/experiment_runner.h"
#include "src/core/sim_testbed.h"
#include "src/server/web_server.h"

namespace mfc {
namespace {

TEST(RobustnessTest, HeavyControlLossStillCompletesWithPartialSamples) {
  SiteInstance site = MakeQtnpProfile();
  DeploymentOptions options;
  options.seed = 71;
  options.fleet_size = 120;  // enough that registration survives the loss
  options.control_loss_rate = 0.15;
  Deployment deployment(site, options);
  ExperimentConfig config;
  config.max_crowd = 40;
  ExperimentResult result = deployment.RunMfc(config, deployment.ObjectsFromContent(), 3);
  ASSERT_FALSE(result.aborted);
  const StageResult* base = result.Stage(StageKind::kBase);
  ASSERT_NE(base, nullptr);
  // Some commands vanished: epochs report fewer samples than scheduled, but
  // the stage still ran to a verdict.
  size_t scheduled = 0;
  size_t received = 0;
  for (const EpochResult& epoch : base->epochs) {
    scheduled += epoch.crowd_size;
    received += epoch.samples_received;
  }
  EXPECT_LT(received, scheduled);
  EXPECT_GT(received, scheduled / 2);
}

TEST(RobustnessTest, LossyFleetBelowQuorumAborts) {
  SiteInstance site = MakeQtnpProfile();
  DeploymentOptions options;
  options.seed = 72;
  options.fleet_size = 55;
  options.control_loss_rate = 0.6;  // most probes/replies vanish
  Deployment deployment(site, options);
  ExperimentConfig config;
  config.min_clients = 50;
  ExperimentResult result = deployment.RunMfc(config, deployment.ObjectsFromContent(), 5);
  EXPECT_TRUE(result.aborted);
  EXPECT_LT(result.registered_clients, 50u);
}

// A target whose backlog is tiny: under crowds the overflow is shed as 503s.
// The coordinator still terminates and its samples carry the error codes.
TEST(RobustnessTest, OverloadedServerSheddingLoadStillYieldsVerdict) {
  SiteInstance site = MakeQtnpProfile();
  site.server.worker_threads = 4;
  site.server.accept_backlog = 4;
  site.server.head_cpu_s = 30e-3;  // slow enough that the queue actually fills
  DeploymentOptions options;
  options.seed = 73;
  options.fleet_size = 60;
  Deployment deployment(site, options);
  ExperimentConfig config;
  config.max_crowd = 40;
  ExperimentResult result = deployment.RunMfc(config, deployment.ObjectsFromContent(), 7);
  ASSERT_FALSE(result.aborted);
  const StageResult* base = result.Stage(StageKind::kBase);
  ASSERT_NE(base, nullptr);
  bool saw_rejection = false;
  for (const EpochResult& epoch : base->epochs) {
    for (const RequestSample& sample : epoch.samples) {
      if (sample.code == HttpStatus::kServiceUnavailable) {
        saw_rejection = true;
      }
    }
  }
  EXPECT_TRUE(saw_rejection);
  EXPECT_GT(deployment.Server().Rejected503(), 0u);
}

// A target that never answers at all: every base measurement times out, no
// client is usable, and the stage ends without epochs rather than hanging.
TEST(RobustnessTest, DeadTargetProducesEmptyStage) {
  class BlackHole : public HttpTarget {
   public:
    void OnRequest(const HttpRequest&, bool, ResponseTransport) override {}
  };
  BlackHole hole;
  TestbedConfig testbed_config;
  std::vector<ClientNetProfile> fleet = MakeLanFleet(55);
  SimTestbed testbed(74, testbed_config, std::move(fleet), &hole);
  testbed.set_request_timeout(Seconds(1));  // keep the test quick
  ExperimentConfig config;
  config.request_timeout = Seconds(1);
  config.max_crowd = 30;
  Coordinator coordinator(testbed, config, 9);
  StageObjects objects;
  objects.base_page = *ParseUrl("http://t/");
  ExperimentResult result = coordinator.Run(objects, {StageKind::kBase});
  ASSERT_FALSE(result.aborted);  // registration is control-plane, still fine
  const StageResult* base = result.Stage(StageKind::kBase);
  ASSERT_NE(base, nullptr);
  EXPECT_FALSE(base->stopped);
  EXPECT_TRUE(base->epochs.empty());  // zero usable clients -> nothing to run
}

// Clients that time out mid-epoch report code=ERR with the 10 s cap; the
// coordinator treats those as (large) normalized samples and still stops.
TEST(RobustnessTest, TimeoutsCountTowardDegradation) {
  SiteInstance site = MakeQtnpProfile();
  // From ~8 concurrent requests the front end takes > 10 s each: requests
  // get killed rather than answered.
  site.server.head_cpu_s = 2.5;
  DeploymentOptions options;
  options.seed = 75;
  options.fleet_size = 60;
  Deployment deployment(site, options);
  ExperimentConfig config;
  config.max_crowd = 30;
  ExperimentResult result = deployment.RunMfc(config, deployment.ObjectsFromContent(), 11);
  const StageResult* base = result.Stage(StageKind::kBase);
  ASSERT_NE(base, nullptr);
  EXPECT_TRUE(base->stopped);
  bool saw_timeout = false;
  for (const EpochResult& epoch : base->epochs) {
    for (const RequestSample& sample : epoch.samples) {
      if (sample.timed_out) {
        saw_timeout = true;
        EXPECT_NEAR(sample.response_time, 10.0, 1e-6);
      }
    }
  }
  EXPECT_TRUE(saw_timeout);
}

// Property sweep: whatever the (monotone) capacity knee, the confirmed
// stopping size never lands below it by more than one crowd step.
class StoppingSoundnessTest : public ::testing::TestWithParam<int> {};

TEST_P(StoppingSoundnessTest, StopNeverFarBelowTrueKnee) {
  uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  double knee = rng.Uniform(18.0, 60.0);
  SiteInstance site = MakeQtnpProfile();
  site.server.head_cpu_s = 0.1 * 2.0 / knee;  // calibrated knee
  DeploymentOptions options;
  options.seed = seed;
  options.fleet_size = 85;
  Deployment deployment(site, options);
  ExperimentConfig config;
  config.max_crowd = 85;
  ExperimentResult result =
      deployment.RunMfc(config, deployment.ObjectsFromContent(), seed * 13 + 1);
  const StageResult* base = result.Stage(StageKind::kBase);
  ASSERT_NE(base, nullptr);
  if (base->stopped) {
    // Never a confirmed constraint at less than ~halfway to the knee: the
    // check phase and calibration keep false-early stops out.
    EXPECT_GE(static_cast<double>(base->stopping_crowd_size), 0.6 * knee) << "knee=" << knee;
    EXPECT_LE(static_cast<double>(base->stopping_crowd_size), 2.0 * knee + 10.0)
        << "knee=" << knee;
  } else {
    EXPECT_GT(2.0 * knee, 85.0) << "knee=" << knee;  // NoStop only for high knees
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoppingSoundnessTest, ::testing::Range(1, 9));

// --- RetryPolicy backoff schedule ----------------------------------------
// The control plane's retry loops (registration, pings, command re-issue)
// all consume BackoffFor; its schedule must be bounded and deterministic.

TEST(RetryPolicyTest, DefaultScheduleIsBoundedExponential) {
  RetryPolicy policy;
  EXPECT_DOUBLE_EQ(policy.BackoffFor(1), Millis(100));
  EXPECT_DOUBLE_EQ(policy.BackoffFor(2), Millis(200));
  EXPECT_DOUBLE_EQ(policy.BackoffFor(3), Millis(400));
  EXPECT_DOUBLE_EQ(policy.BackoffFor(4), Millis(800));
  EXPECT_DOUBLE_EQ(policy.BackoffFor(5), Millis(1600));
  // From here the max-delay clamp takes over and holds.
  EXPECT_DOUBLE_EQ(policy.BackoffFor(6), Seconds(2));
  EXPECT_DOUBLE_EQ(policy.BackoffFor(7), Seconds(2));
  EXPECT_DOUBLE_EQ(policy.BackoffFor(64), Seconds(2));
}

TEST(RetryPolicyTest, ScheduleIsMonotoneThroughAttemptCap) {
  RetryPolicy policy;
  SimDuration previous = 0.0;
  for (size_t attempt = 1; attempt <= policy.max_attempts; ++attempt) {
    SimDuration backoff = policy.BackoffFor(attempt);
    EXPECT_GE(backoff, previous) << "attempt " << attempt;
    EXPECT_LE(backoff, policy.max_backoff) << "attempt " << attempt;
    previous = backoff;
  }
}

TEST(RetryPolicyTest, InitialBackoffAboveMaxIsClampedFromAttemptOne) {
  RetryPolicy policy;
  policy.initial_backoff = Seconds(5);
  EXPECT_DOUBLE_EQ(policy.BackoffFor(1), Seconds(2));
  EXPECT_DOUBLE_EQ(policy.BackoffFor(3), Seconds(2));
}

TEST(RetryPolicyTest, UnitMultiplierKeepsConstantBackoff) {
  RetryPolicy policy;
  policy.multiplier = 1.0;
  for (size_t attempt = 1; attempt <= 2 * policy.max_attempts; ++attempt) {
    EXPECT_DOUBLE_EQ(policy.BackoffFor(attempt), Millis(100)) << "attempt " << attempt;
  }
}

TEST(RetryPolicyTest, IdenticalPoliciesProduceIdenticalSchedules) {
  RetryPolicy a;
  RetryPolicy b;
  a.multiplier = b.multiplier = 1.7;
  a.initial_backoff = b.initial_backoff = Millis(35);
  a.max_backoff = b.max_backoff = Millis(900);
  for (size_t attempt = 1; attempt <= 12; ++attempt) {
    // Bit-equal, not approximately equal: resumed runs must wait exactly as
    // long as uninterrupted ones would have.
    EXPECT_EQ(a.BackoffFor(attempt), b.BackoffFor(attempt)) << "attempt " << attempt;
  }
}

TEST(RetryPolicyTest, AttemptZeroBehavesLikeAttemptOne) {
  RetryPolicy policy;
  EXPECT_DOUBLE_EQ(policy.BackoffFor(0), policy.BackoffFor(1));
}

}  // namespace
}  // namespace mfc
