#include "src/core/coordinator.h"

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <vector>

#include "src/telemetry/metrics.h"

namespace mfc {
namespace {

// Scripted harness: the target's normalized delay is a pure function of
// crowd size (and sample index, for heterogeneity), so every coordinator
// decision path can be exercised deterministically.
class MockHarness : public ClientHarness {
 public:
  size_t client_count = 60;
  SimDuration base_response = 0.050;
  // delay(crowd_size, sample_index) -> added seconds.
  std::function<SimDuration(size_t, size_t)> delay = [](size_t, size_t) { return 0.0; };
  // deliver(client_id, epoch_index) -> false swallows that client's samples,
  // modelling a lossy control plane or a dead client. epoch_index counts
  // ExecuteCrowd calls.
  std::function<bool(size_t, size_t)> deliver = [](size_t, size_t) { return true; };
  // healthy(client_id) -> transport-level verdict surfaced via ClientHealthy,
  // modelling the live harness's probe-miss tracking.
  std::function<bool(size_t)> healthy = [](size_t) { return true; };

  std::vector<size_t> crowd_history;            // epoch crowd sizes, in order
  std::vector<std::vector<CrowdRequestPlan>> plan_history;

  size_t ClientCount() const override { return client_count; }

  std::vector<size_t> ProbeClients(SimDuration) override {
    std::vector<size_t> ids(client_count);
    for (size_t i = 0; i < client_count; ++i) {
      ids[i] = i;
    }
    return ids;
  }

  bool ClientHealthy(size_t client) const override { return healthy(client); }

  SimDuration MeasureCoordRtt(size_t) override { return 0.020; }
  SimDuration MeasureTargetRtt(size_t) override { return 0.060; }

  RequestSample FetchOnce(size_t client, const HttpRequest&) override {
    RequestSample sample;
    sample.client_id = client;
    sample.code = HttpStatus::kOk;
    sample.response_time = base_response;
    return sample;
  }

  std::vector<RequestSample> ExecuteCrowd(const std::vector<CrowdRequestPlan>& plans,
                                          SimTime poll_time) override {
    plan_history.push_back(plans);
    size_t crowd = 0;
    for (const auto& plan : plans) {
      crowd += plan.connections;
    }
    crowd_history.push_back(crowd);
    size_t epoch_index = crowd_history.size() - 1;
    std::vector<RequestSample> samples;
    size_t index = 0;
    for (const auto& plan : plans) {
      for (size_t c = 0; c < plan.connections; ++c, ++index) {
        if (!deliver(plan.client_id, epoch_index)) {
          continue;
        }
        RequestSample sample;
        sample.client_id = plan.client_id;
        sample.code = HttpStatus::kOk;
        sample.response_time = base_response + delay(crowd, index);
        samples.push_back(sample);
      }
    }
    now_ = poll_time;
    return samples;
  }

  SimTime Now() const override { return now_; }
  void WaitUntil(SimTime t) override { now_ = t; }

 private:
  SimTime now_ = 0.0;
};

StageObjects AllObjects() {
  StageObjects objects;
  objects.base_page = *ParseUrl("http://h/");
  objects.large_object = *ParseUrl("http://h/files/big.zip");
  objects.small_query = *ParseUrl("http://h/cgi/q.php?id=0");
  return objects;
}

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.min_clients = 50;
  config.crowd_step = 5;
  config.max_crowd = 50;
  return config;
}

TEST(CoordinatorTest, AbortsWithoutEnoughClients) {
  MockHarness harness;
  harness.client_count = 30;
  Coordinator coordinator(harness, SmallConfig());
  ExperimentResult result = coordinator.Run(AllObjects());
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.registered_clients, 30u);
  EXPECT_TRUE(result.stages.empty());
  EXPECT_NE(result.abort_reason.find("30"), std::string::npos);
}

TEST(CoordinatorTest, UnconstrainedServerIsNoStop) {
  MockHarness harness;
  Coordinator coordinator(harness, SmallConfig());
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});
  ASSERT_EQ(result.stages.size(), 1u);
  const StageResult& stage = result.stages[0];
  EXPECT_FALSE(stage.stopped);
  EXPECT_EQ(stage.max_crowd_tested, 50u);
  // Crowds 5, 10, ..., 50 — ten epochs, no checks.
  EXPECT_EQ(stage.epochs.size(), 10u);
  EXPECT_EQ(harness.crowd_history,
            (std::vector<size_t>{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}));
}

TEST(CoordinatorTest, StopsWithCheckPhaseConfirmation) {
  MockHarness harness;
  // Server degrades once 23+ simultaneous requests arrive.
  harness.delay = [](size_t crowd, size_t) { return crowd >= 23 ? 0.200 : 0.0; };
  Coordinator coordinator(harness, SmallConfig());
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});
  const StageResult& stage = result.stages[0];
  EXPECT_TRUE(stage.stopped);
  EXPECT_EQ(stage.stopping_crowd_size, 25u);
  // 5,10,15,20 clean; 25 exceeds; check at 24 confirms immediately.
  EXPECT_EQ(harness.crowd_history, (std::vector<size_t>{5, 10, 15, 20, 25, 24}));
  ASSERT_EQ(stage.epochs.size(), 6u);
  EXPECT_FALSE(stage.epochs[4].check_phase);
  EXPECT_TRUE(stage.epochs[4].exceeded_threshold);
  EXPECT_TRUE(stage.epochs[5].check_phase);
}

TEST(CoordinatorTest, SmallCrowdsAutoProgressWithoutCheck) {
  MockHarness harness;
  // Degrades from 8 requests on — but epochs below 15 may not stop.
  harness.delay = [](size_t crowd, size_t) { return crowd >= 8 ? 0.200 : 0.0; };
  Coordinator coordinator(harness, SmallConfig());
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});
  const StageResult& stage = result.stages[0];
  EXPECT_TRUE(stage.stopped);
  EXPECT_EQ(stage.stopping_crowd_size, 15u);
  // 5, 10 exceed but auto-progress; 15 exceeds and the check confirms at 14.
  EXPECT_EQ(harness.crowd_history, (std::vector<size_t>{5, 10, 15, 14}));
}

TEST(CoordinatorTest, CheckPhaseFiltersOneOffNoise) {
  MockHarness harness;
  // One spurious spike: the first epoch with crowd 20 reports degradation;
  // every later crowd (including the checks) is clean — the check phase must
  // reject the stop.
  int epochs_of_20 = 0;
  harness.delay = [&epochs_of_20](size_t crowd, size_t index) {
    if (crowd == 20 && index == 0) {
      ++epochs_of_20;
    }
    return crowd == 20 && epochs_of_20 == 1 ? 0.200 : 0.0;
  };
  Coordinator coordinator(harness, SmallConfig());
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});
  const StageResult& stage = result.stages[0];
  EXPECT_FALSE(stage.stopped);
  // Epoch at 20 exceeded, checks at 19, 20, 21 all clean, then progress.
  std::vector<size_t> expected{5, 10, 15, 20, 19, 20, 21, 25, 30, 35, 40, 45, 50};
  EXPECT_EQ(harness.crowd_history, expected);
}

TEST(CoordinatorTest, MedianRuleIgnoresMinorityDegradation) {
  MockHarness harness;
  // 40% of samples see a huge delay; the median stays clean.
  harness.delay = [](size_t crowd, size_t index) {
    return index < (crowd * 2) / 5 ? 0.500 : 0.0;
  };
  Coordinator coordinator(harness, SmallConfig());
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});
  EXPECT_FALSE(result.stages[0].stopped);
}

TEST(CoordinatorTest, LargeObjectRuleNeedsNinetyPercent) {
  MockHarness harness;
  // 60% of clients degraded: enough for the median rule, not for the
  // 90%-of-clients rule the Large Object stage uses.
  harness.delay = [](size_t crowd, size_t index) {
    return index < (crowd * 3) / 5 ? 0.500 : 0.0;
  };
  Coordinator coordinator(harness, SmallConfig());
  ExperimentResult base = coordinator.Run(AllObjects(), {StageKind::kBase});
  EXPECT_TRUE(base.stages[0].stopped);

  MockHarness harness2;
  harness2.delay = harness.delay;
  Coordinator coordinator2(harness2, SmallConfig());
  ExperimentResult large = coordinator2.Run(AllObjects(), {StageKind::kLargeObject});
  EXPECT_FALSE(large.stages[0].stopped);

  // 95% degraded: the Large Object rule fires too.
  MockHarness harness3;
  harness3.delay = [](size_t crowd, size_t index) {
    return index < (crowd * 19) / 20 ? 0.500 : 0.0;
  };
  Coordinator coordinator3(harness3, SmallConfig());
  ExperimentResult large2 = coordinator3.Run(AllObjects(), {StageKind::kLargeObject});
  EXPECT_TRUE(large2.stages[0].stopped);
}

TEST(CoordinatorTest, MfcMrMultipliesRequestsPerClient) {
  MockHarness harness;
  ExperimentConfig config = SmallConfig();
  config.requests_per_client = 2;
  config.max_crowd = 20;
  Coordinator coordinator(harness, config);
  coordinator.Run(AllObjects(), {StageKind::kBase});
  ASSERT_FALSE(harness.plan_history.empty());
  // Crowd of 10 requests = 5 clients x 2 connections.
  EXPECT_EQ(harness.crowd_history[1], 10u);
  EXPECT_EQ(harness.plan_history[1].size(), 5u);
  EXPECT_EQ(harness.plan_history[1][0].connections, 2u);
}

TEST(CoordinatorTest, SkipsStagesWithoutObjects) {
  MockHarness harness;
  StageObjects objects;
  objects.base_page = *ParseUrl("http://h/");
  Coordinator coordinator(harness, SmallConfig());
  ExperimentResult result = coordinator.Run(objects);
  ASSERT_EQ(result.stages.size(), 1u);
  EXPECT_EQ(result.stages[0].kind, StageKind::kBase);
}

TEST(CoordinatorTest, UniqueQueriesCarryPerClientParameter) {
  MockHarness harness;
  ExperimentConfig config = SmallConfig();
  config.max_crowd = 10;
  Coordinator coordinator(harness, config);
  coordinator.Run(AllObjects(), {StageKind::kSmallQuery});
  ASSERT_FALSE(harness.plan_history.empty());
  std::set<std::string> targets;
  for (const auto& plan : harness.plan_history.back()) {
    EXPECT_NE(plan.request->target.find("mfc="), std::string::npos);
    targets.insert(plan.request->target);
  }
  EXPECT_EQ(targets.size(), harness.plan_history.back().size());
}

TEST(CoordinatorTest, SharedQueryWhenUniquenessUnavailable) {
  MockHarness harness;
  StageObjects objects = AllObjects();
  objects.small_query_unique = false;
  ExperimentConfig config = SmallConfig();
  config.max_crowd = 10;
  Coordinator coordinator(harness, config);
  coordinator.Run(objects, {StageKind::kSmallQuery});
  for (const auto& plan : harness.plan_history.back()) {
    EXPECT_EQ(plan.request->target, "/cgi/q.php?id=0");
  }
}

TEST(CoordinatorTest, DispatchTimesFollowSyncFormula) {
  MockHarness harness;
  ExperimentConfig config = SmallConfig();
  config.max_crowd = 5;
  Coordinator coordinator(harness, config);
  coordinator.Run(AllObjects(), {StageKind::kBase});
  ASSERT_FALSE(harness.plan_history.empty());
  for (const auto& plan : harness.plan_history[0]) {
    // All mock clients share Tc=0.020, Tt=0.060: send = arrival - 0.100.
    EXPECT_NEAR(plan.intended_arrival - plan.command_send_time, 0.100, 1e-12);
  }
}

TEST(CoordinatorTest, MeasurersRideAlongAndStayOutOfMetric) {
  MockHarness harness;
  // Heavy degradation visible to everyone; measurers must not dilute it.
  harness.delay = [](size_t crowd, size_t) { return crowd >= 18 ? 0.300 : 0.0; };
  ExperimentConfig config = SmallConfig();
  Coordinator coordinator(harness, config);
  HttpRequest probe;
  probe.method = HttpMethod::kGet;
  probe.target = "/other.bin";
  coordinator.SetMeasurers({MeasurerSpec{59, probe}});
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});
  EXPECT_TRUE(result.stages[0].stopped);
  EXPECT_FALSE(coordinator.MeasurerSamples().empty());
  // Each epoch recorded exactly one measurer sample.
  for (const auto& epoch_measurers : coordinator.MeasurerSamples()) {
    EXPECT_EQ(epoch_measurers.size(), 1u);
  }
}

TEST(CoordinatorTest, TotalRequestsAccounted) {
  MockHarness harness;
  Coordinator coordinator(harness, SmallConfig());
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});
  // NoStop run: 5+10+...+50 = 275 requests.
  EXPECT_EQ(result.TotalRequests(), 275u);
}

TEST(CoordinatorTest, EndReasonReportsConstraintFound) {
  MockHarness harness;
  harness.delay = [](size_t crowd, size_t) { return crowd >= 23 ? 0.200 : 0.0; };
  Coordinator coordinator(harness, SmallConfig());
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});
  const StageResult& stage = result.stages[0];
  EXPECT_TRUE(stage.stopped);
  EXPECT_EQ(stage.end_reason, StageEndReason::kConstraintFound);
  EXPECT_NE(stage.end_detail.find("check phase confirmed"), std::string::npos);
}

TEST(CoordinatorTest, EvictsSilentClientAndBackfillsFromSpares) {
  MockHarness harness;
  // Client 0 is half-dead: it accepts commands but its samples never arrive.
  harness.deliver = [](size_t client, size_t) { return client != 0; };
  ExperimentConfig config = SmallConfig();
  config.evict_after_misses = 2;
  MetricsRegistry metrics;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  Coordinator coordinator(harness, config);
  coordinator.SetTelemetry(&telemetry);
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});

  EXPECT_EQ(metrics.Counter("coord.clients_evicted"), 1.0);
  // Spares backfill: every epoch still fields a full crowd (60 registered,
  // at most 50 needed), so the schedule never shrinks below plan.
  for (const EpochResult& epoch : result.stages[0].epochs) {
    EXPECT_EQ(epoch.samples_expected, epoch.crowd_size);
  }
  // Once evicted, client 0 never joins another crowd.
  bool seen_after_eviction = false;
  size_t participations = 0;
  for (const auto& plans : harness.plan_history) {
    bool in_crowd = false;
    for (const auto& plan : plans) {
      in_crowd |= plan.client_id == 0;
    }
    if (in_crowd) {
      ++participations;
      if (participations > config.evict_after_misses) {
        seen_after_eviction = true;
      }
    }
  }
  EXPECT_GE(participations, config.evict_after_misses);
  EXPECT_FALSE(seen_after_eviction);
}

TEST(CoordinatorTest, TransportUnhealthyVerdictEvictsDeliveringClient) {
  MockHarness harness;
  // Client 0 delivers every sample, but the transport reports its control
  // plane dead (the live harness's probe-miss verdict). The coordinator must
  // evict on that verdict alone, without waiting for sample misses.
  harness.healthy = [](size_t client) { return client != 0; };
  ExperimentConfig config = SmallConfig();
  config.evict_after_misses = 2;
  MetricsRegistry metrics;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  Coordinator coordinator(harness, config);
  coordinator.SetTelemetry(&telemetry);
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});

  EXPECT_EQ(metrics.Counter("coord.clients_evicted"), 1.0);
  // Evicted after its first epoch despite a perfect sample record.
  size_t participations = 0;
  for (const auto& plans : harness.plan_history) {
    for (const auto& plan : plans) {
      participations += plan.client_id == 0 ? 1 : 0;
    }
  }
  EXPECT_EQ(participations, 1u);
  // Spares backfill, so the schedule never runs short.
  for (const EpochResult& epoch : result.stages[0].epochs) {
    EXPECT_EQ(epoch.samples_expected, epoch.crowd_size);
  }
}

TEST(CoordinatorTest, EvictionKnobAtZeroIgnoresTransportVerdict) {
  MockHarness harness;
  harness.healthy = [](size_t) { return false; };  // everyone looks dead
  MetricsRegistry metrics;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  // SmallConfig leaves evict_after_misses at 0: eviction disabled entirely.
  Coordinator coordinator(harness, SmallConfig());
  coordinator.SetTelemetry(&telemetry);
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});
  EXPECT_EQ(metrics.Counter("coord.clients_evicted"), 0.0);
  EXPECT_FALSE(result.aborted);
}

TEST(CoordinatorTest, BelowQuorumEpochIsRerunOnceAndRecovers) {
  MockHarness harness;
  // One bad epoch: the third ExecuteCrowd call (index 2) loses half its
  // samples; the re-run (index 3) is clean.
  harness.deliver = [](size_t client, size_t epoch_index) {
    return epoch_index != 2 || client % 2 != 0;
  };
  ExperimentConfig config = SmallConfig();
  config.epoch_quorum = 0.9;
  MetricsRegistry metrics;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  Coordinator coordinator(harness, config);
  coordinator.SetTelemetry(&telemetry);
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});

  const StageResult& stage = result.stages[0];
  EXPECT_FALSE(stage.stopped);
  EXPECT_EQ(stage.end_reason, StageEndReason::kNoStop);
  EXPECT_EQ(metrics.Counter("coord.epoch_requeues"), 1.0);
  EXPECT_EQ(metrics.Counter("coord.quorum_failures"), 0.0);
  // 10 planned crowds + 1 re-run; crowd 15 appears twice back to back.
  ASSERT_EQ(stage.epochs.size(), 11u);
  EXPECT_EQ(harness.crowd_history,
            (std::vector<size_t>{5, 10, 15, 15, 20, 25, 30, 35, 40, 45, 50}));
  size_t requeued = 0;
  for (const EpochResult& epoch : stage.epochs) {
    requeued += epoch.requeued ? 1 : 0;
  }
  EXPECT_EQ(requeued, 1u);
}

TEST(CoordinatorTest, PersistentQuorumShortfallEndsStageExplicitly) {
  MockHarness harness;
  // From the third call on, half the fleet's samples are lost for good: the
  // re-run cannot recover and the stage must end with an explicit verdict.
  harness.deliver = [](size_t client, size_t epoch_index) {
    return epoch_index < 2 || client % 2 != 0;
  };
  ExperimentConfig config = SmallConfig();
  config.epoch_quorum = 0.9;
  MetricsRegistry metrics;
  Telemetry telemetry;
  telemetry.metrics = &metrics;
  Coordinator coordinator(harness, config);
  coordinator.SetTelemetry(&telemetry);
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});

  const StageResult& stage = result.stages[0];
  EXPECT_FALSE(stage.stopped);
  EXPECT_EQ(stage.end_reason, StageEndReason::kQuorumFailed);
  EXPECT_NE(stage.end_detail.find("samples after re-run"), std::string::npos);
  EXPECT_EQ(metrics.Counter("coord.epoch_requeues"), 1.0);
  EXPECT_EQ(metrics.Counter("coord.quorum_failures"), 1.0);
  // Crowds 5, 10 clean; 15 short, re-run short, stop.
  EXPECT_EQ(harness.crowd_history, (std::vector<size_t>{5, 10, 15, 15}));
  EXPECT_TRUE(stage.epochs.back().requeued);
}

TEST(CoordinatorTest, QuorumKnobOffKeepsScheduleIdentical) {
  // Same lossy fleet, knob off: the schedule must match the seed behavior
  // (no re-runs, no early termination).
  MockHarness harness;
  harness.deliver = [](size_t client, size_t) { return client % 2 != 0; };
  Coordinator coordinator(harness, SmallConfig());
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});
  EXPECT_EQ(result.stages[0].end_reason, StageEndReason::kNoStop);
  EXPECT_EQ(harness.crowd_history,
            (std::vector<size_t>{5, 10, 15, 20, 25, 30, 35, 40, 45, 50}));
}

TEST(CoordinatorTest, EpochGapSeparatesEpochs) {
  MockHarness harness;
  ExperimentConfig config = SmallConfig();
  config.max_crowd = 10;
  Coordinator coordinator(harness, config);
  ExperimentResult result = coordinator.Run(AllObjects(), {StageKind::kBase});
  EXPECT_GT(result.stages[0].Span(), config.epoch_gap);
}

}  // namespace
}  // namespace mfc
