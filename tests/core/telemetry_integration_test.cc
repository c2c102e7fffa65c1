// End-to-end telemetry: a fixed-seed experiment must produce the documented
// span tree (request lifecycle + coordinator epochs) and merge-safe metrics,
// and the merged survey telemetry must not depend on the jobs count. The
// golden tests pin the structural shape (span vocabulary, parent links,
// counts; metric row names) of a fixed-seed run against files checked in
// under tests/golden/ — regenerate with MFC_UPDATE_GOLDEN=1 after an
// intentional instrumentation change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/experiment_runner.h"
#include "src/core/export.h"
#include "src/core/population.h"
#include "src/core/survey.h"

#ifndef MFC_GOLDEN_DIR
#define MFC_GOLDEN_DIR "tests/golden"
#endif

namespace mfc {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.threshold = Millis(100);
  config.crowd_step = 5;
  config.max_crowd = 55;
  config.min_clients = 50;
  return config;
}

struct Traced {
  Tracer tracer;
  MetricsRegistry metrics;
  ExperimentResult result;
};

// |with_tracer| false runs with metrics alone.
Traced RunTracedQtnp(uint64_t seed, bool with_tracer = true) {
  Traced traced;
  Telemetry telemetry;
  telemetry.tracer = with_tracer ? &traced.tracer : nullptr;
  telemetry.metrics = &traced.metrics;
  traced.result = RunSiteExperiment(MakeQtnpProfile(), SmallConfig(),
                                    {StageKind::kBase, StageKind::kSmallQuery,
                                     StageKind::kLargeObject},
                                    seed, &telemetry);
  return traced;
}

// One line per (category, parent-name, name) with its occurrence count —
// the structural skeleton of the trace, independent of timing values.
std::string TraceStructure(const Tracer& tracer) {
  std::map<std::string, size_t> counts;
  for (const TraceSpan& span : tracer.Spans()) {
    const std::string parent =
        span.parent == 0 ? "-" : tracer.Spans()[span.parent - 1].name;
    ++counts[span.category + "|" + parent + "|" + span.name];
  }
  std::string out;
  for (const auto& [key, count] : counts) {
    out += key + "|" + std::to_string(count) + "\n";
  }
  return out;
}

// The kind,name,field skeleton of the metrics CSV (values stripped).
std::string MetricsStructure(const MetricsRegistry& metrics) {
  std::istringstream in(ExportMetricsCsv(metrics));
  std::string line, out;
  bool header = true;
  while (std::getline(in, line)) {
    if (header) {
      header = false;
      continue;
    }
    out += line.substr(0, line.rfind(',')) + "\n";
  }
  return out;
}

TEST(TelemetryIntegrationTest, RequestSpansDecomposeTheLifecycle) {
  Traced traced = RunTracedQtnp(17);
  ASSERT_FALSE(traced.result.aborted);

  std::vector<const TraceSpan*> requests = traced.tracer.Named("request");
  ASSERT_FALSE(requests.empty());

  // Index children by parent id once.
  std::map<SpanId, std::vector<const TraceSpan*>> children;
  for (const TraceSpan& span : traced.tracer.Spans()) {
    if (span.parent != 0) {
      children[span.parent].push_back(&span);
    }
  }

  size_t with_net = 0;
  for (const TraceSpan* request : requests) {
    EXPECT_FALSE(request->open);
    EXPECT_EQ(request->parent, 0u);
    std::map<std::string, size_t> kinds;
    for (const TraceSpan* child : children[request->id]) {
      ++kinds[child->name];
      // Children stay inside the request in simulated time and share its
      // render track.
      EXPECT_GE(child->start, request->start);
      EXPECT_LE(child->end, request->end + 1e-9);
      EXPECT_EQ(child->track, request->id);
    }
    EXPECT_EQ(kinds.count("queue"), 1u) << "request " << request->id;
    EXPECT_GE(kinds["cpu"], 1u) << "request " << request->id;
    with_net += kinds.count("net");
  }
  // Every successfully served request streams a body.
  EXPECT_GT(with_net, 0u);

  // The flushed metrics agree with the span tree.
  EXPECT_DOUBLE_EQ(traced.metrics.Counter("server.requests_total"),
                   static_cast<double>(requests.size()));
  ASSERT_NE(traced.metrics.Hist("server.request_ms"), nullptr);
  EXPECT_EQ(traced.metrics.Hist("server.request_ms")->Total(), requests.size());
}

// The stage label a request root span was stamped with at arrival.
std::string StageOf(const TraceSpan& request) {
  for (const auto& [key, value] : request.attrs) {
    if (key == "stage") {
      return value;
    }
  }
  ADD_FAILURE() << "request span " << request.id << " has no stage";
  return "";
}

// The oracles below recompute the server's per-stage counters and request
// latency metrics from the span tree alone, sharing nothing with the
// server's registry slots.
TEST(TelemetryIntegrationTest, StageCountersMatchTheRequestSpans) {
  Traced traced = RunTracedQtnp(17);
  ASSERT_FALSE(traced.result.aborted);
  const std::vector<TraceSpan>& spans = traced.tracer.Spans();

  // span.<Stage>.<field> from the spans: one count per request root, and
  // each child's duration under <child name>_s of its root's stage.
  std::map<std::string, double> expected;
  for (const TraceSpan& span : spans) {
    if (span.parent == 0 && span.name == "request") {
      EXPECT_FALSE(span.open);
      const std::string prefix = "span." + StageOf(span) + ".";
      expected[prefix + "count"] += 1.0;
      for (const char* field : {"queue_s", "cpu_s", "db_s", "disk_s", "net_s"}) {
        expected[prefix + field] += 0.0;
      }
    }
  }
  for (const TraceSpan& span : spans) {
    if (span.parent == 0 || spans[span.parent - 1].name != "request") {
      continue;
    }
    const std::string field = span.name + "_s";
    const std::string name = "span." + StageOf(spans[span.parent - 1]) + "." + field;
    ASSERT_EQ(expected.count(name), 1u) << "unexpected request child " << span.name;
    expected[name] += span.Duration();
  }
  ASSERT_GE(expected.size(), 3u * 6u);  // all three stages served requests

  std::map<std::string, double> actual;
  for (const auto& [name, value] : traced.metrics.Counters()) {
    if (name.rfind("span.", 0) == 0) {
      actual[name] = value;
    }
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (const auto& [name, value] : expected) {
    ASSERT_EQ(actual.count(name), 1u) << name;
    if (name.size() > 6 && name.compare(name.size() - 6, 6, ".count") == 0) {
      EXPECT_EQ(actual[name], value) << name;
    } else {
      EXPECT_LE(std::abs(actual[name] - value), 1e-9 * std::abs(value)) << name;
    }
  }
}

TEST(TelemetryIntegrationTest, RequestLatencyMetricsMatchTheRequestSpans) {
  Traced traced = RunTracedQtnp(17);
  ASSERT_FALSE(traced.result.aborted);
  Histogram hist(LatencyBucketEdgesMs());
  RunningStats stats;
  for (const TraceSpan* request : traced.tracer.Named("request")) {
    double ms = ToMillis(request->Duration());
    hist.Add(ms);
    stats.Add(ms);
  }
  ASSERT_GT(stats.Count(), 0u);
  EXPECT_EQ(traced.metrics.Counter("server.requests_total"), static_cast<double>(stats.Count()));
  const Histogram* registry_hist = traced.metrics.Hist("server.request_ms");
  ASSERT_NE(registry_hist, nullptr);
  EXPECT_TRUE(*registry_hist == hist);
  // The registry adds in finish order and the spans list arrivals, so only
  // the order-free parts of the summary must match exactly.
  const RunningStats* summary = traced.metrics.Summary("server.request_ms");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->Count(), stats.Count());
  EXPECT_EQ(summary->MinValue(), stats.MinValue());
  EXPECT_EQ(summary->MaxValue(), stats.MaxValue());
}

TEST(TelemetryIntegrationTest, MetricsOnlyRunMatchesTheTracedRegistry) {
  Traced traced = RunTracedQtnp(17);
  Traced metrics_only = RunTracedQtnp(17, /*with_tracer=*/false);
  EXPECT_EQ(metrics_only.tracer.SpanCount(), 0u);
  EXPECT_FALSE(metrics_only.metrics.Empty());
  EXPECT_TRUE(metrics_only.metrics == traced.metrics);
}

TEST(TelemetryIntegrationTest, CoordinatorSpansCoverEpochsAndDecisions) {
  Traced traced = RunTracedQtnp(17);
  ASSERT_FALSE(traced.result.aborted);

  std::vector<const TraceSpan*> experiments = traced.tracer.Named("experiment");
  ASSERT_EQ(experiments.size(), 1u);
  std::vector<const TraceSpan*> stages = traced.tracer.Named("stage");
  ASSERT_EQ(stages.size(), 3u);
  for (const TraceSpan* stage : stages) {
    EXPECT_EQ(stage->parent, experiments[0]->id);
  }

  std::vector<const TraceSpan*> epochs = traced.tracer.Named("epoch");
  ASSERT_FALSE(epochs.empty());
  EXPECT_DOUBLE_EQ(traced.metrics.Counter("coord.epochs"),
                   static_cast<double>(epochs.size()));

  // QTNP stops in Base and SmallQuery (Table 1), so confirmation epochs ran
  // under a check_phase span and the stop decisions recorded a crowd size.
  std::vector<const TraceSpan*> checks = traced.tracer.Named("check_phase");
  EXPECT_FALSE(checks.empty());
  size_t check_epochs = 0;
  for (const TraceSpan* epoch : epochs) {
    if (traced.tracer.Spans()[epoch->parent - 1].name == "check_phase") {
      ++check_epochs;
    }
  }
  EXPECT_DOUBLE_EQ(traced.metrics.Counter("coord.check_epochs"),
                   static_cast<double>(check_epochs));

  std::vector<const TraceSpan*> decisions = traced.tracer.Named("stop_decision");
  ASSERT_EQ(decisions.size(), 3u);
  EXPECT_GE(traced.metrics.Counter("coord.stages_stopped"), 2.0);
}

TEST(TelemetryIntegrationTest, SurveyMergedTelemetryIndependentOfJobs) {
  auto run = [](size_t jobs) {
    SurveyTelemetry telemetry;
    telemetry.collect_trace = true;
    telemetry.collect_metrics = true;
    RunSurveyCohortParallel(Cohort::kRank100KTo1M, StageKind::kBase,
                            /*servers=*/6, /*max_crowd=*/40, /*seed=*/5, jobs,
                            nullptr, &telemetry);
    return telemetry;
  };
  SurveyTelemetry sequential = run(1);
  SurveyTelemetry parallel = run(4);

  EXPECT_TRUE(sequential.metrics == parallel.metrics);
  EXPECT_EQ(ExportMetricsCsv(sequential.metrics), ExportMetricsCsv(parallel.metrics));
  EXPECT_EQ(ExportTraceJson(sequential.trace), ExportTraceJson(parallel.trace));
}

// Global site i of a survey takes pid next_pid + i in the merged trace, and
// the next cohort starts past all of this one's sites, in every shard: the
// layout shard merge and resume reproduce byte for byte.
TEST(TelemetryIntegrationTest, SurveyTraceGivesEachSiteItsGlobalPid) {
  SurveyTelemetry telemetry;
  telemetry.collect_trace = true;
  telemetry.next_pid = 10;
  SurveyRunOptions run;
  run.shards = 2;
  run.shard_index = 1;
  RunSurveyCohortParallel(Cohort::kRank100KTo1M, StageKind::kBase, /*servers=*/5,
                          /*max_crowd=*/40, /*seed=*/5, /*jobs=*/2, nullptr, &telemetry,
                          nullptr, run);
  std::set<uint64_t> pids;
  for (const TraceSpan& span : telemetry.trace.Spans()) {
    pids.insert(span.pid);
  }
  EXPECT_EQ(pids, (std::set<uint64_t>{11, 13}));  // global sites 1 and 3
  EXPECT_EQ(telemetry.next_pid, 15u);
}

class GoldenTest : public ::testing::Test {
 protected:
  static std::string GoldenPath(const std::string& name) {
    return std::string(MFC_GOLDEN_DIR) + "/" + name;
  }

  // Compares |actual| to the checked-in golden; rewrites the golden instead
  // when MFC_UPDATE_GOLDEN is set in the environment.
  static void CompareOrUpdate(const std::string& name, const std::string& actual) {
    const std::string path = GoldenPath(name);
    if (std::getenv("MFC_UPDATE_GOLDEN") != nullptr) {
      std::ofstream out(path);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << actual;
      GTEST_SKIP() << "updated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "missing golden file " << path
                           << " (regenerate with MFC_UPDATE_GOLDEN=1)";
    std::stringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str())
        << "structural drift vs " << path
        << " — if intentional, regenerate with MFC_UPDATE_GOLDEN=1";
  }
};

TEST_F(GoldenTest, FixedSeedTraceStructureMatchesGolden) {
  Traced traced = RunTracedQtnp(17);
  ASSERT_FALSE(traced.result.aborted);
  CompareOrUpdate("qtnp_seed17_trace_structure.txt", TraceStructure(traced.tracer));
}

TEST_F(GoldenTest, FixedSeedMetricsStructureMatchesGolden) {
  Traced traced = RunTracedQtnp(17);
  ASSERT_FALSE(traced.result.aborted);
  CompareOrUpdate("qtnp_seed17_metrics_structure.txt", MetricsStructure(traced.metrics));
}

}  // namespace
}  // namespace mfc
