// Runtime health plane unit tests: worker progress cells, counter-delta
// tracking, JSONL serialization, survey-progress arithmetic, and the
// read-only guarantee of the simulated-time sampler.
#include "src/telemetry/snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/stats_stream.h"

namespace mfc {
namespace {

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

// The "t" field every stats line starts with.
double LineTime(const std::string& line) {
  const std::string prefix = "{\"t\":";
  EXPECT_EQ(line.compare(0, prefix.size(), prefix), 0) << line;
  return std::strtod(line.c_str() + prefix.size(), nullptr);
}

TEST(ParallelProgressTest, ClaimAndDoneLifecycle) {
  ParallelProgress progress(2);
  EXPECT_EQ(progress.Workers(), 2u);
  EXPECT_EQ(progress.BusyWorkers(), 0u);

  progress.OnClaim(0, 7);
  progress.OnClaim(1, 9);
  EXPECT_EQ(progress.BusyWorkers(), 2u);
  std::vector<WorkerSnapshot> snap = progress.Snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_TRUE(snap[0].busy);
  EXPECT_EQ(snap[0].current_index, 7u);
  EXPECT_EQ(snap[0].tasks_done, 0u);
  EXPECT_EQ(snap[1].current_index, 9u);

  progress.OnDone(0);
  snap = progress.Snapshot();
  EXPECT_FALSE(snap[0].busy);
  EXPECT_EQ(snap[0].tasks_done, 1u);
  EXPECT_EQ(progress.BusyWorkers(), 1u);

  // Out-of-range worker ids are ignored, not UB.
  progress.OnClaim(99, 1);
  progress.OnDone(99);
  EXPECT_EQ(progress.BusyWorkers(), 1u);
}

TEST(MetricsDeltaTrackerTest, ReportsOnlyChangedCounters) {
  MetricsRegistry metrics;
  metrics.Add("a", 3.0);
  metrics.Add("b", 1.0);
  MetricsDeltaTracker tracker;

  std::vector<std::pair<std::string, double>> out;
  tracker.Collect(metrics, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].first, "a");
  EXPECT_DOUBLE_EQ(out[0].second, 3.0);

  // No changes: nothing reported.
  out.clear();
  tracker.Collect(metrics, &out);
  EXPECT_TRUE(out.empty());

  // Only the bumped counter appears, with its delta (not its total).
  metrics.Add("b", 4.0);
  out.clear();
  tracker.Collect(metrics, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].first, "b");
  EXPECT_DOUBLE_EQ(out[0].second, 4.0);
}

TEST(StatsStreamTest, EmitStampsSequenceAndRetainsHistory) {
  std::string path = testing::TempDir() + "/stats_stream_emit.jsonl";
  std::string error;
  auto stream = StatsStream::Open(path, &error);
  ASSERT_NE(stream, nullptr) << error;

  for (int i = 0; i < 3; ++i) {
    StatsSnapshot snap;
    snap.t = static_cast<double>(i);
    snap.source = "survey";
    stream->Emit(std::move(snap));
  }
  EXPECT_EQ(stream->Emitted(), 3u);

  stream.reset();  // flush + close
  // The file holds the whole history: one line per emit, stamped in order.
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 3u);
  for (size_t i = 0; i < lines.size(); ++i) {
    std::string expect_head = "\"t\":" + std::to_string(i) + ",\"seq\":" + std::to_string(i);
    EXPECT_NE(lines[i].find(expect_head), std::string::npos) << lines[i];
    EXPECT_EQ(lines[i].front(), '{');
    EXPECT_EQ(lines[i].back(), '}');
  }
}

TEST(StatsStreamTest, OpenFailureReportsError) {
  std::string error;
  auto stream = StatsStream::Open("/nonexistent-dir-mfc/stats.jsonl", &error);
  EXPECT_EQ(stream, nullptr);
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

TEST(StatsStreamTest, ToJsonLineEscapesStringsAndClampsNonFinite) {
  StatsSnapshot snap;
  snap.t = 1.5;
  snap.seq = 4;
  snap.source = "survey";
  snap.has_survey = true;
  snap.survey.label = "a\"b\nc";
  snap.survey.done = 1;
  snap.survey.total = 2;
  snap.survey.sites_per_sec = std::numeric_limits<double>::infinity();
  snap.survey.eta_seconds = -1.0;  // unknown: omitted
  snap.counter_deltas.emplace_back("x", 2.5);

  std::string line = StatsStream::ToJsonLine(snap);
  EXPECT_NE(line.find("\"label\":\"a\\\"b\\nc\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"sites_per_sec\":1e+308"), std::string::npos) << line;
  EXPECT_EQ(line.find("eta_seconds"), std::string::npos) << line;
  EXPECT_NE(line.find("\"deltas\":{\"x\":2.5}"), std::string::npos) << line;
}

TEST(StatsStreamTest, ToJsonLineCarriesJournalLagAndAgents) {
  StatsSnapshot snap;
  snap.source = "survey";
  snap.has_survey = true;
  snap.survey.done = 10;
  snap.survey.total = 20;
  snap.survey.journaled = 8;
  AgentHealthSnapshot agent;
  agent.agent_id = 3;
  agent.rtt_ewma = 0.25;
  agent.healthy = false;
  snap.agents.push_back(agent);

  std::string line = StatsStream::ToJsonLine(snap);
  EXPECT_NE(line.find("\"journaled\":8"), std::string::npos) << line;
  EXPECT_NE(line.find("\"journal_lag\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"agents\":[{\"id\":3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"healthy\":false"), std::string::npos) << line;
  // last_seen_age is -1 (never heard): omitted rather than emitted negative.
  EXPECT_EQ(line.find("last_seen_age"), std::string::npos) << line;
}

TEST(BuildSurveyProgressTest, RateEtaAndJournalArithmetic) {
  std::atomic<size_t> processed{30};
  std::atomic<size_t> executed{20};
  std::atomic<size_t> resumed{5};
  SurveySamplerSource source;
  source.label = "cohort";
  source.processed = &processed;
  source.total = 60;
  source.journal_executed = &executed;
  source.journal_resumed = &resumed;

  SurveyProgressSnapshot p = BuildSurveyProgress(source, /*elapsed=*/10.0);
  EXPECT_EQ(p.done, 30u);
  EXPECT_DOUBLE_EQ(p.sites_per_sec, 3.0);
  EXPECT_DOUBLE_EQ(p.eta_seconds, 10.0);  // 30 remaining at 3/s
  EXPECT_EQ(p.journaled, 25);             // executed + resumed

  // No elapsed time yet: no rate, unknown ETA, rather than divide-by-zero.
  SurveyProgressSnapshot start = BuildSurveyProgress(source, 0.0);
  EXPECT_DOUBLE_EQ(start.sites_per_sec, 0.0);
  EXPECT_DOUBLE_EQ(start.eta_seconds, -1.0);

  // Unjournaled run: journaled stays the "absent" sentinel.
  source.journal_executed = nullptr;
  source.journal_resumed = nullptr;
  EXPECT_EQ(BuildSurveyProgress(source, 1.0).journaled, -1);
}

// The sim sampler must observe the loop without perturbing it: the same
// event chain runs to the same final time and produces the same values with
// sampling on or off, and the sampler's snapshots land at exact simulated
// cadence.
TEST(SimStatsSamplerTest, SamplingIsReadOnlyAndOnCadence) {
  // A self-rescheduling chain of 10 events, 7 simulated seconds apart. The
  // recursive callback is owned by this scope (the returned holder must stay
  // alive while the loop runs); scheduled events reference it by pointer so
  // no shared_ptr cycle forms.
  auto make_chain = [](EventLoop& loop, std::vector<double>* times) {
    auto step = std::make_unique<std::function<void(int)>>();
    std::function<void(int)>* step_ptr = step.get();
    *step_ptr = [&loop, times, step_ptr](int remaining) {
      times->push_back(loop.Now());
      if (remaining > 1) {
        loop.ScheduleAfter(Seconds(7.0), [step_ptr, remaining] { (*step_ptr)(remaining - 1); });
      }
    };
    loop.ScheduleAfter(Seconds(7.0), [step_ptr] { (*step_ptr)(10); });
    return step;
  };

  std::vector<double> plain_times;
  EventLoop plain;
  auto plain_chain = make_chain(plain, &plain_times);
  plain.RunUntil(Seconds(75.0));

  std::vector<double> sampled_times;
  EventLoop sampled;
  auto sampled_chain = make_chain(sampled, &sampled_times);
  std::string path = testing::TempDir() + "/sim_sampler.jsonl";
  std::string error;
  auto stream = StatsStream::Open(path, &error);
  ASSERT_NE(stream, nullptr) << error;
  SimStatsSampler sampler(sampled, *stream, /*interval_sim_seconds=*/10.0,
                          [] { return SimHealthSnapshot{}; });
  sampler.Start();
  // The sampler re-arms itself forever, so drive the loop to a fixed horizon
  // instead of idle, then Stop() must cancel the pending tick.
  sampled.RunUntil(Seconds(75.0));
  sampler.Stop();
  EXPECT_EQ(sampled.PendingCount(), 0u);
  sampled.RunUntilIdle();

  EXPECT_EQ(sampled_times, plain_times);
  EXPECT_DOUBLE_EQ(sampled.Now(), plain.Now());

  // Seven ticks (t = 10..70) plus the final Stop() snapshot at t = 75.
  ASSERT_TRUE(stream->Flush());
  std::vector<std::string> lines = ReadLines(path);
  ASSERT_EQ(lines.size(), 8u);
  for (size_t i = 0; i < 7; ++i) {
    EXPECT_DOUBLE_EQ(LineTime(lines[i]), 10.0 * static_cast<double>(i + 1));
    EXPECT_NE(lines[i].find("\"clock\":\"sim\""), std::string::npos) << lines[i];
    EXPECT_NE(lines[i].find("\"sim\":{"), std::string::npos) << lines[i];
  }
  EXPECT_DOUBLE_EQ(LineTime(lines[7]), 75.0);
}

}  // namespace
}  // namespace mfc
