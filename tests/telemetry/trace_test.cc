#include "src/telemetry/trace.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/telemetry/metrics.h"

namespace mfc {
namespace {

TEST(TracerTest, RootSpanGetsOwnTrack) {
  Tracer tracer;
  SpanId root = tracer.StartSpan("request", "server", 0, 1.0);
  tracer.EndSpan(root, 2.0);
  ASSERT_EQ(tracer.SpanCount(), 1u);
  const TraceSpan& span = tracer.Spans()[0];
  EXPECT_EQ(span.id, root);
  EXPECT_EQ(span.parent, 0u);
  EXPECT_EQ(span.track, root);
  EXPECT_FALSE(span.open);
  EXPECT_DOUBLE_EQ(span.start, 1.0);
  EXPECT_DOUBLE_EQ(span.end, 2.0);
  EXPECT_DOUBLE_EQ(span.Duration(), 1.0);
}

TEST(TracerTest, ChildInheritsParentTrack) {
  Tracer tracer;
  SpanId root = tracer.StartSpan("request", "server", 0, 0.0);
  SpanId child = tracer.StartSpan("cpu", "server", root, 0.5);
  SpanId grandchild = tracer.StartSpan("inner", "server", child, 0.6);
  EXPECT_EQ(tracer.Spans()[child - 1].parent, root);
  EXPECT_EQ(tracer.Spans()[child - 1].track, root);
  EXPECT_EQ(tracer.Spans()[grandchild - 1].track, root);
}

TEST(TracerTest, AttrsStringifyAllOverloads) {
  Tracer tracer;
  SpanId id = tracer.StartSpan("epoch", "coord", 0, 0.0);
  tracer.Attr(id, "stage", std::string("Base"));
  tracer.Attr(id, "metric_ms", 12.5);
  tracer.Attr(id, "crowd", static_cast<uint64_t>(15));
  const TraceSpan& span = tracer.Spans()[0];
  ASSERT_EQ(span.attrs.size(), 3u);
  EXPECT_EQ(span.attrs[0].first, "stage");
  EXPECT_EQ(span.attrs[0].second, "Base");
  EXPECT_EQ(span.attrs[2].second, "15");
}

TEST(TracerTest, NamedFiltersByName) {
  Tracer tracer;
  tracer.StartSpan("epoch", "coord", 0, 0.0);
  tracer.StartSpan("request", "server", 0, 0.0);
  tracer.StartSpan("epoch", "coord", 0, 1.0);
  EXPECT_EQ(tracer.Named("epoch").size(), 2u);
  EXPECT_EQ(tracer.Named("request").size(), 1u);
  EXPECT_TRUE(tracer.Named("nope").empty());
}

TEST(TracerTest, MergeFromRemapsIdsAndParents) {
  Tracer a;
  SpanId a_root = a.StartSpan("request", "server", 0, 0.0);
  a.EndSpan(a_root, 1.0);

  Tracer b;
  SpanId b_root = b.StartSpan("request", "server", 0, 5.0);
  SpanId b_child = b.StartSpan("cpu", "server", b_root, 5.5);
  b.EndSpan(b_child, 5.8);
  b.EndSpan(b_root, 6.0);

  a.MergeFrom(b.Spans(), 7);
  ASSERT_EQ(a.SpanCount(), 3u);
  const TraceSpan& merged_root = a.Spans()[1];
  const TraceSpan& merged_child = a.Spans()[2];
  // Ids are remapped past a's own id space and stay internally consistent.
  EXPECT_EQ(merged_root.id, a_root + b_root);
  EXPECT_EQ(merged_child.parent, merged_root.id);
  EXPECT_EQ(merged_child.track, merged_root.track);
  EXPECT_EQ(merged_root.pid, 7u);
  EXPECT_EQ(merged_child.pid, 7u);
  // The invariant Spans()[id-1].id == id survives the merge.
  for (const TraceSpan& span : a.Spans()) {
    EXPECT_EQ(a.Spans()[span.id - 1].id, span.id);
  }
}

TEST(TracerTest, MergeOrderIsDeterministic) {
  auto make = [](double offset) {
    Tracer t;
    SpanId id = t.StartSpan("request", "server", 0, offset);
    t.EndSpan(id, offset + 1.0);
    return t;
  };
  Tracer shard0 = make(0.0);
  Tracer shard1 = make(10.0);

  Tracer merged_a;
  merged_a.MergeFrom(shard0.Spans(), 0);
  merged_a.MergeFrom(shard1.Spans(), 1);
  Tracer merged_b;
  merged_b.MergeFrom(shard0.Spans(), 0);
  merged_b.MergeFrom(shard1.Spans(), 1);
  ASSERT_EQ(merged_a.SpanCount(), merged_b.SpanCount());
  for (size_t i = 0; i < merged_a.SpanCount(); ++i) {
    EXPECT_EQ(merged_a.Spans()[i].id, merged_b.Spans()[i].id);
    EXPECT_EQ(merged_a.Spans()[i].pid, merged_b.Spans()[i].pid);
    EXPECT_DOUBLE_EQ(merged_a.Spans()[i].start, merged_b.Spans()[i].start);
  }
}

TEST(MetricsRegistryTest, CountersAccumulate) {
  MetricsRegistry m;
  m.Add("requests");
  m.Add("requests");
  m.Add("bytes", 100.0);
  EXPECT_DOUBLE_EQ(m.Counter("requests"), 2.0);
  EXPECT_DOUBLE_EQ(m.Counter("bytes"), 100.0);
  EXPECT_DOUBLE_EQ(m.Counter("absent"), 0.0);
}

TEST(MetricsRegistryTest, GaugeKeepsLastSet) {
  MetricsRegistry m;
  m.Set("depth", 3.0);
  m.Set("depth", 1.0);
  EXPECT_DOUBLE_EQ(m.Gauge("depth"), 1.0);
}

TEST(MetricsRegistryTest, MergeSemanticsPerKind) {
  MetricsRegistry a;
  a.Add("count", 2.0);
  a.Set("peak", 5.0);
  a.Observe("lat", 1.0);
  a.HistObserve("hist", {10.0, 20.0}, 5.0);

  MetricsRegistry b;
  b.Add("count", 3.0);
  b.Set("peak", 7.0);
  b.Observe("lat", 3.0);
  b.HistObserve("hist", {10.0, 20.0}, 15.0);
  b.Add("only_in_b");

  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Counter("count"), 5.0);       // counters add
  EXPECT_DOUBLE_EQ(a.Gauge("peak"), 7.0);          // gauges keep max
  EXPECT_DOUBLE_EQ(a.Counter("only_in_b"), 1.0);   // absent keys copy over
  ASSERT_NE(a.Summary("lat"), nullptr);
  EXPECT_EQ(a.Summary("lat")->Count(), 2u);
  EXPECT_DOUBLE_EQ(a.Summary("lat")->Mean(), 2.0);
  ASSERT_NE(a.Hist("hist"), nullptr);
  EXPECT_EQ(a.Hist("hist")->Total(), 2u);
  EXPECT_EQ(a.Hist("hist")->BucketValue(0), 1u);
  EXPECT_EQ(a.Hist("hist")->BucketValue(1), 1u);
}

TEST(MetricsRegistryTest, ShardedMergeMatchesSinglePass) {
  // The survey determinism contract in miniature: observations split across
  // shards and folded must equal one registry fed everything directly.
  std::vector<double> xs;
  for (int i = 0; i < 97; ++i) {
    xs.push_back(static_cast<double>((i * 37) % 100) / 3.0);
  }
  MetricsRegistry single;
  MetricsRegistry shard_a, shard_b, shard_c;
  MetricsRegistry* shards[] = {&shard_a, &shard_b, &shard_c};
  for (size_t i = 0; i < xs.size(); ++i) {
    single.Add("n");
    single.Observe("x", xs[i]);
    single.HistObserve("h", LatencyBucketEdgesMs(), xs[i]);
    MetricsRegistry* shard = shards[i % 3];
    shard->Add("n");
    shard->Observe("x", xs[i]);
    shard->HistObserve("h", LatencyBucketEdgesMs(), xs[i]);
  }
  MetricsRegistry merged;
  for (MetricsRegistry* shard : shards) {
    merged.Merge(*shard);
  }
  EXPECT_DOUBLE_EQ(merged.Counter("n"), single.Counter("n"));
  EXPECT_EQ(merged.Summary("x")->Count(), single.Summary("x")->Count());
  EXPECT_NEAR(merged.Summary("x")->Mean(), single.Summary("x")->Mean(), 1e-9);
  EXPECT_NEAR(merged.Summary("x")->StdDev(), single.Summary("x")->StdDev(), 1e-9);
  EXPECT_EQ(merged.Hist("h")->Total(), single.Hist("h")->Total());
  for (size_t i = 0; i < merged.Hist("h")->BucketCount(); ++i) {
    EXPECT_EQ(merged.Hist("h")->BucketValue(i), single.Hist("h")->BucketValue(i));
  }
}

TEST(MetricsRegistryTest, MergeIntoEmptyEqualsCopy) {
  MetricsRegistry src;
  src.Add("a", 4.0);
  src.Set("g", 2.0);
  src.Observe("s", 1.5);
  src.HistObserve("h", {1.0}, 0.5);
  MetricsRegistry dst;
  dst.Merge(src);
  EXPECT_TRUE(dst == src);
}

TEST(MetricsRegistryTest, SlotsSurviveMergeAndRestore) {
  MetricsRegistry m;
  double& counter = m.CounterSlot("c");
  RunningStats& summary = m.SummarySlot("s");
  Histogram& hist = m.HistSlot("h", {1.0, 10.0});
  counter += 2.0;
  summary.Add(3.0);
  hist.Add(5.0);
  // Merging a few hundred new names rebalances every map around the slots.
  MetricsRegistry other;
  for (int i = 0; i < 300; ++i) {
    const std::string name = "new." + std::to_string(i);
    other.Add(name);
    other.Set(name, i);
    other.Observe(name, i);
    other.HistObserve(name, {1.0, 10.0}, i);
  }
  other.Add("c", 5.0);
  m.Merge(other);
  // Restoring a slot's own name assigns in place.
  m.RestoreSummary("s", RunningStats::FromParts(4, 1.0, 0.5, 0.0, 2.0));
  m.RestoreHist("h", Histogram::FromParts({1.0, 10.0}, {1, 2, 3}));
  EXPECT_EQ(&m.CounterSlot("c"), &counter);
  EXPECT_EQ(&m.SummarySlot("s"), &summary);
  EXPECT_EQ(&m.HistSlot("h", {1.0, 10.0}), &hist);
  // Writes through the old references land in the registry.
  counter += 1.0;
  summary.Add(2.0);
  hist.Add(50.0);
  EXPECT_DOUBLE_EQ(m.Counter("c"), 8.0);
  ASSERT_NE(m.Summary("s"), nullptr);
  EXPECT_EQ(m.Summary("s")->Count(), 5u);
  EXPECT_DOUBLE_EQ(m.Summary("s")->MaxValue(), 2.0);
  ASSERT_NE(m.Hist("h"), nullptr);
  EXPECT_EQ(m.Hist("h")->Total(), 7u);
  EXPECT_EQ(m.Hist("h")->BucketValue(2), 4u);
}

TEST(MetricsRegistryTest, NamedWritesEqualSlotWrites) {
  MetricsRegistry by_name;
  MetricsRegistry by_slot;
  for (double x : {0.0, 1.5, 0.25, 7.0, 1e4}) {
    by_name.Add("c", x);
    by_slot.CounterSlot("c") += x;
    by_name.Observe("s", x);
    by_slot.SummarySlot("s").Add(x);
    by_name.HistObserve("h", LatencyBucketEdgesMs(), x);
    by_slot.HistSlot("h", LatencyBucketEdgesMs()).Add(x);
  }
  // A zero delta still creates the entry, and so does resolving a slot.
  by_name.Add("zero", 0.0);
  by_slot.CounterSlot("zero") += 0.0;
  EXPECT_TRUE(by_name == by_slot);
  EXPECT_EQ(by_name.Counters().count("zero"), 1u);
}

TEST(MetricsRegistryTest, EmptyAndEquality) {
  MetricsRegistry a, b;
  EXPECT_TRUE(a.Empty());
  EXPECT_TRUE(a == b);
  a.Add("x");
  EXPECT_FALSE(a.Empty());
  EXPECT_FALSE(a == b);
  b.Add("x");
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace mfc
