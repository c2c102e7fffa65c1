#include "src/telemetry/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace mfc {
namespace {

TEST(PercentileTest, EmptyReturnsZero) {
  std::vector<double> v;
  EXPECT_EQ(Percentile(v, 50.0), 0.0);
}

TEST(PercentileTest, SingleElement) {
  std::vector<double> v{42.0};
  EXPECT_EQ(Percentile(v, 0.0), 42.0);
  EXPECT_EQ(Percentile(v, 50.0), 42.0);
  EXPECT_EQ(Percentile(v, 100.0), 42.0);
}

TEST(PercentileTest, MedianOfOddCount) {
  std::vector<double> v{5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Median(v), 3.0);
}

TEST(PercentileTest, MedianOfEvenCountInterpolates) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Median(v), 2.5);
}

TEST(PercentileTest, NinetiethOfTen) {
  std::vector<double> v;
  for (int i = 1; i <= 10; ++i) {
    v.push_back(static_cast<double>(i));
  }
  EXPECT_NEAR(Percentile(v, 90.0), 9.1, 1e-9);
}

TEST(PercentileTest, ExtremesClampToMinMax) {
  std::vector<double> v{7.0, -2.0, 4.0};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), -2.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100.0), 7.0);
}

TEST(PercentileTest, InputOrderIrrelevant) {
  std::vector<double> a{3.0, 1.0, 2.0};
  std::vector<double> b{1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(Percentile(a, 75.0), Percentile(b, 75.0));
}

// The nth_element-based selection must agree with the straightforward
// full-sort implementation for arbitrary data and percentiles.
TEST(PercentileTest, SelectionMatchesSortedReference) {
  auto reference = [](std::vector<double> sorted, double pct) {
    std::sort(sorted.begin(), sorted.end());
    if (pct <= 0.0) {
      return sorted.front();
    }
    if (pct >= 100.0) {
      return sorted.back();
    }
    double rank = pct / 100.0 * static_cast<double>(sorted.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    double frac = rank - static_cast<double>(lo);
    if (lo + 1 >= sorted.size()) {
      return sorted.back();
    }
    return sorted[lo] * (1.0 - frac) + sorted[lo + 1] * frac;
  };
  // Deterministic pseudo-random values, including duplicates and negatives.
  std::vector<double> v;
  uint64_t state = 0x1234abcd;
  for (int i = 0; i < 237; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v.push_back(static_cast<double>(static_cast<int64_t>(state >> 40) % 1000 - 500) / 7.0);
  }
  for (double pct : {0.0, 1.0, 10.0, 25.0, 50.0, 66.6, 75.0, 90.0, 99.0, 100.0}) {
    EXPECT_DOUBLE_EQ(Percentile(v, pct), reference(v, pct)) << "pct=" << pct;
    EXPECT_DOUBLE_EQ(Median(v), reference(v, 50.0));
  }
  // Small sizes hit the lo+1 >= size and frac == 0 edges.
  for (size_t n = 1; n <= 5; ++n) {
    std::vector<double> small(v.begin(), v.begin() + static_cast<ptrdiff_t>(n));
    for (double pct : {0.0, 33.0, 50.0, 80.0, 100.0}) {
      EXPECT_DOUBLE_EQ(Percentile(small, pct), reference(small, pct))
          << "n=" << n << " pct=" << pct;
    }
  }
}

TEST(MeanTest, Basics) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Mean(std::vector<double>{}), 0.0);
}

TEST(StdDevTest, KnownValue) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_NEAR(StdDev(v), std::sqrt(32.0 / 7.0), 1e-9);
}

TEST(StdDevTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(StdDev(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(StdDev(std::vector<double>{5.0}), 0.0);
}

TEST(MinMaxTest, Basics) {
  std::vector<double> v{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(Min(v), -1.0);
  EXPECT_DOUBLE_EQ(Max(v), 7.0);
  EXPECT_DOUBLE_EQ(Min(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(Max(std::vector<double>{}), 0.0);
}

TEST(RunningStatsTest, MatchesBatchStats) {
  std::vector<double> v{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  RunningStats rs;
  for (double x : v) {
    rs.Add(x);
  }
  EXPECT_EQ(rs.Count(), v.size());
  EXPECT_NEAR(rs.Mean(), Mean(v), 1e-12);
  EXPECT_NEAR(rs.StdDev(), StdDev(v), 1e-12);
  EXPECT_DOUBLE_EQ(rs.MinValue(), 2.0);
  EXPECT_DOUBLE_EQ(rs.MaxValue(), 9.0);
}

TEST(RunningStatsTest, SingleValue) {
  RunningStats rs;
  rs.Add(3.0);
  EXPECT_DOUBLE_EQ(rs.Mean(), 3.0);
  EXPECT_DOUBLE_EQ(rs.Variance(), 0.0);
}

// Parallel Welford combine: merging per-shard accumulators must agree with a
// single accumulator that saw every value, for any split of the stream.
TEST(RunningStatsTest, MergeMatchesSinglePass) {
  std::vector<double> v;
  uint64_t state = 0xdecafbad;
  for (int i = 0; i < 321; ++i) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    v.push_back(static_cast<double>(static_cast<int64_t>(state >> 40) % 2000 - 1000) / 13.0);
  }
  RunningStats single;
  for (double x : v) {
    single.Add(x);
  }
  for (size_t split : {size_t{0}, size_t{1}, v.size() / 3, v.size() - 1, v.size()}) {
    RunningStats left, right;
    for (size_t i = 0; i < v.size(); ++i) {
      (i < split ? left : right).Add(v[i]);
    }
    left.Merge(right);
    EXPECT_EQ(left.Count(), single.Count()) << "split=" << split;
    EXPECT_NEAR(left.Mean(), single.Mean(), 1e-9) << "split=" << split;
    EXPECT_NEAR(left.StdDev(), single.StdDev(), 1e-9) << "split=" << split;
    EXPECT_DOUBLE_EQ(left.MinValue(), single.MinValue());
    EXPECT_DOUBLE_EQ(left.MaxValue(), single.MaxValue());
  }
}

TEST(RunningStatsTest, MergeWithEmptySides) {
  RunningStats filled;
  filled.Add(1.0);
  filled.Add(3.0);
  RunningStats empty;

  RunningStats a = filled;
  a.Merge(empty);  // empty right side: no-op
  EXPECT_TRUE(a == filled);

  RunningStats b = empty;
  b.Merge(filled);  // empty left side: adopt right
  EXPECT_TRUE(b == filled);

  RunningStats c = empty;
  c.Merge(empty);
  EXPECT_EQ(c.Count(), 0u);
}

// Merging an accumulator into itself must behave exactly like merging an
// identical copy: the count doubles, the moments stay consistent, and no
// field is read after the aliased write corrupts it.
TEST(RunningStatsTest, SelfMergeEqualsMergingACopy) {
  RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 5.0, 9.0}) {
    rs.Add(x);
  }
  RunningStats copy = rs;
  RunningStats expected = rs;
  expected.Merge(copy);

  rs.Merge(rs);  // aliased operand
  EXPECT_TRUE(rs == expected);
  EXPECT_EQ(rs.Count(), 10u);
  EXPECT_NEAR(rs.Mean(), copy.Mean(), 1e-12);
  EXPECT_DOUBLE_EQ(rs.MinValue(), copy.MinValue());
  EXPECT_DOUBLE_EQ(rs.MaxValue(), copy.MaxValue());
  // Same data twice: variance shrinks (n-1 denominator) but m2 doubles.
  EXPECT_NEAR(rs.M2(), 2.0 * copy.M2(), 1e-12);

  // Self-merging an empty accumulator stays empty.
  RunningStats empty;
  empty.Merge(empty);
  EXPECT_EQ(empty.Count(), 0u);
}

// A zero-count operand must never disturb min/max: an empty shard's
// default-constructed min_ = 0 would otherwise leak into an all-positive
// or all-negative merged summary.
TEST(RunningStatsTest, ZeroCountOperandDoesNotPolluteExtrema) {
  RunningStats positives;
  positives.Add(5.0);
  positives.Add(7.0);
  positives.Merge(RunningStats{});
  EXPECT_DOUBLE_EQ(positives.MinValue(), 5.0);  // not 0 from the empty operand

  RunningStats negatives;
  negatives.Add(-7.0);
  negatives.Add(-5.0);
  negatives.Merge(RunningStats{});
  EXPECT_DOUBLE_EQ(negatives.MaxValue(), -5.0);
}

TEST(RunningStatsTest, MergeManyShardsAssociativity) {
  // Fold order over several shards must not change the combined moments.
  std::vector<RunningStats> shards(5);
  RunningStats single;
  for (int i = 0; i < 100; ++i) {
    double x = static_cast<double>((i * 29) % 41) - 20.0;
    shards[static_cast<size_t>(i) % shards.size()].Add(x);
    single.Add(x);
  }
  RunningStats forward;
  for (const RunningStats& s : shards) {
    forward.Merge(s);
  }
  RunningStats backward;
  for (size_t i = shards.size(); i-- > 0;) {
    backward.Merge(shards[i]);
  }
  EXPECT_EQ(forward.Count(), single.Count());
  EXPECT_NEAR(forward.Mean(), single.Mean(), 1e-9);
  EXPECT_NEAR(forward.Variance(), single.Variance(), 1e-9);
  EXPECT_NEAR(backward.Mean(), forward.Mean(), 1e-9);
  EXPECT_NEAR(backward.Variance(), forward.Variance(), 1e-9);
}

TEST(HistogramTest, MergeAddsBucketCounts) {
  Histogram a({10.0, 20.0});
  a.Add(5.0);
  a.Add(15.0);
  Histogram b({10.0, 20.0});
  b.Add(15.0);
  b.Add(25.0);
  a.Merge(b);
  EXPECT_EQ(a.Total(), 4u);
  EXPECT_EQ(a.BucketValue(0), 1u);
  EXPECT_EQ(a.BucketValue(1), 2u);
  EXPECT_EQ(a.BucketValue(2), 1u);
  EXPECT_EQ(a.Edges(), (std::vector<double>{10.0, 20.0}));
}

TEST(HistogramTest, MergeZeroCountOperandIsNoOp) {
  Histogram filled({10.0, 20.0});
  filled.Add(5.0);
  filled.Add(15.0);
  Histogram before = filled;
  filled.Merge(Histogram({10.0, 20.0}));  // zero-count operand
  EXPECT_TRUE(filled == before);
}

TEST(HistogramTest, MergeIntoEmptyAdoptsCounts) {
  Histogram filled({10.0, 20.0});
  filled.Add(5.0);
  filled.Add(15.0);
  filled.Add(25.0);
  Histogram empty({10.0, 20.0});
  empty.Merge(filled);
  EXPECT_TRUE(empty == filled);
  EXPECT_EQ(empty.Total(), 3u);
}

TEST(HistogramTest, SelfMergeDoublesEveryBucket) {
  Histogram h({10.0, 20.0});
  h.Add(5.0);
  h.Add(15.0);
  h.Add(15.0);
  h.Add(25.0);
  h.Merge(h);  // aliased operand
  EXPECT_EQ(h.Total(), 8u);
  EXPECT_EQ(h.BucketValue(0), 2u);
  EXPECT_EQ(h.BucketValue(1), 4u);
  EXPECT_EQ(h.BucketValue(2), 2u);
}

TEST(HistogramTest, BucketsAndFractions) {
  Histogram h({10.0, 20.0, 30.0});
  h.Add(5.0);    // (-inf, 10]
  h.Add(10.0);   // (-inf, 10]  (upper_bound semantics: 10 <= 10)
  h.Add(15.0);   // (10, 20]
  h.Add(25.0);   // (20, 30]
  h.Add(35.0);   // (30, inf)
  h.Add(40.0);   // (30, inf)
  ASSERT_EQ(h.BucketCount(), 4u);
  EXPECT_EQ(h.BucketValue(0), 2u);
  EXPECT_EQ(h.BucketValue(1), 1u);
  EXPECT_EQ(h.BucketValue(2), 1u);
  EXPECT_EQ(h.BucketValue(3), 2u);
  EXPECT_EQ(h.Total(), 6u);
}

TEST(HistogramTest, EmptyHistogramFractionsZero) {
  Histogram h({1.0});
  EXPECT_EQ(h.BucketValue(0), 0u);
  EXPECT_EQ(h.BucketValue(1), 0u);
  EXPECT_EQ(h.Total(), 0u);
}

// Property-style sweep: percentile is monotone in pct for arbitrary data.
class PercentileMonotoneTest : public ::testing::TestWithParam<int> {};

TEST_P(PercentileMonotoneTest, MonotoneInPct) {
  int seed = GetParam();
  std::vector<double> v;
  unsigned state = static_cast<unsigned>(seed) * 2654435761u + 1u;
  for (int i = 0; i < 37; ++i) {
    state = state * 1664525u + 1013904223u;
    v.push_back(static_cast<double>(state % 1000) / 10.0);
  }
  double prev = Percentile(v, 0.0);
  for (double pct = 5.0; pct <= 100.0; pct += 5.0) {
    double cur = Percentile(v, pct);
    EXPECT_GE(cur, prev) << "pct=" << pct;
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotoneTest, ::testing::Range(1, 11));

}  // namespace
}  // namespace mfc
