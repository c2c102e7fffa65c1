// Order statistics and summary statistics used by the coordinator's decision
// rule (median / 90th percentile of normalized response times) and by the
// benchmark reports.
#ifndef MFC_SRC_TELEMETRY_STATS_H_
#define MFC_SRC_TELEMETRY_STATS_H_

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace mfc {

// Percentile in [0, 100] with linear interpolation between order statistics.
// Copies the input (callers keep their samples). Empty input returns 0.
double Percentile(std::span<const double> values, double pct);

double Median(std::span<const double> values);

double Mean(std::span<const double> values);

// Sample standard deviation (n-1 denominator). Returns 0 for n < 2.
double StdDev(std::span<const double> values);

double Min(std::span<const double> values);
double Max(std::span<const double> values);

// Incremental accumulator for streaming summaries (Welford's algorithm).
class RunningStats {
 public:
  void Add(double x);
  // Parallel-safe Welford combine (Chan et al.): after a.Merge(b), |a| holds
  // the same count/mean/variance/min/max as a single pass over both inputs.
  // Used to fold per-job summaries from a parallel survey into one.
  void Merge(const RunningStats& other);
  size_t Count() const { return count_; }
  double Mean() const { return mean_; }
  double Variance() const;  // sample variance, 0 for n < 2
  double StdDev() const;
  double MinValue() const { return min_; }
  double MaxValue() const { return max_; }
  // Raw Welford second moment — with Count/Mean/Min/Max this is the full
  // accumulator state, so journals can round-trip a summary exactly.
  double M2() const { return m2_; }

  // Rebuilds an accumulator from serialized state (journal replay).
  static RunningStats FromParts(size_t count, double mean, double m2, double min, double max) {
    RunningStats s;
    s.count_ = count;
    s.mean_ = mean;
    s.m2_ = m2;
    s.min_ = min;
    s.max_ = max;
    return s;
  }

  bool operator==(const RunningStats&) const = default;

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Fixed-bucket histogram for building the paper's stopping-crowd-size
// breakdowns (Figs 7-9, Tables 4-5).
class Histogram {
 public:
  // Buckets are (edges[i-1], edges[i]]; values at or below the first edge or
  // above the last edge land in saturating end buckets.
  explicit Histogram(std::vector<double> edges);

  void Add(double x);
  // Adds |other|'s per-bucket counts; both histograms must have identical
  // edges (asserted). The combine is exact, so merged parallel shards equal
  // a single-pass histogram.
  void Merge(const Histogram& other);
  size_t BucketCount() const { return counts_.size(); }
  size_t BucketValue(size_t i) const { return counts_[i]; }
  size_t Total() const { return total_; }
  const std::vector<double>& Edges() const { return edges_; }
  const std::vector<size_t>& Counts() const { return counts_; }

  // Rebuilds a histogram from serialized state (journal replay). |counts|
  // must have edges.size() + 1 entries; the total is recomputed.
  static Histogram FromParts(std::vector<double> edges, std::vector<size_t> counts) {
    Histogram h(std::move(edges));
    h.total_ = 0;
    for (size_t c : counts) {
      h.total_ += c;
    }
    h.counts_ = std::move(counts);
    return h;
  }

  bool operator==(const Histogram&) const = default;

 private:
  std::vector<double> edges_;
  std::vector<size_t> counts_;  // edges_.size() + 1 buckets (underflow .. overflow)
  size_t total_ = 0;
};

}  // namespace mfc

#endif  // MFC_SRC_TELEMETRY_STATS_H_
