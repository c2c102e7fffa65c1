#include "src/telemetry/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mfc {

double Percentile(std::span<const double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  // This sits on the coordinator's per-epoch decision path, so avoid a full
  // O(n log n) sort: select just the two order statistics the interpolation
  // needs. nth_element partitions, so after selecting the lower neighbor the
  // upper neighbor is the minimum of the right partition.
  std::vector<double> scratch(values.begin(), values.end());
  if (pct <= 0.0) {
    return *std::min_element(scratch.begin(), scratch.end());
  }
  if (pct >= 100.0) {
    return *std::max_element(scratch.begin(), scratch.end());
  }
  double rank = pct / 100.0 * static_cast<double>(scratch.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  double frac = rank - static_cast<double>(lo);
  auto lo_it = scratch.begin() + static_cast<ptrdiff_t>(lo);
  std::nth_element(scratch.begin(), lo_it, scratch.end());
  if (lo + 1 >= scratch.size() || frac == 0.0) {
    return *lo_it;
  }
  double hi_value = *std::min_element(lo_it + 1, scratch.end());
  return *lo_it * (1.0 - frac) + hi_value * frac;
}

double Median(std::span<const double> values) { return Percentile(values, 50.0); }

double Mean(std::span<const double> values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double StdDev(std::span<const double> values) {
  if (values.size() < 2) {
    return 0.0;
  }
  double mean = Mean(values);
  double sq = 0.0;
  for (double v : values) {
    sq += (v - mean) * (v - mean);
  }
  return std::sqrt(sq / static_cast<double>(values.size() - 1));
}

double Min(std::span<const double> values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double Max(std::span<const double> values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Merge(const RunningStats& other) {
  if (other.count_ == 0) {
    return;
  }
  if (count_ == 0) {
    *this = other;
    return;
  }
  double na = static_cast<double>(count_);
  double nb = static_cast<double>(other.count_);
  double delta = other.mean_ - mean_;
  mean_ += delta * nb / (na + nb);
  m2_ += other.m2_ + delta * delta * na * nb / (na + nb);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ += other.count_;
}

double RunningStats::Variance() const {
  if (count_ < 2) {
    return 0.0;
  }
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::StdDev() const { return std::sqrt(Variance()); }

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  std::sort(edges_.begin(), edges_.end());
  counts_.assign(edges_.size() + 1, 0);
}

void Histogram::Add(double x) {
  // Buckets are (edges[i-1], edges[i]]: lower_bound finds the first edge >= x.
  auto it = std::lower_bound(edges_.begin(), edges_.end(), x);
  counts_[static_cast<size_t>(it - edges_.begin())]++;
  ++total_;
}

void Histogram::Merge(const Histogram& other) {
  assert(edges_ == other.edges_ && "histogram merge requires identical bucket edges");
  for (size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  total_ += other.total_;
}

}  // namespace mfc
