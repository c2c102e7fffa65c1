#include "src/telemetry/metrics.h"

#include <algorithm>

namespace mfc {

void MetricsRegistry::Add(const std::string& name, double delta) { CounterSlot(name) += delta; }

void MetricsRegistry::Set(const std::string& name, double value) { gauges_[name] = value; }

void MetricsRegistry::Observe(const std::string& name, double x) { SummarySlot(name).Add(x); }

void MetricsRegistry::HistObserve(const std::string& name, const std::vector<double>& edges,
                                  double x) {
  HistSlot(name, edges).Add(x);
}

double& MetricsRegistry::CounterSlot(const std::string& name) { return counters_[name]; }

RunningStats& MetricsRegistry::SummarySlot(const std::string& name) { return summaries_[name]; }

Histogram& MetricsRegistry::HistSlot(const std::string& name, const std::vector<double>& edges) {
  return hists_.try_emplace(name, edges).first->second;
}

void MetricsRegistry::Merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    CounterSlot(name) += value;
  }
  for (const auto& [name, value] : other.gauges_) {
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      gauges_[name] = value;
    } else {
      it->second = std::max(it->second, value);
    }
  }
  for (const auto& [name, stats] : other.summaries_) {
    SummarySlot(name).Merge(stats);
  }
  for (const auto& [name, hist] : other.hists_) {
    HistSlot(name, hist.Edges()).Merge(hist);
  }
}

void MetricsRegistry::RestoreSummary(const std::string& name, RunningStats stats) {
  summaries_.insert_or_assign(name, std::move(stats));
}

void MetricsRegistry::RestoreHist(const std::string& name, Histogram hist) {
  hists_.insert_or_assign(name, std::move(hist));
}

double MetricsRegistry::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

double MetricsRegistry::Gauge(const std::string& name) const {
  auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const RunningStats* MetricsRegistry::Summary(const std::string& name) const {
  auto it = summaries_.find(name);
  return it == summaries_.end() ? nullptr : &it->second;
}

const Histogram* MetricsRegistry::Hist(const std::string& name) const {
  auto it = hists_.find(name);
  return it == hists_.end() ? nullptr : &it->second;
}

bool MetricsRegistry::operator==(const MetricsRegistry& other) const {
  return counters_ == other.counters_ && gauges_ == other.gauges_ &&
         summaries_ == other.summaries_ && hists_ == other.hists_;
}

const std::vector<double>& LatencyBucketEdgesMs() {
  static const std::vector<double> kEdges = {1,   2,   5,    10,   25,   50,  100,
                                             250, 500, 1000, 2500, 5000, 10000};
  return kEdges;
}

}  // namespace mfc
