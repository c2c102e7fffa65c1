// Merge-safe metrics registry: named counters, gauges, fixed-bucket latency
// histograms, and Welford summaries.
//
// Each simulation world (one ParallelRunner task, one Deployment) owns its
// own registry; nothing is shared across threads. Cross-job aggregation is a
// deterministic fold: Merge() combines two registries field-by-field —
// counters add, gauges keep the maximum, histograms add per-bucket counts
// (bucket edges must match), summaries combine with the parallel Welford
// rule — and every container is an ordered map, so merging per-job
// registries in index order produces the same bytes regardless of --jobs.
//
// Slots. CounterSlot/SummarySlot/HistSlot return the entry a name names,
// creating it on first use, and Add/Observe/HistObserve are one-line
// wrappers over them. An entry lives in a std::map node, which never moves,
// so a hot path can resolve its names once and keep the references. Merge,
// RestoreSummary and RestoreHist keep every slot valid: they add entries or
// assign into existing ones. Assigning, moving or destroying the registry
// does not; whoever keeps slots must drop them first (WebServer drops its
// slots in SetTelemetry).
#ifndef MFC_SRC_TELEMETRY_METRICS_H_
#define MFC_SRC_TELEMETRY_METRICS_H_

#include <map>
#include <string>
#include <vector>

#include "src/telemetry/stats.h"

namespace mfc {

class MetricsRegistry {
 public:
  // Counter: monotone accumulator (counts or summed seconds).
  void Add(const std::string& name, double delta = 1.0);
  // Gauge: last observed level; Merge keeps the maximum, so a merged survey
  // gauge reads "worst seen by any job".
  void Set(const std::string& name, double value);
  // Summary: streaming mean/stddev/min/max via RunningStats.
  void Observe(const std::string& name, double x);
  // Histogram observation; the histogram is created with |edges| on first
  // use. Passing different edges for the same name later is a programming
  // error (the first edges win).
  void HistObserve(const std::string& name, const std::vector<double>& edges, double x);

  // Stable slots (see file comment): a counter starts at 0, a summary
  // empty, a histogram empty with |edges| (the first edges win, as above).
  double& CounterSlot(const std::string& name);
  RunningStats& SummarySlot(const std::string& name);
  Histogram& HistSlot(const std::string& name, const std::vector<double>& edges);

  // Deterministic pairwise combine (see file comment for per-kind rules).
  void Merge(const MetricsRegistry& other);

  // Journal-replay restore: install a fully built summary / histogram under
  // |name|, replacing any existing entry.
  void RestoreSummary(const std::string& name, RunningStats stats);
  void RestoreHist(const std::string& name, Histogram hist);

  double Counter(const std::string& name) const;  // 0 if absent
  double Gauge(const std::string& name) const;    // 0 if absent
  const RunningStats* Summary(const std::string& name) const;  // null if absent
  const Histogram* Hist(const std::string& name) const;        // null if absent

  const std::map<std::string, double>& Counters() const { return counters_; }
  const std::map<std::string, double>& Gauges() const { return gauges_; }
  const std::map<std::string, RunningStats>& Summaries() const { return summaries_; }
  const std::map<std::string, Histogram>& Histograms() const { return hists_; }

  bool Empty() const {
    return counters_.empty() && gauges_.empty() && summaries_.empty() && hists_.empty();
  }

  bool operator==(const MetricsRegistry& other) const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, RunningStats> summaries_;
  std::map<std::string, Histogram> hists_;
};

// The fixed latency buckets (milliseconds) every per-request histogram uses,
// chosen to straddle the paper's θ values (100 ms / 250 ms).
const std::vector<double>& LatencyBucketEdgesMs();

}  // namespace mfc

#endif  // MFC_SRC_TELEMETRY_METRICS_H_
