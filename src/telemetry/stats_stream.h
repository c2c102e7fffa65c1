// Streaming runtime-health plane: serializes StatsSnapshots as JSONL to a
// file (or stdout) and provides the samplers that capture snapshots at a
// fixed cadence — wall-clock for surveys (a sampler thread reading worker
// atomics) and simulated-time for single experiments (read-only events on
// the world's own EventLoop).
//
// Everything here is opt-in: with no stream and no progress line attached,
// the instrumented code paths cost one null test and all tool outputs stay
// byte-identical to builds without this layer (DESIGN.md §11).
#ifndef MFC_SRC_TELEMETRY_STATS_STREAM_H_
#define MFC_SRC_TELEMETRY_STATS_STREAM_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/sim/event_loop.h"
#include "src/telemetry/snapshot.h"

namespace mfc {

class MetricsRegistry;

// Shared per-worker progress cells for ParallelRunner: each worker writes
// only its own cell (relaxed atomics), so a sampler thread can read a
// consistent-enough view without ever blocking the pool. Lives here rather
// than in core so telemetry stays the lower layer.
class ParallelProgress {
 public:
  explicit ParallelProgress(size_t workers);
  ParallelProgress(const ParallelProgress&) = delete;
  ParallelProgress& operator=(const ParallelProgress&) = delete;

  size_t Workers() const { return workers_; }

  // Called by worker |w| when it claims task |index| / finishes it.
  void OnClaim(size_t w, size_t index);
  void OnDone(size_t w);

  // Sampled from any thread.
  size_t BusyWorkers() const;
  std::vector<WorkerSnapshot> Snapshot() const;

 private:
  static constexpr uint64_t kIdle = ~uint64_t{0};
  struct Cell {
    std::atomic<uint64_t> current{kIdle};
    std::atomic<uint64_t> done{0};
  };
  size_t workers_;
  std::unique_ptr<Cell[]> cells_;
};

// Tracks a MetricsRegistry's counters across snapshots and reports the
// per-interval deltas. Must only be fed from a thread allowed to read the
// registry (the registry owner's thread).
class MetricsDeltaTracker {
 public:
  void Collect(const MetricsRegistry& metrics,
               std::vector<std::pair<std::string, double>>* out);

 private:
  std::map<std::string, double> last_;
};

// Append-only JSONL sink for snapshots. Thread-safe: Emit may be called from
// several sampler threads.
class StatsStream {
 public:
  // |path| "-" writes to stdout. Returns null (with |error| set) when the
  // file cannot be created.
  static std::unique_ptr<StatsStream> Open(const std::string& path, std::string* error);
  ~StatsStream();
  StatsStream(const StatsStream&) = delete;
  StatsStream& operator=(const StatsStream&) = delete;

  // Stamps |snapshot|.seq and appends one JSON line.
  void Emit(StatsSnapshot snapshot);

  bool Flush();
  const std::string& Path() const { return path_; }

  uint64_t Emitted() const { return emitted_.load(std::memory_order_relaxed); }

  // One snapshot as a single JSON object line (no trailing newline).
  static std::string ToJsonLine(const StatsSnapshot& snapshot);

 private:
  StatsStream(FILE* file, bool owned, std::string path);

  std::mutex mu_;
  FILE* file_;
  bool owned_;
  std::string path_;
  uint64_t next_seq_ = 0;
  std::atomic<uint64_t> emitted_{0};
};

// Rate-limited single-line progress report on stderr: the replacement for
// per-site print spam. Silent unless stderr is a terminal, so logs, tests and
// pipelines stay clean.
class ProgressLine {
 public:
  ProgressLine();

  bool Enabled() const { return enabled_; }

  // Throttled: redraws the line in place at most once a second.
  void Report(const SurveyProgressSnapshot& progress);
  // Always prints (when enabled) and terminates the line.
  void Finish(const SurveyProgressSnapshot& progress);

 private:
  void Print(const SurveyProgressSnapshot& progress, bool final);

  bool enabled_;
  bool printed_ = false;
  std::chrono::steady_clock::time_point last_{};
};

// Everything a survey sampler reads; all pointers are optional except
// |processed| and outlive the sampler's Start()..Stop() window.
struct SurveySamplerSource {
  std::string label;                                  // cohort name
  const std::atomic<size_t>* processed = nullptr;     // sites completed
  size_t total = 0;
  // Durable-site counters from the journal (executed + resumed); null when
  // the run is unjournaled.
  const std::atomic<size_t>* journal_executed = nullptr;
  const std::atomic<size_t>* journal_resumed = nullptr;
  const ParallelProgress* workers = nullptr;
};

// Builds one survey snapshot from the source; |elapsed| is seconds since the
// run started (drives sites/sec and the ETA).
SurveyProgressSnapshot BuildSurveyProgress(const SurveySamplerSource& source, double elapsed);

// Wall-clock sampler thread for a parallel survey: every |interval| seconds
// it captures a SurveyProgressSnapshot, emits it to |stream| (if any), and
// feeds |line| (if any). Stop() joins the thread and emits a final snapshot,
// so a completed run always ends its feed with done == total.
class SurveyStatsSampler {
 public:
  // Null |stream| and |line| are allowed (the sampler then never starts).
  SurveyStatsSampler(StatsStream* stream, ProgressLine* line, double interval_seconds,
                     SurveySamplerSource source);
  ~SurveyStatsSampler();

  void Start();
  void Stop();

 private:
  void EmitOnce(double elapsed, bool final);

  StatsStream* stream_;
  ProgressLine* line_;
  double interval_;
  SurveySamplerSource source_;
  std::chrono::steady_clock::time_point start_{};
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  std::thread thread_;
};

// Simulated-time sampler for one simulation world: schedules a read-only
// event every |interval| simulated seconds that probes the world (EventLoop
// depth, flow-network stats via |probe|) and counter deltas from |metrics|
// (optional), then emits to |stream|. The events never mutate simulation
// state or draw randomness, so results with sampling on are identical to
// sampling off; Stop() cancels the pending event and emits a final snapshot.
class SimStatsSampler {
 public:
  SimStatsSampler(EventLoop& loop, StatsStream& stream, double interval_sim_seconds,
                  std::function<SimHealthSnapshot()> probe,
                  const MetricsRegistry* metrics = nullptr);
  ~SimStatsSampler();

  void Start();
  void Stop();

 private:
  void Tick();
  void EmitOnce();

  EventLoop& loop_;
  StatsStream& stream_;
  double interval_;
  std::function<SimHealthSnapshot()> probe_;
  const MetricsRegistry* metrics_;
  MetricsDeltaTracker deltas_;
  EventId pending_ = 0;
  bool running_ = false;
};

}  // namespace mfc

#endif  // MFC_SRC_TELEMETRY_STATS_STREAM_H_
