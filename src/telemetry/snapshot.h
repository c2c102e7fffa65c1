// Runtime health snapshots: the typed record a running survey, experiment,
// or live fleet periodically captures about itself.
//
// A snapshot is pure data — capturing one never blocks the work being
// observed. Survey snapshots are built from atomics the workers already
// maintain (wall-clock sampler thread); simulation snapshots are built on the
// sim thread at simulated-time cadence (the sampler's events only read state,
// so a run with sampling on computes byte-identical results); live-fleet
// snapshots fold the coordinator's per-agent health table. Serialization to
// the JSONL stats stream lives in stats_stream.h.
#ifndef MFC_SRC_TELEMETRY_SNAPSHOT_H_
#define MFC_SRC_TELEMETRY_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace mfc {

// One ParallelRunner worker's instantaneous state (see ParallelProgress).
struct WorkerSnapshot {
  size_t worker = 0;
  bool busy = false;
  // Index of the task the worker currently holds; meaningful only when busy.
  uint64_t current_index = 0;
  uint64_t tasks_done = 0;
};

// Progress of one survey cohort run across the worker pool.
struct SurveyProgressSnapshot {
  std::string label;            // cohort name (or the caller's run label)
  uint64_t done = 0;            // sites completed (replayed + executed)
  uint64_t total = 0;
  double sites_per_sec = 0.0;   // completion rate since the run started
  double eta_seconds = -1.0;    // -1 = unknown (no completions yet)
  // Sites journaled; -1 when the run carries no journal. The lag
  // (done - journaled) counts sites finished in memory but not yet appended —
  // expected 0 or tiny, since workers append before reporting completion.
  int64_t journaled = -1;
  std::vector<WorkerSnapshot> workers;
};

// Health of one simulation world, sampled on its own thread.
struct SimHealthSnapshot {
  uint64_t event_loop_depth = 0;    // EventLoop::PendingCount()
  uint64_t events_executed = 0;     // EventLoop::ExecutedCount()
  uint64_t flows_active = 0;        // FlowNetwork::ActiveFlowCount()
  uint64_t reallocs = 0;            // FlowNetworkStats::reallocs
  uint64_t links_touched = 0;       // FlowNetworkStats::links_touched
  uint64_t no_progress = 0;         // FlowNetworkStats::no_progress (expect 0)
};

// One live agent's row in the coordinator's health table.
struct AgentHealthSnapshot {
  uint64_t agent_id = 0;
  double last_seen_age = -1.0;   // seconds since any datagram; -1 = never heard
  uint64_t miss_streak = 0;      // consecutive unanswered probe rounds
  double rtt_ewma = -1.0;        // control-plane RTT EWMA, seconds; -1 unknown
  double loss_estimate = 0.0;    // 1 - pongs/pings over the probe history
  bool healthy = true;           // coordinator's current verdict
  // Piggybacked agent-side STATS payload (zeros until the first report).
  uint64_t inflight = 0;         // fetches currently open on the agent
  uint64_t fetch_errors = 0;     // timeouts + failed connects, cumulative
  uint64_t dedup_hits = 0;       // duplicate commands discarded
  uint64_t fault_drops = 0;      // datagrams the agent's injector dropped
  uint64_t requests_fired = 0;   // HTTP requests launched, cumulative
};

// A point-in-time health record. Sections are optional: a survey snapshot
// carries |survey|, a simulation snapshot carries |sim|, a live-fleet
// snapshot carries |agents| — all stamped by the same stream.
struct StatsSnapshot {
  double t = 0.0;          // seconds since the stream/run started
  uint64_t seq = 0;        // assigned by StatsStream::Emit, monotone per stream
  std::string clock = "wall";   // "wall" | "sim"
  std::string source;           // "survey" | "experiment" | "live"

  bool has_survey = false;
  SurveyProgressSnapshot survey;

  bool has_sim = false;
  SimHealthSnapshot sim;

  std::vector<AgentHealthSnapshot> agents;

  // Named counter deltas since the previous snapshot of this stream (from a
  // MetricsRegistry the sampling thread may legally read). Insertion order.
  std::vector<std::pair<std::string, double>> counter_deltas;
};

}  // namespace mfc

#endif  // MFC_SRC_TELEMETRY_SNAPSHOT_H_
