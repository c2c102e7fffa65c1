// Span-based tracer for the simulated MFC service, stamped with simulated
// time.
//
// Two span families exist (Section 3.2's resource-attribution methodology,
// see DESIGN.md "Telemetry & tracing"):
//   - server request-lifecycle spans: one root "request" span per HTTP
//     request with children "queue" / "cpu" / "db" / "disk" / "net", so a
//     response time decomposes into where the request actually waited;
//   - coordinator spans: "experiment" > "stage" > "prepare" / "epoch" /
//     "check_phase" / "stop_decision", with the decision metric attached as
//     attributes.
//
// The tracer is passive: call sites pass explicit SimTime stamps, nothing is
// scheduled on the event loop, and a null tracer costs one pointer test — so
// tracing off is bit-identical to the pre-telemetry code path. Each
// simulation world owns its own Tracer (no cross-thread sharing); per-site
// spans from a parallel survey combine with MergeFrom() in index order,
// which keeps the merged trace independent of the jobs count.
#ifndef MFC_SRC_TELEMETRY_TRACE_H_
#define MFC_SRC_TELEMETRY_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/sim/sim_time.h"

namespace mfc {

class MetricsRegistry;

using SpanId = uint64_t;  // 0 = no span / no parent

struct TraceSpan {
  SpanId id = 0;
  SpanId parent = 0;  // 0 for roots
  std::string name;
  std::string category;  // Chrome "cat": "server" or "coord"
  SimTime start = 0.0;
  SimTime end = 0.0;
  bool open = true;
  // Chrome pid/tid. pid distinguishes merged sub-traces (survey sites);
  // tid is the root span's id so concurrent requests render on separate
  // tracks and children nest under their own root.
  uint64_t pid = 0;
  uint64_t track = 0;
  std::vector<std::pair<std::string, std::string>> attrs;

  SimDuration Duration() const { return end - start; }
};

class Tracer {
 public:
  // Opens a span at |at|. Children inherit the parent's track; roots get
  // track = id. Returns the span id for EndSpan/Attr.
  SpanId StartSpan(std::string name, std::string category, SpanId parent, SimTime at);

  void EndSpan(SpanId id, SimTime at);

  void Attr(SpanId id, std::string key, std::string value);
  void Attr(SpanId id, std::string key, double value);
  void Attr(SpanId id, std::string key, uint64_t value);

  const std::vector<TraceSpan>& Spans() const { return spans_; }
  size_t SpanCount() const { return spans_.size(); }

  // Appends one site's |spans| (another tracer's Spans(), live or decoded
  // from a journal, so ids 1..n in order) under process id |pid|, remapping
  // span ids past our own so merged traces stay internally consistent.
  // Merging per-site spans in index order yields the same bytes for any jobs
  // count.
  void MergeFrom(const std::vector<TraceSpan>& spans, uint64_t pid);

  // Spans with matching |name| (tests / structural golden files).
  std::vector<const TraceSpan*> Named(const std::string& name) const;

 private:
  SpanId next_id_ = 1;
  std::vector<TraceSpan> spans_;  // indexed by id - 1
};

// Shared wiring handed to every instrumented component of one simulation
// world. Either pointer may be null: tracer off still lets metrics
// accumulate and vice versa. |stage| is the coordinator's current MFC stage
// label; the server stamps it onto request spans and per-stage metric names
// (everything in one world runs on one thread, so a plain string is safe).
struct Telemetry {
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  std::string stage = "idle";

  bool Enabled() const { return tracer != nullptr || metrics != nullptr; }
};

}  // namespace mfc

#endif  // MFC_SRC_TELEMETRY_TRACE_H_
