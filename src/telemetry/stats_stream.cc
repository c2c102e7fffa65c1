#include "src/telemetry/stats_stream.h"

#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "src/telemetry/json_quote.h"
#include "src/telemetry/metrics.h"

namespace mfc {

namespace {

// JSON has no inf/nan; clamp them so the feed always parses.
std::string Num(double v) {
  if (!std::isfinite(v)) {
    v = v > 0 ? 1e308 : (v < 0 ? -1e308 : 0.0);
  }
  char buf[32];
  snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string Num(uint64_t v) { return std::to_string(v); }

void AppendWorkers(const std::vector<WorkerSnapshot>& workers, std::string* json) {
  *json += "[";
  for (size_t i = 0; i < workers.size(); ++i) {
    const WorkerSnapshot& w = workers[i];
    if (i > 0) {
      *json += ",";
    }
    *json += "{\"worker\":" + Num(static_cast<uint64_t>(w.worker)) +
             ",\"busy\":" + (w.busy ? "true" : "false");
    if (w.busy) {
      *json += ",\"current_index\":" + Num(w.current_index);
    }
    *json += ",\"tasks_done\":" + Num(w.tasks_done) + "}";
  }
  *json += "]";
}

void AppendSurvey(const SurveyProgressSnapshot& s, std::string* json) {
  *json += "\"survey\":{\"label\":";
  JsonAppendQuoted(*json, s.label);
  *json += ",\"done\":" + Num(s.done) + ",\"total\":" + Num(s.total) +
           ",\"sites_per_sec\":" + Num(s.sites_per_sec);
  if (s.eta_seconds >= 0) {
    *json += ",\"eta_seconds\":" + Num(s.eta_seconds);
  }
  if (s.journaled >= 0) {
    *json += ",\"journaled\":" + Num(static_cast<uint64_t>(s.journaled));
    uint64_t durable = static_cast<uint64_t>(s.journaled);
    *json += ",\"journal_lag\":" + Num(s.done > durable ? s.done - durable : 0);
  }
  if (!s.workers.empty()) {
    *json += ",\"workers\":";
    AppendWorkers(s.workers, json);
  }
  *json += "}";
}

void AppendSim(const SimHealthSnapshot& s, std::string* json) {
  *json += "\"sim\":{\"event_loop_depth\":" + Num(s.event_loop_depth) +
           ",\"events_executed\":" + Num(s.events_executed) +
           ",\"flows_active\":" + Num(s.flows_active) + ",\"reallocs\":" + Num(s.reallocs) +
           ",\"links_touched\":" + Num(s.links_touched) +
           ",\"no_progress\":" + Num(s.no_progress) + "}";
}

void AppendAgents(const std::vector<AgentHealthSnapshot>& agents, std::string* json) {
  *json += "\"agents\":[";
  for (size_t i = 0; i < agents.size(); ++i) {
    const AgentHealthSnapshot& a = agents[i];
    if (i > 0) {
      *json += ",";
    }
    *json += "{\"id\":" + Num(a.agent_id);
    if (a.last_seen_age >= 0) {
      *json += ",\"last_seen_age\":" + Num(a.last_seen_age);
    }
    *json += ",\"miss_streak\":" + Num(a.miss_streak);
    if (a.rtt_ewma >= 0) {
      *json += ",\"rtt_ewma\":" + Num(a.rtt_ewma);
    }
    *json += ",\"loss_estimate\":" + Num(a.loss_estimate);
    *json += std::string(",\"healthy\":") + (a.healthy ? "true" : "false");
    *json += ",\"inflight\":" + Num(a.inflight) + ",\"fetch_errors\":" + Num(a.fetch_errors) +
             ",\"dedup_hits\":" + Num(a.dedup_hits) + ",\"fault_drops\":" + Num(a.fault_drops) +
             ",\"requests_fired\":" + Num(a.requests_fired) + "}";
  }
  *json += "]";
}

}  // namespace

// --- ParallelProgress -------------------------------------------------------

ParallelProgress::ParallelProgress(size_t workers)
    : workers_(workers == 0 ? 1 : workers), cells_(new Cell[workers_]) {}

void ParallelProgress::OnClaim(size_t w, size_t index) {
  if (w >= workers_) {
    return;
  }
  cells_[w].current.store(static_cast<uint64_t>(index), std::memory_order_relaxed);
}

void ParallelProgress::OnDone(size_t w) {
  if (w >= workers_) {
    return;
  }
  cells_[w].done.fetch_add(1, std::memory_order_relaxed);
  cells_[w].current.store(kIdle, std::memory_order_relaxed);
}

size_t ParallelProgress::BusyWorkers() const {
  size_t busy = 0;
  for (size_t w = 0; w < workers_; ++w) {
    if (cells_[w].current.load(std::memory_order_relaxed) != kIdle) {
      ++busy;
    }
  }
  return busy;
}

std::vector<WorkerSnapshot> ParallelProgress::Snapshot() const {
  std::vector<WorkerSnapshot> out(workers_);
  for (size_t w = 0; w < workers_; ++w) {
    uint64_t current = cells_[w].current.load(std::memory_order_relaxed);
    out[w].worker = w;
    out[w].busy = current != kIdle;
    out[w].current_index = out[w].busy ? current : 0;
    out[w].tasks_done = cells_[w].done.load(std::memory_order_relaxed);
  }
  return out;
}

// --- MetricsDeltaTracker ----------------------------------------------------

void MetricsDeltaTracker::Collect(const MetricsRegistry& metrics,
                                  std::vector<std::pair<std::string, double>>* out) {
  for (const auto& [name, value] : metrics.Counters()) {
    double& last = last_[name];
    if (value != last) {
      out->emplace_back(name, value - last);
      last = value;
    }
  }
}

// --- StatsStream ------------------------------------------------------------

StatsStream::StatsStream(FILE* file, bool owned, std::string path)
    : file_(file), owned_(owned), path_(std::move(path)) {}

StatsStream::~StatsStream() {
  if (file_ != nullptr) {
    fflush(file_);
    if (owned_) {
      fclose(file_);
    }
  }
}

std::unique_ptr<StatsStream> StatsStream::Open(const std::string& path, std::string* error) {
  if (path == "-") {
    return std::unique_ptr<StatsStream>(new StatsStream(stdout, false, path));
  }
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open stats stream '" + path + "': " + strerror(errno);
    }
    return nullptr;
  }
  return std::unique_ptr<StatsStream>(new StatsStream(f, true, path));
}

void StatsStream::Emit(StatsSnapshot snapshot) {
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.seq = next_seq_++;
  std::string line = ToJsonLine(snapshot);
  line += '\n';
  fwrite(line.data(), 1, line.size(), file_);
  fflush(file_);
  emitted_.fetch_add(1, std::memory_order_relaxed);
}

bool StatsStream::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return fflush(file_) == 0;
}

std::string StatsStream::ToJsonLine(const StatsSnapshot& snapshot) {
  std::string json = "{\"t\":" + Num(snapshot.t) + ",\"seq\":" + Num(snapshot.seq) +
                     ",\"clock\":";
  JsonAppendQuoted(json, snapshot.clock);
  json += ",\"source\":";
  JsonAppendQuoted(json, snapshot.source);
  if (snapshot.has_survey) {
    json += ",";
    AppendSurvey(snapshot.survey, &json);
  }
  if (snapshot.has_sim) {
    json += ",";
    AppendSim(snapshot.sim, &json);
  }
  if (!snapshot.agents.empty()) {
    json += ",";
    AppendAgents(snapshot.agents, &json);
  }
  if (!snapshot.counter_deltas.empty()) {
    json += ",\"deltas\":{";
    for (size_t i = 0; i < snapshot.counter_deltas.size(); ++i) {
      if (i > 0) {
        json += ",";
      }
      JsonAppendQuoted(json, snapshot.counter_deltas[i].first);
      json += ":" + Num(snapshot.counter_deltas[i].second);
    }
    json += "}";
  }
  json += "}";
  return json;
}

// --- ProgressLine -----------------------------------------------------------

ProgressLine::ProgressLine()
    : enabled_(isatty(fileno(stderr)) != 0), last_(std::chrono::steady_clock::now()) {}

void ProgressLine::Report(const SurveyProgressSnapshot& progress) {
  if (!enabled_) {
    return;
  }
  auto now = std::chrono::steady_clock::now();
  if (printed_ && std::chrono::duration<double>(now - last_).count() < 1.0) {
    return;
  }
  last_ = now;
  Print(progress, /*final=*/false);
}

void ProgressLine::Finish(const SurveyProgressSnapshot& progress) {
  if (!enabled_) {
    return;
  }
  Print(progress, /*final=*/true);
}

void ProgressLine::Print(const SurveyProgressSnapshot& progress, bool final) {
  double pct = progress.total > 0
                   ? 100.0 * static_cast<double>(progress.done) / static_cast<double>(progress.total)
                   : 0.0;
  std::string line = "[survey";
  if (!progress.label.empty()) {
    line += " " + progress.label;
  }
  line += "] " + std::to_string(progress.done) + "/" + std::to_string(progress.total);
  char buf[96];
  snprintf(buf, sizeof(buf), " (%.0f%%) %.1f sites/s", pct, progress.sites_per_sec);
  line += buf;
  if (progress.eta_seconds >= 0 && !final) {
    snprintf(buf, sizeof(buf), " eta %.0fs", progress.eta_seconds);
    line += buf;
  }
  if (!progress.workers.empty()) {
    size_t busy = 0;
    for (const WorkerSnapshot& w : progress.workers) {
      busy += w.busy ? 1 : 0;
    }
    snprintf(buf, sizeof(buf), " workers %zu/%zu", busy, progress.workers.size());
    line += buf;
  }
  // Redraw in place; pad so a shrinking line leaves no stale tail.
  fprintf(stderr, "\r%-78s", line.c_str());
  if (final) {
    fputc('\n', stderr);
  }
  fflush(stderr);
  printed_ = true;
}

// --- SurveyStatsSampler -----------------------------------------------------

SurveyProgressSnapshot BuildSurveyProgress(const SurveySamplerSource& source, double elapsed) {
  SurveyProgressSnapshot out;
  out.label = source.label;
  out.total = source.total;
  out.done =
      source.processed != nullptr ? source.processed->load(std::memory_order_relaxed) : 0;
  if (elapsed > 0) {
    out.sites_per_sec = static_cast<double>(out.done) / elapsed;
  }
  if (out.sites_per_sec > 0 && out.total >= out.done) {
    out.eta_seconds = static_cast<double>(out.total - out.done) / out.sites_per_sec;
  }
  if (source.journal_executed != nullptr || source.journal_resumed != nullptr) {
    uint64_t durable = 0;
    if (source.journal_executed != nullptr) {
      durable += source.journal_executed->load(std::memory_order_relaxed);
    }
    if (source.journal_resumed != nullptr) {
      durable += source.journal_resumed->load(std::memory_order_relaxed);
    }
    out.journaled = static_cast<int64_t>(durable);
  }
  if (source.workers != nullptr) {
    out.workers = source.workers->Snapshot();
  }
  return out;
}

SurveyStatsSampler::SurveyStatsSampler(StatsStream* stream, ProgressLine* line,
                                       double interval_seconds, SurveySamplerSource source)
    : stream_(stream),
      line_(line),
      interval_(interval_seconds > 0 ? interval_seconds : 1.0),
      source_(std::move(source)) {}

SurveyStatsSampler::~SurveyStatsSampler() { Stop(); }

void SurveyStatsSampler::Start() {
  bool line_live = line_ != nullptr && line_->Enabled();
  if ((stream_ == nullptr && !line_live) || running_ || source_.processed == nullptr) {
    return;
  }
  running_ = true;
  stop_ = false;
  start_ = std::chrono::steady_clock::now();
  thread_ = std::thread([this] {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      cv_.wait_for(lock, std::chrono::duration<double>(interval_), [this] { return stop_; });
      if (stop_) {
        break;
      }
      double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
      EmitOnce(elapsed, /*final=*/false);
    }
  });
}

void SurveyStatsSampler::Stop() {
  if (!running_) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
  running_ = false;
  // Final snapshot so every feed ends with the run's true completion state.
  double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  EmitOnce(elapsed, /*final=*/true);
}

void SurveyStatsSampler::EmitOnce(double elapsed, bool final) {
  SurveyProgressSnapshot progress = BuildSurveyProgress(source_, elapsed);
  if (stream_ != nullptr) {
    StatsSnapshot snapshot;
    snapshot.t = elapsed;
    snapshot.clock = "wall";
    snapshot.source = "survey";
    snapshot.has_survey = true;
    snapshot.survey = progress;
    stream_->Emit(std::move(snapshot));
  }
  if (line_ != nullptr) {
    if (final) {
      line_->Finish(progress);
    } else {
      line_->Report(progress);
    }
  }
}

// --- SimStatsSampler --------------------------------------------------------

SimStatsSampler::SimStatsSampler(EventLoop& loop, StatsStream& stream,
                                 double interval_sim_seconds,
                                 std::function<SimHealthSnapshot()> probe,
                                 const MetricsRegistry* metrics)
    : loop_(loop),
      stream_(stream),
      interval_(interval_sim_seconds > 0 ? interval_sim_seconds : 1.0),
      probe_(std::move(probe)),
      metrics_(metrics) {}

SimStatsSampler::~SimStatsSampler() {
  if (running_ && pending_ != 0) {
    loop_.Cancel(pending_);
    pending_ = 0;
    running_ = false;
  }
}

void SimStatsSampler::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  pending_ = loop_.ScheduleAfter(Seconds(interval_), [this] { Tick(); });
}

void SimStatsSampler::Stop() {
  if (!running_) {
    return;
  }
  if (pending_ != 0) {
    loop_.Cancel(pending_);
    pending_ = 0;
  }
  running_ = false;
  EmitOnce();
}

void SimStatsSampler::Tick() {
  pending_ = 0;
  EmitOnce();
  // Re-arm; the sampler is the only self-rescheduling event in the world, so
  // Stop() must run before the caller expects RunUntilIdle() to drain.
  pending_ = loop_.ScheduleAfter(Seconds(interval_), [this] { Tick(); });
}

void SimStatsSampler::EmitOnce() {
  StatsSnapshot snapshot;
  snapshot.t = loop_.Now();
  snapshot.clock = "sim";
  snapshot.source = "experiment";
  snapshot.has_sim = true;
  if (probe_) {
    snapshot.sim = probe_();
  }
  // The probe fills the network-side fields; the loop's own counters are
  // always authoritative here.
  snapshot.sim.event_loop_depth = loop_.PendingCount();
  snapshot.sim.events_executed = loop_.ExecutedCount();
  if (metrics_ != nullptr) {
    deltas_.Collect(*metrics_, &snapshot.counter_deltas);
  }
  stream_.Emit(std::move(snapshot));
}

}  // namespace mfc
