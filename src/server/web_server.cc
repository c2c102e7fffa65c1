#include "src/server/web_server.h"

#include <cassert>
#include <utility>

#include "src/telemetry/metrics.h"

namespace mfc {

WebServer::WebServer(EventLoop& loop, WebServerConfig config, const ContentStore* content)
    : loop_(loop), config_(std::move(config)), content_(content),
      cpu_(loop, config_.cpu_cores, config_.cpu_speed),
      db_cpu_(config_.db_dedicated_cores > 0
                  ? std::make_unique<CpuResource>(loop, config_.db_dedicated_cores,
                                                  config_.db_cpu_speed)
                  : nullptr),
      disk_(loop, config_.disk_seek_s, config_.disk_bw_bps),
      memory_(config_.ram_bytes, config_.base_memory_bytes, config_.swap_penalty),
      db_(loop, config_.db, db_cpu_ != nullptr ? *db_cpu_ : cpu_, disk_),
      page_cache_(config_.page_cache_bytes) {
  cpu_.SetSlowdownProvider([this] { return memory_.SlowdownFactor(); });
}

void WebServer::OnRequest(const HttpRequest& request, bool is_mfc, ResponseTransport transport) {
  access_log_.push_back(AccessLogEntry{loop_.Now(), request.method, request.target,
                                       HttpStatus::kOk, 0.0, is_mfc});
  CtxHandle handle = requests_.Acquire();
  ++outstanding_;
  Ctx& ctx = Record(handle);
  ctx.method = request.method;
  ctx.object = content_ != nullptr ? content_->Find(request.Path()) : nullptr;
  ctx.transport = std::move(transport);
  ctx.log_index = access_log_.size() - 1;
  if (telemetry_ != nullptr && telemetry_->Enabled()) {
    RequestTrace& trace = ctx.trace.emplace();
    trace.arrival = loop_.Now();
    trace.stage = StageIndex(telemetry_->stage);
    if (telemetry_->tracer != nullptr) {
      Tracer& tracer = *telemetry_->tracer;
      trace.root = tracer.StartSpan("request", "server", 0, loop_.Now());
      tracer.Attr(trace.root, "target", request.target);
      tracer.Attr(trace.root, "method", std::string(MethodName(request.method)));
      tracer.Attr(trace.root, "stage", telemetry_->stage);
      tracer.Attr(trace.root, "is_mfc", std::string(is_mfc ? "true" : "false"));
    }
  }
  Enqueue(handle);
}

void WebServer::SetTelemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  // Labels stay: a request in flight holds its stage's index.
  for (StageSlots& stage : stage_slots_) {
    stage = StageSlots{std::move(stage.label)};
  }
  server_slots_ = ServerSlots();
}

uint32_t WebServer::StageIndex(const std::string& label) {
  // A handful of labels per experiment (idle and one per stage).
  for (size_t i = 0; i < stage_slots_.size(); ++i) {
    if (stage_slots_[i].label == label) {
      return static_cast<uint32_t>(i);
    }
  }
  stage_slots_.push_back(StageSlots{label});
  return static_cast<uint32_t>(stage_slots_.size() - 1);
}

WebServer::Ctx& WebServer::Record(CtxHandle handle) {
  Ctx* ctx = requests_.Find(handle);
  assert(ctx != nullptr && "request record used after its last byte was sent");
  return *ctx;
}

void WebServer::Charge(Ctx& ctx, const char* name, SimTime t0, double RequestTrace::* bucket) {
  if (!ctx.trace) {
    return;
  }
  SimTime now = loop_.Now();
  if (telemetry_->tracer != nullptr && ctx.trace->root != 0) {
    SpanId span = telemetry_->tracer->StartSpan(name, "server", ctx.trace->root, t0);
    telemetry_->tracer->EndSpan(span, now);
  }
  (*ctx.trace).*bucket += now - t0;
}

void WebServer::FinishRequestTrace(const RequestTrace& trace, HttpStatus status,
                                   double body_bytes) {
  SimTime now = loop_.Now();
  if (telemetry_->tracer != nullptr && trace.root != 0) {
    Tracer& tracer = *telemetry_->tracer;
    tracer.Attr(trace.root, "status", static_cast<uint64_t>(status));
    tracer.Attr(trace.root, "bytes", body_bytes);
    tracer.EndSpan(trace.root, now);
  }
  if (telemetry_->metrics != nullptr) {
    MetricsRegistry& m = *telemetry_->metrics;
    StageSlots& stage = stage_slots_[trace.stage];
    if (stage.count == nullptr) {
      auto slot = [&](const char* field) {
        return &m.CounterSlot("span." + stage.label + "." + field);
      };
      stage.count = slot("count");
      stage.queue_s = slot("queue_s");
      stage.cpu_s = slot("cpu_s");
      stage.db_s = slot("db_s");
      stage.disk_s = slot("disk_s");
      stage.net_s = slot("net_s");
    }
    ServerSlots& server = server_slots_;
    if (server.requests_total == nullptr) {
      server.requests_total = &m.CounterSlot("server.requests_total");
      server.request_ms_hist = &m.HistSlot("server.request_ms", LatencyBucketEdgesMs());
      server.request_ms = &m.SummarySlot("server.request_ms");
    }
    *stage.count += 1.0;
    *stage.queue_s += trace.queue_s;
    *stage.cpu_s += trace.cpu_s;
    *stage.db_s += trace.db_s;
    *stage.disk_s += trace.disk_s;
    *stage.net_s += trace.net_s;
    *server.requests_total += 1.0;
    double total_ms = ToMillis(now - trace.arrival);
    server.request_ms_hist->Add(total_ms);
    server.request_ms->Add(total_ms);
  }
}

void WebServer::Enqueue(CtxHandle handle) {
  if (active_threads_ < config_.worker_threads) {
    ++active_threads_;
    Process(handle);
    return;
  }
  if (accept_queue_.size() < config_.accept_backlog) {
    accept_queue_.push_back(handle);
    return;
  }
  // Listen backlog exhausted: immediate refusal, no worker consumed.
  ++rejected_;
  if (telemetry_ != nullptr && telemetry_->metrics != nullptr) {
    if (server_slots_.rejected_503 == nullptr) {
      server_slots_.rejected_503 = &telemetry_->metrics->CounterSlot("server.rejected_503");
    }
    *server_slots_.rejected_503 += 1.0;
  }
  Send(handle, HttpStatus::kServiceUnavailable, 0.0);
}

void WebServer::Process(CtxHandle handle) {
  Ctx& ctx = Record(handle);
  if (ctx.trace) {
    // Accept-queue wait: arrival to worker-thread acquisition (0 when a
    // worker was free; the zero-length span keeps traces structurally
    // uniform).
    Charge(ctx, "queue", ctx.trace->arrival, &RequestTrace::queue_s);
  }
  double demand = config_.request_parse_cpu_s +
                  config_.per_connection_cpu_s * static_cast<double>(active_threads_);
  ctx.hop_start = loop_.Now();
  cpu_.Submit(demand, [this, handle] {
    Ctx& ctx = Record(handle);
    Charge(ctx, "cpu", ctx.hop_start, &RequestTrace::cpu_s);
    Dispatch(handle);
  });
}

void WebServer::Dispatch(CtxHandle handle) {
  Ctx& ctx = Record(handle);
  if (ctx.object == nullptr) {
    Send(handle, HttpStatus::kNotFound, 200.0);
    return;
  }
  if (ctx.method == HttpMethod::kHead) {
    // Metadata only: a stat() plus header assembly; never touches the body.
    ctx.hop_start = loop_.Now();
    cpu_.Submit(config_.head_cpu_s, [this, handle] {
      Ctx& ctx = Record(handle);
      Charge(ctx, "cpu", ctx.hop_start, &RequestTrace::cpu_s);
      Send(handle, HttpStatus::kOk, 0.0);
    });
    return;
  }
  if (ctx.object->dynamic) {
    ServeDynamic(handle);
  } else {
    ServeStatic(handle);
  }
}

void WebServer::ServeStatic(CtxHandle handle) {
  Ctx& ctx = Record(handle);
  const WebObject& object = *ctx.object;
  double size = static_cast<double>(object.size_bytes);
  if (page_cache_.Touch(object.path)) {
    Send(handle, HttpStatus::kOk, size);
    return;
  }
  ctx.hop_start = loop_.Now();
  disk_.Submit(size, [this, handle] {
    Ctx& ctx = Record(handle);
    Charge(ctx, "disk", ctx.hop_start, &RequestTrace::disk_s);
    // ctx.object outlives the request: the ContentStore is owned by the
    // testbed for the whole run.
    const WebObject& object = *ctx.object;
    double size = static_cast<double>(object.size_bytes);
    page_cache_.Insert(object.path, size);
    Send(handle, HttpStatus::kOk, size);
  });
}

void WebServer::ServeDynamic(CtxHandle handle) {
  switch (config_.cgi_model) {
    case CgiModel::kNone:
      Send(handle, HttpStatus::kNotFound, 200.0);
      return;
    case CgiModel::kFastCgi:
      // Process-per-request: the forked handler inherits the parent image.
      ++active_cgi_;
      memory_.Allocate(config_.cgi_process_memory_bytes);
      cpu_.Reschedule();
      RunCgi(handle);
      return;
    case CgiModel::kMongrel: {
      if (active_cgi_ < config_.mongrel_pool) {
        ++active_cgi_;
        RunCgi(handle);
      } else {
        // Wait for a pool worker.
        Record(handle).hop_start = loop_.Now();
        cgi_wait_.push_back(handle);
      }
      return;
    }
  }
}

void WebServer::RunCgi(CtxHandle handle) {
  Record(handle).hop_start = loop_.Now();
  cpu_.Submit(config_.cgi_cpu_s, [this, handle] {
    Ctx& ctx = Record(handle);
    Charge(ctx, "cpu", ctx.hop_start, &RequestTrace::cpu_s);
    const WebObject& object = *ctx.object;
    // Query-cache key: unique-per-query endpoints key on the full target so
    // distinct query strings never hit; otherwise all callers share one key.
    const std::string& key =
        object.unique_per_query ? access_log_[ctx.log_index].target : object.path;
    ctx.hop_start = loop_.Now();
    db_.Execute(key, object.db_rows, static_cast<double>(object.size_bytes), [this, handle] {
      Ctx& ctx = Record(handle);
      Charge(ctx, "db", ctx.hop_start, &RequestTrace::db_s);
      double result_bytes = static_cast<double>(ctx.object->size_bytes);
      ReleaseCgiSlot();
      Send(handle, HttpStatus::kOk, result_bytes);
    });
  });
}

void WebServer::Send(CtxHandle handle, HttpStatus status, double body_bytes) {
  Ctx& ctx = Record(handle);
  access_log_[ctx.log_index].status = status;
  access_log_[ctx.log_index].bytes = body_bytes;
  ctx.status = status;
  ctx.body_bytes = body_bytes;
  ctx.had_thread = status != HttpStatus::kServiceUnavailable;
  ctx.hop_start = loop_.Now();
  // The transport may complete at once (a client already gone), which
  // releases the record: nothing below touches it.
  ResponseTransport transport = std::move(ctx.transport);
  transport(status, config_.response_header_bytes + body_bytes,
            [this, handle] { OnSent(handle); });
}

void WebServer::OnSent(CtxHandle handle) {
  Ctx& ctx = Record(handle);
  if (ctx.trace) {
    // Outbound transfer: transport call to last-byte delivery.
    RequestTrace& trace = *ctx.trace;
    SimTime now = loop_.Now();
    if (telemetry_->tracer != nullptr && trace.root != 0) {
      SpanId span = telemetry_->tracer->StartSpan("net", "server", trace.root, ctx.hop_start);
      telemetry_->tracer->EndSpan(span, now);
    }
    trace.net_s += now - ctx.hop_start;
    FinishRequestTrace(trace, ctx.status, ctx.body_bytes);
  }
  bool had_thread = ctx.had_thread;
  requests_.Release(handle);
  --outstanding_;
  if (had_thread) {
    ReleaseThread();
  }
}

void WebServer::ReleaseThread() {
  assert(active_threads_ > 0);
  --active_threads_;
  if (!accept_queue_.empty() && active_threads_ < config_.worker_threads) {
    CtxHandle next = accept_queue_.front();
    accept_queue_.pop_front();
    ++active_threads_;
    Process(next);
  }
}

void WebServer::ReleaseCgiSlot() {
  assert(active_cgi_ > 0);
  --active_cgi_;
  if (config_.cgi_model == CgiModel::kFastCgi) {
    memory_.Free(config_.cgi_process_memory_bytes);
    cpu_.Reschedule();
    return;
  }
  if (config_.cgi_model == CgiModel::kMongrel && !cgi_wait_.empty()) {
    CtxHandle next = cgi_wait_.front();
    cgi_wait_.pop_front();
    Ctx& ctx = Record(next);
    Charge(ctx, "queue", ctx.hop_start, &RequestTrace::queue_s);
    ++active_cgi_;
    RunCgi(next);
  }
}

}  // namespace mfc
