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
  const WebObject* object = content_ != nullptr ? content_->Find(request.Path()) : nullptr;
  Ctx ctx{request.method, object, std::move(transport), access_log_.size() - 1, nullptr};
  if (telemetry_ != nullptr && telemetry_->Enabled()) {
    ctx.trace = std::make_shared<RequestTrace>();
    ctx.trace->arrival = loop_.Now();
    ctx.trace->stage = telemetry_->stage;
    if (telemetry_->tracer != nullptr) {
      Tracer& tracer = *telemetry_->tracer;
      ctx.trace->root = tracer.StartSpan("request", "server", 0, loop_.Now());
      tracer.Attr(ctx.trace->root, "target", request.target);
      tracer.Attr(ctx.trace->root, "method", std::string(MethodName(request.method)));
      tracer.Attr(ctx.trace->root, "stage", ctx.trace->stage);
      tracer.Attr(ctx.trace->root, "is_mfc", std::string(is_mfc ? "true" : "false"));
    }
  }
  Enqueue(std::move(ctx));
}

void WebServer::Charge(const Ctx& ctx, const char* name, SimTime t0,
                       double RequestTrace::* bucket) {
  if (ctx.trace == nullptr) {
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
    const std::string prefix = "span." + trace.stage + ".";
    m.Add(prefix + "count");
    m.Add(prefix + "queue_s", trace.queue_s);
    m.Add(prefix + "cpu_s", trace.cpu_s);
    m.Add(prefix + "db_s", trace.db_s);
    m.Add(prefix + "disk_s", trace.disk_s);
    m.Add(prefix + "net_s", trace.net_s);
    m.Add("server.requests_total");
    double total_ms = ToMillis(now - trace.arrival);
    m.HistObserve("server.request_ms", LatencyBucketEdgesMs(), total_ms);
    m.Observe("server.request_ms", total_ms);
  }
}

void WebServer::Enqueue(Ctx ctx) {
  if (active_threads_ < config_.worker_threads) {
    ++active_threads_;
    Process(std::move(ctx));
    return;
  }
  if (accept_queue_.size() < config_.accept_backlog) {
    accept_queue_.push_back(std::move(ctx));
    return;
  }
  // Listen backlog exhausted: immediate refusal, no worker consumed.
  ++rejected_;
  if (telemetry_ != nullptr && telemetry_->metrics != nullptr) {
    telemetry_->metrics->Add("server.rejected_503");
  }
  Send(std::move(ctx), HttpStatus::kServiceUnavailable, 0.0);
}

void WebServer::Process(Ctx ctx) {
  if (ctx.trace != nullptr) {
    // Accept-queue wait: arrival to worker-thread acquisition (0 when a
    // worker was free; the zero-length span keeps traces structurally
    // uniform).
    Charge(ctx, "queue", ctx.trace->arrival, &RequestTrace::queue_s);
  }
  double demand = config_.request_parse_cpu_s +
                  config_.per_connection_cpu_s * static_cast<double>(active_threads_);
  SimTime t0 = loop_.Now();
  cpu_.Submit(demand, [this, t0, ctx = std::move(ctx)]() mutable {
    Charge(ctx, "cpu", t0, &RequestTrace::cpu_s);
    Dispatch(std::move(ctx));
  });
}

void WebServer::Dispatch(Ctx ctx) {
  if (ctx.object == nullptr) {
    Send(std::move(ctx), HttpStatus::kNotFound, 200.0);
    return;
  }
  if (ctx.method == HttpMethod::kHead) {
    // Metadata only: a stat() plus header assembly; never touches the body.
    SimTime t0 = loop_.Now();
    cpu_.Submit(config_.head_cpu_s, [this, t0, ctx = std::move(ctx)]() mutable {
      Charge(ctx, "cpu", t0, &RequestTrace::cpu_s);
      Send(std::move(ctx), HttpStatus::kOk, 0.0);
    });
    return;
  }
  if (ctx.object->dynamic) {
    ServeDynamic(std::move(ctx));
  } else {
    ServeStatic(std::move(ctx));
  }
}

void WebServer::ServeStatic(Ctx ctx) {
  const WebObject& object = *ctx.object;
  double size = static_cast<double>(object.size_bytes);
  if (page_cache_.Touch(object.path)) {
    Send(std::move(ctx), HttpStatus::kOk, size);
    return;
  }
  const std::string path = object.path;
  SimTime t0 = loop_.Now();
  disk_.Submit(size, [this, t0, ctx = std::move(ctx), path, size]() mutable {
    Charge(ctx, "disk", t0, &RequestTrace::disk_s);
    page_cache_.Insert(path, size);
    Send(std::move(ctx), HttpStatus::kOk, size);
  });
}

void WebServer::ServeDynamic(Ctx ctx) {
  switch (config_.cgi_model) {
    case CgiModel::kNone:
      Send(std::move(ctx), HttpStatus::kNotFound, 200.0);
      return;
    case CgiModel::kFastCgi:
      // Process-per-request: the forked handler inherits the parent image.
      ++active_cgi_;
      memory_.Allocate(config_.cgi_process_memory_bytes);
      cpu_.Reschedule();
      RunCgi(std::move(ctx));
      return;
    case CgiModel::kMongrel: {
      if (active_cgi_ < config_.mongrel_pool) {
        ++active_cgi_;
        RunCgi(std::move(ctx));
      } else {
        // Wait for a pool worker; ctx.object outlives us (ContentStore is
        // owned by the testbed for the whole run).
        SimTime t0 = loop_.Now();
        cgi_wait_.push_back([this, t0, ctx = std::move(ctx)]() mutable {
          Charge(ctx, "queue", t0, &RequestTrace::queue_s);
          ++active_cgi_;
          RunCgi(std::move(ctx));
        });
      }
      return;
    }
  }
}

void WebServer::RunCgi(Ctx ctx) {
  const WebObject& object = *ctx.object;
  // Query-cache key: unique-per-query endpoints key on the full target so
  // distinct query strings never hit; otherwise all callers share one key.
  std::string key = object.unique_per_query ? access_log_[ctx.log_index].target : object.path;
  uint64_t rows = object.db_rows;
  double result_bytes = static_cast<double>(object.size_bytes);
  SimTime t0 = loop_.Now();
  cpu_.Submit(config_.cgi_cpu_s, [this, t0, ctx = std::move(ctx), key, rows,
                                  result_bytes]() mutable {
    Charge(ctx, "cpu", t0, &RequestTrace::cpu_s);
    SimTime db_t0 = loop_.Now();
    db_.Execute(key, rows, result_bytes, [this, db_t0, ctx = std::move(ctx),
                                          result_bytes]() mutable {
      Charge(ctx, "db", db_t0, &RequestTrace::db_s);
      ReleaseCgiSlot();
      Send(std::move(ctx), HttpStatus::kOk, result_bytes);
    });
  });
}

void WebServer::Send(Ctx ctx, HttpStatus status, double body_bytes) {
  access_log_[ctx.log_index].status = status;
  access_log_[ctx.log_index].bytes = body_bytes;
  double wire = config_.response_header_bytes + body_bytes;
  bool had_thread = status != HttpStatus::kServiceUnavailable;
  SimTime t0 = loop_.Now();
  auto trace = std::move(ctx.trace);
  auto transport = std::move(ctx.transport);
  transport(status, wire, [this, had_thread, t0, trace, status, body_bytes] {
    if (trace != nullptr) {
      // Outbound transfer: transport call to last-byte delivery.
      SimTime now = loop_.Now();
      if (telemetry_->tracer != nullptr && trace->root != 0) {
        SpanId span = telemetry_->tracer->StartSpan("net", "server", trace->root, t0);
        telemetry_->tracer->EndSpan(span, now);
      }
      trace->net_s += now - t0;
      FinishRequestTrace(*trace, status, body_bytes);
    }
    if (had_thread) {
      ReleaseThread();
    }
  });
}

void WebServer::ReleaseThread() {
  assert(active_threads_ > 0);
  --active_threads_;
  if (!accept_queue_.empty() && active_threads_ < config_.worker_threads) {
    Ctx next = std::move(accept_queue_.front());
    accept_queue_.pop_front();
    ++active_threads_;
    Process(std::move(next));
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
    auto next = std::move(cgi_wait_.front());
    cgi_wait_.pop_front();
    next();
  }
}

}  // namespace mfc
