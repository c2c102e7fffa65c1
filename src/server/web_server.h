// Multi-resource web-server model (Apache worker-MPM style).
//
// Request lifecycle: accept (bounded worker-thread pool with a bounded accept
// backlog; overflow gets an immediate 503) → per-request parse CPU → dispatch
// by object type:
//   HEAD            : metadata-only, small CPU — the paper's Base stage.
//   GET static      : page-cache lookup; miss pays a FIFO disk read — the
//                     Large Object stage path (the same object is requested
//                     by every client, so after one miss it is cache-hot and
//                     only the outbound link is exercised).
//   GET dynamic     : CGI handler + back-end database — the Small Query path.
//                     FastCGI forks a process per in-flight request, each
//                     inheriting the parent memory image (footnote 1 of the
//                     paper); memory overcommit slows the CPU via the swap
//                     penalty. Mongrel uses a fixed worker pool instead.
// The worker thread is held until the last response byte is delivered, which
// is what couples thread limits to large transfers (the Univ-2 observation).
#ifndef MFC_SRC_SERVER_WEB_SERVER_H_
#define MFC_SRC_SERVER_WEB_SERVER_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/content/object_store.h"
#include "src/server/database.h"
#include "src/server/http_target.h"
#include "src/server/lru_cache.h"
#include "src/server/resources.h"
#include "src/sim/event_loop.h"
#include "src/telemetry/trace.h"

namespace mfc {

enum class CgiModel {
  kNone,      // no dynamic content support: queries get 404
  kFastCgi,   // process-per-request, inherited memory image
  kMongrel,   // fixed worker pool, constant memory
};

struct WebServerConfig {
  std::string name = "server";

  // Concurrency limits (Apache worker MPM semantics).
  size_t worker_threads = 256;
  size_t accept_backlog = 511;

  // CPU.
  size_t cpu_cores = 2;
  double cpu_speed = 1.0;            // >1 = faster hardware
  double request_parse_cpu_s = 8e-4; // HTTP parse + dispatch per request
  double head_cpu_s = 4e-4;          // extra work for metadata-only responses
  // Software-configuration artifact (the Univ-2 effect): extra per-request
  // CPU proportional to the number of concurrent connections, as in an O(n)
  // readiness scan. 0 disables.
  double per_connection_cpu_s = 0.0;

  // Back-end database placement: 0 = the DB shares the front-end CPU (single
  // box, the lab setup); > 0 = a dedicated DB server with this many cores
  // (multi-tier, the QTNP/QTP setup).
  size_t db_dedicated_cores = 0;
  double db_cpu_speed = 1.0;

  // Memory.
  double ram_bytes = 1e9;
  double base_memory_bytes = 250e6;
  double swap_penalty = 12.0;

  // Disk & page cache.
  double disk_seek_s = 6e-3;
  double disk_bw_bps = 50e6;
  double page_cache_bytes = 400e6;

  // Wire overhead of a response's status line + headers.
  double response_header_bytes = 250.0;

  // Dynamic-content handler.
  CgiModel cgi_model = CgiModel::kFastCgi;
  double cgi_process_memory_bytes = 24e6;  // FastCGI inherited image
  double cgi_cpu_s = 2e-3;                 // marshalling CPU per dynamic request
  size_t mongrel_pool = 16;

  DatabaseConfig db;
};

struct AccessLogEntry {
  SimTime arrival;
  HttpMethod method;
  std::string target;
  HttpStatus status = HttpStatus::kOk;
  double bytes = 0.0;
  bool is_mfc = false;
};

class WebServer : public HttpTarget {
 public:
  WebServer(EventLoop& loop, WebServerConfig config, const ContentStore* content);

  void OnRequest(const HttpRequest& request, bool is_mfc, ResponseTransport transport) override;
  const ContentStore* Content() const override { return content_; }

  // Telemetry gauges.
  size_t ActiveThreads() const { return active_threads_; }
  size_t AcceptQueueDepth() const { return accept_queue_.size(); }
  double CpuUtilization() const { return cpu_.Utilization(); }
  double MemoryUsedBytes() const { return memory_.UsedBytes(); }
  size_t ActiveCgiProcesses() const { return active_cgi_; }
  uint64_t Rejected503() const { return rejected_; }

  CpuResource& Cpu() { return cpu_; }
  DiskResource& Disk() { return disk_; }
  MemoryModel& Memory() { return memory_; }
  Database& Db() { return db_; }
  LruByteCache& PageCache() { return page_cache_; }
  const WebServerConfig& Config() const { return config_; }

  // Access log (always on; tests and the bench harness read it). In-flight
  // requests keep indices into it, so it only grows.
  const std::vector<AccessLogEntry>& AccessLog() const { return access_log_; }

  // Optional tracing/metrics sink. Null (the default) keeps the request path
  // identical to the uninstrumented server; when set, every request gets a
  // root "request" span with queue/cpu/db/disk/net children and per-stage
  // span-time totals accumulate in the registry.
  void SetTelemetry(Telemetry* telemetry) { telemetry_ = telemetry; }

 private:
  // Per-request span state; allocated only while telemetry is enabled so the
  // default path copies a null pointer around. shared_ptr because Ctx flows
  // through std::function callbacks, which require copyable captures.
  struct RequestTrace {
    SpanId root = 0;        // 0 when only metrics are enabled
    SimTime arrival = 0.0;
    std::string stage;      // coordinator stage label at arrival
    double queue_s = 0.0;
    double cpu_s = 0.0;
    double db_s = 0.0;
    double disk_s = 0.0;
    double net_s = 0.0;
  };

  // What a request's lifecycle needs of it, taken at arrival: OnRequest only
  // borrows the HttpRequest, and its target lives on in the access log.
  struct Ctx {
    HttpMethod method;
    const WebObject* object;  // null when the content does not host the path
    ResponseTransport transport;
    size_t log_index;  // entry with the target, to fill in with status/bytes
    std::shared_ptr<RequestTrace> trace;  // null when telemetry is off
  };

  // Emits a child span [t0, Now()] of the request's root and charges the
  // elapsed time to the request's |bucket| total. No-op when untraced.
  void Charge(const Ctx& ctx, const char* name, SimTime t0, double RequestTrace::* bucket);
  // Closes the root span and flushes per-stage totals into the registry.
  void FinishRequestTrace(const RequestTrace& trace, HttpStatus status, double body_bytes);

  void Enqueue(Ctx ctx);
  void Process(Ctx ctx);
  void Dispatch(Ctx ctx);
  void ServeStatic(Ctx ctx);
  void ServeDynamic(Ctx ctx);
  void RunCgi(Ctx ctx);
  void Send(Ctx ctx, HttpStatus status, double body_bytes);
  void ReleaseThread();
  void ReleaseCgiSlot();

  EventLoop& loop_;
  WebServerConfig config_;
  const ContentStore* content_;
  CpuResource cpu_;
  std::unique_ptr<CpuResource> db_cpu_;  // non-null when the DB tier is separate
  DiskResource disk_;
  MemoryModel memory_;
  Database db_;
  LruByteCache page_cache_;

  Telemetry* telemetry_ = nullptr;
  size_t active_threads_ = 0;
  std::deque<Ctx> accept_queue_;
  size_t active_cgi_ = 0;
  std::deque<std::function<void()>> cgi_wait_;  // Mongrel admission queue
  uint64_t rejected_ = 0;
  std::vector<AccessLogEntry> access_log_;
};

}  // namespace mfc

#endif  // MFC_SRC_SERVER_WEB_SERVER_H_
