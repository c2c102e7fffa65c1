// Simulated wide-area testbed: the substitute for PlanetLab + the Internet.
//
// Owns the event loop, the wide-area network, and the client fleet, and
// implements both ClientHarness (for the Coordinator) and Fetcher (for the
// Crawler, fetching from the coordinator's own vantage point). The target
// server is any HttpTarget — a full WebServer, a ServerCluster, or the
// synthetic validation server.
//
// Request timeline, mirroring Section 2.2.4: a command sent at t reaches the
// client after one jittered coordinator→client one-way delay; the client
// immediately opens a TCP connection (SYN, SYN-ACK, then ACK+request ≈ 1.5
// jittered RTTs) so the first request byte lands at the target ≈ T; the
// response body streams back through the fluid-flow network; the client
// records (HTTP code, numbytes, response time) and kills anything still
// outstanding at the 10 s timer.
#ifndef MFC_SRC_CORE_SIM_TESTBED_H_
#define MFC_SRC_CORE_SIM_TESTBED_H_

#include <memory>
#include <vector>

#include "src/core/crawler.h"
#include "src/core/harness.h"
#include "src/net/wide_area.h"
#include "src/server/http_target.h"
#include "src/sim/event_loop.h"
#include "src/sim/record_pool.h"
#include "src/sim/rng.h"

namespace mfc {

class SimTestbed : public ClientHarness, public Fetcher {
 public:
  // A null |target| must be bound with SetTarget before the first request:
  // a server built on this testbed's own loop exists only after it.
  SimTestbed(uint64_t seed, WideAreaConfig wan, std::vector<ClientNetProfile> fleet,
             HttpTarget* target);
  void SetTarget(HttpTarget* target) { target_ = target; }

  EventLoop& Loop() { return loop_; }
  WideAreaNetwork& Wan() { return *wan_; }

  // ClientHarness:
  size_t ClientCount() const override { return fleet_size_; }
  std::vector<size_t> ProbeClients(SimDuration timeout) override;
  SimDuration MeasureCoordRtt(size_t client) override;
  SimDuration MeasureTargetRtt(size_t client) override;
  RequestSample FetchOnce(size_t client, const HttpRequest& request) override;
  std::vector<RequestSample> ExecuteCrowd(const std::vector<CrowdRequestPlan>& plans,
                                          SimTime poll_time) override;
  SimTime Now() const override { return loop_.Now(); }
  void WaitUntil(SimTime t) override { loop_.RunUntil(t); }

  // Fetcher (coordinator-vantage crawl fetch). The response body is the real
  // hosted HTML for static text pages, so link extraction works; bulk data
  // responses carry Content-Length only. The wire form is round-tripped
  // through the real serializer + parser.
  HttpResponse Fetch(const HttpRequest& request) override;

  // Per-request kill timer (client side).
  SimDuration request_timeout() const { return request_timeout_; }
  void set_request_timeout(SimDuration t) { request_timeout_ = t; }

  // Low-level: fire one request from |client| right now; |on_done| gets the
  // sample at completion or kill-timeout. Baseline load generators drive the
  // loop themselves and use this directly. The request is shared, never
  // copied: it is only read, when it reaches the target.
  void Launch(size_t client, std::shared_ptr<const HttpRequest> request,
              std::function<void(const RequestSample&)> on_done);

 private:
  // One in-flight client request, pooled. Every hop's callback captures
  // {this, handle} and resolves the handle first; a stale handle means the
  // request has settled (completed or killed). The record is released when
  // the request settles.
  struct PendingRequest {
    size_t client = 0;
    SimTime start = 0.0;
    DownloadId download = 0;    // active download, 0 if none
    EventId kill_timer = 0;
    HttpStatus status = HttpStatus::kOk;
    double bytes = 0.0;
    std::shared_ptr<const HttpRequest> request;  // held until arrival
    std::function<void()> on_sent;  // server-side release, owed to the target
    std::function<void(const RequestSample&)> on_done;
  };
  using RequestHandle = RecordPool<PendingRequest>::Handle;

  // The request's hops, in the order they can run.
  void OnArrival(RequestHandle handle);
  void OnTransport(RequestHandle handle, HttpStatus status, double bytes,
                   std::function<void()> on_sent);
  void OnDownloaded(RequestHandle handle);
  void OnKill(RequestHandle handle);

  EventLoop loop_;
  Rng rng_;
  double control_loss_rate_ = 0.0;
  size_t fleet_size_ = 0;
  size_t coordinator_index_ = 0;  // appended pseudo-client for crawl fetches
  std::unique_ptr<WideAreaNetwork> wan_;
  HttpTarget* target_ = nullptr;
  SimDuration request_timeout_ = Seconds(10);
  RecordPool<PendingRequest> requests_;
  // Samples of the crowd ExecuteCrowd is polling. A request settling after
  // its crowd's poll carries an older crowd number and is dropped, as with
  // the paper's poll-based collection.
  std::vector<RequestSample> crowd_samples_;
  uint64_t crowd_ = 0;
};

}  // namespace mfc

#endif  // MFC_SRC_CORE_SIM_TESTBED_H_
