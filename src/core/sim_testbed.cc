#include "src/core/sim_testbed.h"

#include <cassert>
#include <memory>
#include <optional>
#include <utility>

#include "src/http/parser.h"

namespace mfc {

SimTestbed::SimTestbed(uint64_t seed, TestbedConfig config, std::vector<ClientNetProfile> fleet,
                       HttpTarget* target)
    : rng_(seed), config_(std::move(config)), fleet_size_(fleet.size()), target_(target) {
  // The coordinator participates in the network as one extra host (for its
  // crawl fetches); it is not part of the probe fleet.
  coordinator_index_ = fleet.size();
  fleet.push_back(config_.coordinator_net);
  wan_ = std::make_unique<WideAreaNetwork>(loop_, rng_, config_.wan, std::move(fleet));
}

std::vector<size_t> SimTestbed::ProbeClients(SimDuration timeout) {
  std::vector<size_t> responsive;
  double loss = config_.wan.control_loss_rate;
  for (size_t i = 0; i < fleet_size_; ++i) {
    // Probe and reply each cross the control channel once.
    if (loss > 0.0 && (rng_.Chance(loss) || rng_.Chance(loss))) {
      continue;
    }
    SimDuration rtt = wan_->SampleCoordOneWay(i) + wan_->SampleCoordOneWay(i);
    if (rtt <= timeout) {
      responsive.push_back(i);
    }
  }
  return responsive;
}

SimDuration SimTestbed::MeasureCoordRtt(size_t client) {
  return wan_->SampleCoordOneWay(client) + wan_->SampleCoordOneWay(client);
}

SimDuration SimTestbed::MeasureTargetRtt(size_t client) {
  return wan_->SampleTargetOneWay(client) + wan_->SampleTargetOneWay(client);
}

void SimTestbed::Launch(size_t client, std::shared_ptr<const HttpRequest> request,
                        std::function<void(const RequestSample&)> on_done) {
  RequestHandle handle = requests_.Acquire();
  PendingRequest& state = *requests_.Find(handle);
  state.client = client;
  state.start = loop_.Now();
  state.request = std::move(request);
  state.on_done = std::move(on_done);

  // Client-side kill timer (Figure 2b step 2: "If full response not received
  // by 10s: kill the request, set code=ERR, response time=10s").
  state.kill_timer = loop_.ScheduleAfter(request_timeout_, [this, handle] { OnKill(handle); });

  // TCP handshake + request delivery: SYN, SYN-ACK, then ACK piggybacking the
  // request — three one-way trips, so the first HTTP byte lands ~1.5 RTTs
  // after the client fires (Section 2.2.4).
  SimDuration to_server = wan_->SampleTargetOneWay(client) + wan_->SampleTargetOneWay(client) +
                          wan_->SampleTargetOneWay(client);
  loop_.ScheduleAfter(to_server, [this, handle] { OnArrival(handle); });
}

void SimTestbed::OnArrival(RequestHandle handle) {
  PendingRequest* state = requests_.Find(handle);
  if (state == nullptr) {
    return;  // killed before the request even reached the target
  }
  // The record holds the request only until arrival.
  std::shared_ptr<const HttpRequest> request = std::move(state->request);
  target_->OnRequest(*request, /*is_mfc=*/true,
                     [this, handle](HttpStatus status, double bytes,
                                    std::function<void()> on_sent) {
                       OnTransport(handle, status, bytes, std::move(on_sent));
                     });
}

void SimTestbed::OnTransport(RequestHandle handle, HttpStatus status, double bytes,
                             std::function<void()> on_sent) {
  PendingRequest* state = requests_.Find(handle);
  if (state == nullptr) {
    if (on_sent) {
      on_sent();  // immediate reset: client is gone
    }
    return;
  }
  state->status = status;
  state->bytes = bytes;
  state->on_sent = std::move(on_sent);
  DownloadId download =
      wan_->StartDownload(state->client, bytes, [this, handle] { OnDownloaded(handle); });
  requests_.Find(handle)->download = download;
}

void SimTestbed::OnDownloaded(RequestHandle handle) {
  PendingRequest* state = requests_.Find(handle);
  if (state == nullptr) {
    return;  // killed while the last byte was in flight
  }
  loop_.Cancel(state->kill_timer);
  RequestSample sample;
  sample.client_id = state->client;
  sample.code = state->status;
  sample.bytes = state->bytes;
  sample.response_time = loop_.Now() - state->start;
  std::function<void(const RequestSample&)> on_done = std::move(state->on_done);
  std::function<void()> release = std::move(state->on_sent);
  requests_.Release(handle);
  on_done(sample);  // may launch the next request
  if (release) {
    release();
  }
}

void SimTestbed::OnKill(RequestHandle handle) {
  PendingRequest* state = requests_.Find(handle);
  if (state == nullptr) {
    return;
  }
  if (state->download != 0) {
    wan_->AbortDownload(state->download);
  }
  RequestSample sample;
  sample.client_id = state->client;
  sample.code = HttpStatus::kClientTimeout;
  sample.bytes = 0.0;
  sample.response_time = request_timeout_;
  sample.timed_out = true;
  std::function<void(const RequestSample&)> on_done = std::move(state->on_done);
  std::function<void()> release = std::move(state->on_sent);
  requests_.Release(handle);
  if (release) {
    // The server discovers the dead connection at write time and releases
    // its worker.
    release();
  }
  on_done(sample);
}

namespace {

// A non-owning handle on a request for the blocking fetches below. They run
// the loop until their request settles, and a target reads a request only
// inside OnRequest, so the caller's request outlives every read of it.
std::shared_ptr<const HttpRequest> Borrow(const HttpRequest& request) {
  return std::shared_ptr<const HttpRequest>(std::shared_ptr<const HttpRequest>(), &request);
}

}  // namespace

RequestSample SimTestbed::FetchOnce(size_t client, const HttpRequest& request) {
  // The request settles before this returns, so its callback may point here.
  std::optional<RequestSample> result;
  Launch(client, Borrow(request), [&result](const RequestSample& s) { result = s; });
  // Drive the simulation until this one request settles. The kill timer
  // guarantees settlement within request_timeout_.
  while (!result && loop_.RunOne()) {
  }
  assert(result && "request neither completed nor timed out");
  return *result;
}

std::vector<RequestSample> SimTestbed::ExecuteCrowd(const std::vector<CrowdRequestPlan>& plans,
                                                    SimTime poll_time) {
  size_t expected = 0;
  for (const CrowdRequestPlan& plan : plans) {
    expected += plan.connections;
  }
  crowd_samples_.clear();
  crowd_samples_.reserve(expected);
  for (const CrowdRequestPlan& plan : plans) {
    SimTime send = std::max(plan.command_send_time, loop_.Now());
    loop_.ScheduleAt(send, [this, client = plan.client_id, connections = plan.connections,
                            request = plan.request, crowd = crowd_]() mutable {
      // Command travels coordinator -> client over lossy UDP.
      wan_->SendControl(client, [this, client, connections, request = std::move(request),
                                 crowd] {
        for (size_t c = 0; c < connections; ++c) {
          Launch(client, request, [this, crowd](const RequestSample& s) {
            if (crowd == crowd_) {
              crowd_samples_.push_back(s);
            }
          });
        }
      });
    });
  }
  loop_.RunUntil(poll_time);
  ++crowd_;  // stragglers that settle later are not this crowd's samples
  return std::move(crowd_samples_);
}

HttpResponse SimTestbed::Fetch(const HttpRequest& request) {
  RequestSample sample = SimTestbed::FetchOnce(coordinator_index_, request);

  HttpResponse response;
  if (sample.timed_out) {
    response.status = HttpStatus::kRequestTimeout;
    return response;
  }
  response.status = sample.code;

  const ContentStore* content = target_->Content();
  const WebObject* object =
      content != nullptr ? content->Find(request.Path()) : nullptr;
  if (object != nullptr && IsSuccess(sample.code)) {
    if (request.method == HttpMethod::kGet && !object->body.empty()) {
      // Real page bytes: round-trip them through the wire format so the
      // genuine serializer/parser pair is on the crawl path.
      HttpResponse built = HttpResponse::Make(sample.code, MimeTypeForPath(object->path),
                                              object->body);
      std::string wire = built.Serialize();
      ResponseParser parser;
      parser.Feed(wire);
      assert(parser.Done());
      return parser.Message();
    }
    // Bulk or dynamic data: metadata only, like a HEAD (or a body the crawler
    // does not need to inspect).
    response.headers.Set("Content-Type", object->dynamic
                                             ? "text/html"
                                             : std::string(MimeTypeForPath(object->path)));
    response.headers.Set("Content-Length", std::to_string(object->size_bytes));
    return response;
  }
  response.headers.Set("Content-Length", "0");
  return response;
}

}  // namespace mfc
