#include "src/core/sim_testbed.h"

#include <cassert>
#include <memory>
#include <utility>

#include "src/http/parser.h"

namespace mfc {

SimTestbed::SimTestbed(uint64_t seed, TestbedConfig config, std::vector<ClientNetProfile> fleet,
                       HttpTarget& target)
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
  auto state = std::make_shared<PendingRequest>();
  state->client = client;
  state->start = loop_.Now();
  state->on_done = std::move(on_done);

  // Client-side kill timer (Figure 2b step 2: "If full response not received
  // by 10s: kill the request, set code=ERR, response time=10s").
  state->kill_timer = loop_.ScheduleAfter(request_timeout_, [this, state] {
    state->kill_timer = 0;
    if (state->settled) {
      return;
    }
    state->settled = true;
    if (state->flow != 0) {
      wan_->AbortDownload(state->flow);
      state->flow = 0;
    }
    if (state->on_sent) {
      // The server discovers the dead connection at write time and releases
      // its worker.
      auto release = std::move(state->on_sent);
      release();
    }
    RequestSample sample;
    sample.client_id = state->client;
    sample.code = HttpStatus::kClientTimeout;
    sample.bytes = 0.0;
    sample.response_time = request_timeout_;
    sample.timed_out = true;
    state->on_done(sample);
  });

  // TCP handshake + request delivery: SYN, SYN-ACK, then ACK piggybacking the
  // request — three one-way trips, so the first HTTP byte lands ~1.5 RTTs
  // after the client fires (Section 2.2.4).
  SimDuration to_server = wan_->SampleTargetOneWay(client) + wan_->SampleTargetOneWay(client) +
                          wan_->SampleTargetOneWay(client);
  loop_.ScheduleAfter(to_server, [this, state, request = std::move(request)] {
    if (state->settled) {
      return;  // killed before the request even reached the target
    }
    target_.OnRequest(*request, /*is_mfc=*/true,
                      [this, state](HttpStatus status, double bytes,
                                    std::function<void()> on_sent) {
                        state->transport_called = true;
                        if (state->settled) {
                          if (on_sent) {
                            on_sent();  // immediate reset: client is gone
                          }
                          return;
                        }
                        state->status = status;
                        state->bytes = bytes;
                        state->on_sent = std::move(on_sent);
                        state->flow = wan_->StartDownload(state->client, bytes, [this, state] {
                          state->flow = 0;
                          if (state->settled) {
                            return;
                          }
                          state->settled = true;
                          if (state->kill_timer != 0) {
                            loop_.Cancel(state->kill_timer);
                            state->kill_timer = 0;
                          }
                          RequestSample sample;
                          sample.client_id = state->client;
                          sample.code = state->status;
                          sample.bytes = state->bytes;
                          sample.response_time = loop_.Now() - state->start;
                          state->on_done(sample);
                          if (state->on_sent) {
                            auto release = std::move(state->on_sent);
                            release();
                          }
                        });
                      });
  });
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
  auto result = std::make_shared<std::vector<RequestSample>>();
  Launch(client, Borrow(request), [result](const RequestSample& s) { result->push_back(s); });
  // Drive the simulation until this one request settles. The kill timer
  // guarantees settlement within request_timeout_.
  while (result->empty() && loop_.RunOne()) {
  }
  assert(!result->empty() && "request neither completed nor timed out");
  return result->front();
}

std::vector<RequestSample> SimTestbed::ExecuteCrowd(const std::vector<CrowdRequestPlan>& plans,
                                                    SimTime poll_time) {
  // Shared sink; owned beyond this call because aborted/straggler requests
  // may still settle after the poll (their samples are simply not returned,
  // as with the paper's poll-based collection).
  auto sink = std::make_shared<std::vector<RequestSample>>();
  size_t expected = 0;
  for (const CrowdRequestPlan& plan : plans) {
    expected += plan.connections;
  }
  sink->reserve(expected);
  for (const CrowdRequestPlan& plan : plans) {
    SimTime send = std::max(plan.command_send_time, loop_.Now());
    loop_.ScheduleAt(send, [this, client = plan.client_id, connections = plan.connections,
                            request = plan.request, sink]() mutable {
      // Command travels coordinator -> client over lossy UDP.
      wan_->SendControl(client, [this, client, connections, request = std::move(request),
                                 sink = std::move(sink)] {
        for (size_t c = 0; c < connections; ++c) {
          Launch(client, request, [sink](const RequestSample& s) { sink->push_back(s); });
        }
      });
    });
  }
  loop_.RunUntil(poll_time);
  // Stragglers that settle later push into the moved-from (empty) vector.
  return std::move(*sink);
}

HttpResponse SimTestbed::Fetch(const HttpRequest& request) {
  auto result = std::make_shared<std::vector<RequestSample>>();
  Launch(coordinator_index_, Borrow(request),
         [result](const RequestSample& s) { result->push_back(s); });
  while (result->empty() && loop_.RunOne()) {
  }
  assert(!result->empty());
  const RequestSample& sample = result->front();

  HttpResponse response;
  if (sample.timed_out) {
    response.status = HttpStatus::kRequestTimeout;
    return response;
  }
  response.status = sample.code;

  const ContentStore* content = target_.Content();
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
