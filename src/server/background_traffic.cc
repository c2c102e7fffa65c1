#include "src/server/background_traffic.h"

#include <cassert>
#include <utility>

namespace mfc {

BackgroundTraffic::BackgroundTraffic(EventLoop& loop, Rng& rng, BackgroundTrafficConfig config,
                                     HttpTarget& target, TransportFactory transport_factory)
    : loop_(loop), rng_(rng.Fork()), config_(config), target_(target),
      transport_factory_(std::move(transport_factory)),
      inter_arrival_(config.requests_per_second > 0 ? config.requests_per_second : 1.0),
      popularity_(target.Content() != nullptr && target.Content()->Size() > 0
                      ? target.Content()->Size()
                      : 1,
                  config.zipf_exponent) {
  request_.headers.Set("Host", "target");
  request_.headers.Set("User-Agent", "background/1.0");
}

void BackgroundTraffic::Start() {
  if (running_ || config_.requests_per_second <= 0.0) {
    return;
  }
  running_ = true;
  ScheduleNext();
}

void BackgroundTraffic::Stop() {
  if (!running_) {
    return;
  }
  running_ = false;
  if (pending_ != 0) {
    loop_.Cancel(pending_);
    pending_ = 0;
  }
}

void BackgroundTraffic::ScheduleNext() {
  pending_ = loop_.ScheduleAfter(inter_arrival_.Sample(rng_), [this] {
    pending_ = 0;
    FireOne();
    if (running_) {
      ScheduleNext();
    }
  });
}

void BackgroundTraffic::FireOne() {
  const ContentStore* content = target_.Content();
  if (content != nullptr && content->Size() > 0) {
    const WebObject& object = content->Objects()[popularity_.Sample(rng_)];
    if (object.dynamic && object.unique_per_query) {
      request_.target = object.path + "?bg=" + std::to_string(rng_.NextBelow(1'000'000));
    } else {
      request_.target = object.path;
    }
    request_.method = rng_.Chance(config_.head_fraction) ? HttpMethod::kHead : HttpMethod::kGet;
  } else {
    request_.target = "/";
    request_.method = HttpMethod::kGet;
  }
  ++issued_;
  target_.OnRequest(request_, /*is_mfc=*/false, transport_factory_());
}

}  // namespace mfc
