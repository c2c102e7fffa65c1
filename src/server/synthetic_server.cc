#include "src/server/synthetic_server.h"

#include <cmath>
#include <utility>

namespace mfc {

ResponseTimeModel LinearModel(SimDuration per_request) {
  return [per_request](size_t concurrent) {
    return per_request * static_cast<double>(concurrent);
  };
}

ResponseTimeModel ExponentialModel(SimDuration scale, double growth, size_t knee) {
  return [scale, growth, knee](size_t concurrent) {
    return scale * (std::exp(growth * static_cast<double>(concurrent) /
                             static_cast<double>(knee)) -
                    1.0);
  };
}

ResponseTimeModel StepModel(size_t threshold, SimDuration low, SimDuration high) {
  return [threshold, low, high](size_t concurrent) {
    return concurrent < threshold ? low : high;
  };
}

ResponseTimeModel ConstantModel(SimDuration value) {
  return [value](size_t) { return value; };
}

SyntheticModelServer::SyntheticModelServer(EventLoop& loop, ResponseTimeModel model,
                                           SimDuration base_service, double response_bytes)
    : loop_(loop), model_(std::move(model)), base_service_(base_service),
      response_bytes_(response_bytes) {}

void SyntheticModelServer::OnRequest(const HttpRequest& request, bool is_mfc,
                                     ResponseTransport transport) {
  (void)request;
  (void)is_mfc;
  SimTime now = loop_.Now();
  arrivals_.push_back(now);

  Pending entry;
  entry.id = next_id_++;
  entry.arrival = now;
  entry.event = 0;
  entry.completion = 0.0;
  entry.transport = std::move(transport);
  pending_.push_back(std::move(entry));

  // The whole queue slows to the new depth: push out any completion that the
  // larger queue implies (delays are non-decreasing, so completions only ever
  // move later).
  SimDuration added = model_(pending_.size());
  for (Pending& p : pending_) {
    SimTime completion = p.arrival + base_service_ + added;
    if (p.event == 0 || completion > p.completion) {
      if (p.event != 0) {
        loop_.Cancel(p.event);
      }
      p.completion = completion;
      uint64_t id = p.id;
      p.event = loop_.ScheduleAt(completion, [this, id] { Complete(id); });
    }
  }
}

void SyntheticModelServer::Complete(uint64_t id) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->id == id) {
      ResponseTransport transport = std::move(it->transport);
      pending_.erase(it);
      transport(HttpStatus::kOk, response_bytes_, [] {});
      return;
    }
  }
}

}  // namespace mfc
