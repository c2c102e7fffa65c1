// Validation target with pluggable synthetic response-time models.
//
// Section 3.1 instruments a lightweight HTTP server so that the average
// increase in response time per request is a configurable function of the
// number of simultaneous requests at the server, then checks that the crowd's
// median normalized response time tracks the model (Figure 4). This class is
// that server: no content, no resources — just the model.
#ifndef MFC_SRC_SERVER_SYNTHETIC_SERVER_H_
#define MFC_SRC_SERVER_SYNTHETIC_SERVER_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/server/http_target.h"
#include "src/sim/event_loop.h"

namespace mfc {

// Maps the number of simultaneous requests to the added response time
// (seconds). Must be non-decreasing, as in the paper.
using ResponseTimeModel = std::function<SimDuration(size_t concurrent)>;

// The shapes used in Figure 4 (plus ones for property tests).
ResponseTimeModel LinearModel(SimDuration per_request);
ResponseTimeModel ExponentialModel(SimDuration scale, double growth, size_t knee);
ResponseTimeModel StepModel(size_t threshold, SimDuration low, SimDuration high);
ResponseTimeModel ConstantModel(SimDuration value);

class SyntheticModelServer : public HttpTarget {
 public:
  SyntheticModelServer(EventLoop& loop, ResponseTimeModel model,
                       SimDuration base_service = 0.002, double response_bytes = 1024.0);

  // Queue-coupled delays (the paper's instrumented server): each request's
  // added delay is the model evaluated at the LARGEST pending-queue size
  // observed while it was pending — a new arrival stretches everything
  // already queued, the way a shared service queue behaves.
  void OnRequest(const HttpRequest& request, bool is_mfc, ResponseTransport transport) override;

  size_t Concurrent() const { return pending_.size(); }
  // Arrival timestamps of every request, for the Figure 3 analysis.
  const std::vector<SimTime>& Arrivals() const { return arrivals_; }

 private:
  struct Pending {
    uint64_t id;
    SimTime arrival;
    SimTime completion;
    EventId event;
    ResponseTransport transport;
  };

  void Complete(uint64_t id);

  EventLoop& loop_;
  ResponseTimeModel model_;
  SimDuration base_service_;
  double response_bytes_;
  uint64_t next_id_ = 1;
  std::vector<Pending> pending_;
  std::vector<SimTime> arrivals_;
};

}  // namespace mfc

#endif  // MFC_SRC_SERVER_SYNTHETIC_SERVER_H_
