// Poisson background request load against a target.
//
// The university experiments (Section 4.2) quantify how regular production
// traffic (0.15–20 requests/second in their logs) shifts MFC's stopping crowd
// sizes. BackgroundTraffic replays that: Poisson arrivals, objects drawn
// Zipf-style from the site's content, a GET/HEAD mix, each request sent
// through a caller-provided transport factory (so the bytes traverse the
// simulated network like any other client's).
#ifndef MFC_SRC_SERVER_BACKGROUND_TRAFFIC_H_
#define MFC_SRC_SERVER_BACKGROUND_TRAFFIC_H_

#include <functional>

#include "src/server/http_target.h"
#include "src/sim/distributions.h"
#include "src/sim/event_loop.h"
#include "src/sim/rng.h"

namespace mfc {

struct BackgroundTrafficConfig {
  double requests_per_second = 1.0;
  double head_fraction = 0.05;   // fraction issued as HEAD
  double zipf_exponent = 0.9;    // object popularity skew
};

class BackgroundTraffic {
 public:
  // |transport_factory| builds a fresh ResponseTransport per request (e.g. a
  // download to a random simulated spectator client).
  using TransportFactory = std::function<ResponseTransport()>;

  BackgroundTraffic(EventLoop& loop, Rng& rng, BackgroundTrafficConfig config, HttpTarget& target,
                    TransportFactory transport_factory);
  ~BackgroundTraffic() { Stop(); }
  BackgroundTraffic(const BackgroundTraffic&) = delete;
  BackgroundTraffic& operator=(const BackgroundTraffic&) = delete;

  void Start();
  void Stop();
  bool Running() const { return running_; }
  uint64_t RequestsIssued() const { return issued_; }

 private:
  void ScheduleNext();
  void FireOne();

  EventLoop& loop_;
  Rng rng_;
  BackgroundTrafficConfig config_;
  HttpTarget& target_;
  TransportFactory transport_factory_;
  ExponentialDist inter_arrival_;
  ZipfDist popularity_;
  // Reused by every fire: a target only borrows a request for the length of
  // OnRequest, and the headers never change.
  HttpRequest request_;
  bool running_ = false;
  EventId pending_ = 0;
  uint64_t issued_ = 0;
};

}  // namespace mfc

#endif  // MFC_SRC_SERVER_BACKGROUND_TRAFFIC_H_
