// The coordinator's view of its client fleet.
//
// The MFC control logic (Coordinator) is written against this interface so
// the same algorithm drives simulated clients (SimTestbed), mocks in unit
// tests, or — in a deployment — real PlanetLab-style agents. Everything here
// corresponds to a concrete client-side capability in Figure 2b.
#ifndef MFC_SRC_CORE_HARNESS_H_
#define MFC_SRC_CORE_HARNESS_H_

#include <memory>
#include <vector>

#include "src/core/types.h"
#include "src/http/message.h"
#include "src/sim/sim_time.h"

namespace mfc {

// One client's marching orders for an epoch.
struct CrowdRequestPlan {
  size_t client_id = 0;
  // Immutable and shared: the coordinator builds one request per client per
  // stage, and every epoch, connection and testbed hop borrows it.
  std::shared_ptr<const HttpRequest> request;
  SimTime command_send_time = 0.0;  // when the coordinator transmits the command
  SimTime intended_arrival = 0.0;   // diagnostic: when the request should land
  size_t connections = 1;           // MFC-mr parallel connections
};

class ClientHarness {
 public:
  virtual ~ClientHarness() = default;

  virtual size_t ClientCount() const = 0;

  // Registration probe: ids of clients that answered within |timeout|
  // (Figure 2a step 1-2; the check behind "If k < 50, abort").
  virtual std::vector<size_t> ProbeClients(SimDuration timeout) = 0;

  // Round-trip estimates used by the synchronization arithmetic.
  virtual SimDuration MeasureCoordRtt(size_t client) = 0;
  virtual SimDuration MeasureTargetRtt(size_t client) = 0;

  // One isolated fetch by one client (the sequential base-response-time
  // measurements before epoch 1). Blocks (simulated time advances) until the
  // response completes or times out.
  virtual RequestSample FetchOnce(size_t client, const HttpRequest& request) = 0;

  // Executes a crowd: sends each command at its plan time, lets clients fire
  // their requests, and returns every sample reported by |poll_time|.
  virtual std::vector<RequestSample> ExecuteCrowd(const std::vector<CrowdRequestPlan>& plans,
                                                  SimTime poll_time) = 0;

  virtual SimTime Now() const = 0;

  // Idles until |t| (epoch separation).
  virtual void WaitUntil(SimTime t) = 0;

  // Transport-level health verdict for one client, consulted by the
  // coordinator's eviction logic in addition to its own per-epoch miss
  // accounting. The default says "always healthy", which keeps harnesses
  // without a health table (the simulation testbed) byte-identical to the
  // pre-health-plane behavior; LiveHarness overrides it with its per-agent
  // probe-miss-streak verdict.
  virtual bool ClientHealthy(size_t client) const {
    (void)client;
    return true;
  }
};

}  // namespace mfc

#endif  // MFC_SRC_CORE_HARNESS_H_
