// MFC experiment configuration (the tunables of Sections 2.2-2.3 and the
// extensions of Section 6).
#ifndef MFC_SRC_CORE_CONFIG_H_
#define MFC_SRC_CORE_CONFIG_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/sim/sim_time.h"

namespace mfc {

// Bounded exponential backoff for control-plane operations (client
// registration, coordinator pings, RTT probes, command/sample re-issue).
// Both substrates share this policy object: the live runtime executes it
// against real timers; the simulation's loss model is the scenario it
// defends against.
struct RetryPolicy {
  size_t max_attempts = 4;  // total tries including the first
  SimDuration initial_backoff = Millis(100);
  double multiplier = 2.0;
  SimDuration max_backoff = Seconds(2);

  // Wait after the |attempt|-th try (1-based) before retrying or giving up.
  SimDuration BackoffFor(size_t attempt) const {
    SimDuration backoff = initial_backoff;
    for (size_t i = 1; i < attempt; ++i) {
      backoff = std::min(max_backoff, backoff * multiplier);
    }
    return std::min(backoff, max_backoff);
  }
};

struct ExperimentConfig {
  // Response-time degradation threshold θ. The paper uses 100 ms for the
  // wild studies and 250 ms for cooperating sites that allowed it.
  SimDuration threshold = Millis(100);

  // Crowd-size increment between epochs ("a small value... 5 or 10").
  size_t crowd_step = 5;

  // Hard ceiling on concurrent requests per epoch; reaching it without a
  // confirmed stop yields "NoStop" (the infrastructure is unconstrained at
  // the tested load).
  size_t max_crowd = 50;

  // The coordinator aborts unless this many clients answer its one-second
  // registration probe (Figure 2a, step 2: "If k < 50, abort").
  size_t min_clients = 50;

  // Epochs smaller than this auto-progress regardless of the measured
  // degradation — medians over fewer clients are not statistically robust.
  size_t min_crowd_for_inference = 15;

  // Successive epochs are separated by ~10 s.
  SimDuration epoch_gap = Seconds(10);

  // Clients kill requests that have not completed after this long and report
  // code=ERR with response time equal to the timeout.
  SimDuration request_timeout = Seconds(10);

  // Lead time between scheduling and the common arrival instant T (the
  // validation runs command clients "15s after taking the latency
  // measurements").
  SimDuration schedule_lead = Seconds(15);

  // MFC-mr (Section 4.1): parallel TCP connections per client, each carrying
  // the same request. 1 = standard MFC.
  size_t requests_per_client = 1;

  // Decision-rule percentile (Section 2.2.3). A stage stops when a
  // percentile of normalized response times exceeds θ. The median (P50 > θ
  // ⟺ at least 50% of clients degraded) is used everywhere except the Large
  // Object stage, which requires 90% of the clients to see the degradation —
  // i.e. P10 > θ — so congestion at shared remote bottlenecks is not mistaken
  // for the server's access link.
  double large_object_percentile = 10.0;

  // Staggered MFC (Section 6): when > 0, client arrivals are spaced this far
  // apart instead of synchronized to one instant.
  SimDuration stagger_spacing = 0.0;

  // Safety bound on epochs per stage.
  size_t max_epochs = 200;

  // Graceful degradation (Section 3's flaky-client reality). Both knobs
  // default off so the unhardened behaviour is bit-identical.
  //
  // A client that misses (returns no sample, or only timeouts, for) this
  // many consecutive epochs it participated in is marked unhealthy and
  // excluded from later crowds; the crowd is refilled from the remaining
  // registered pool. 0 disables eviction.
  size_t evict_after_misses = 0;
  // Minimum fraction of scheduled samples an epoch must deliver. An epoch
  // below quorum is re-run once; if the re-run is also below quorum the
  // stage terminates with StageEndReason::kQuorumFailed instead of silently
  // deciding on thin data. 0 disables the quorum check.
  double epoch_quorum = 0.0;
};

// Object-classification bounds from Section 2.2.1.
struct ProfileThresholds {
  uint64_t large_object_min_bytes = 100 * 1024;  // >= 100 KB: Large Object
  uint64_t small_query_max_bytes = 15 * 1024;    // < 15 KB: Small Query
};

}  // namespace mfc

#endif  // MFC_SRC_CORE_CONFIG_H_
