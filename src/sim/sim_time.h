// Simulated-time primitives.
//
// All simulation code expresses time as seconds in a double. Doubles keep the
// fluid-flow bandwidth math (rates, remaining bytes / rate) exact enough and
// avoid unit-mixing bugs; helpers below are the only sanctioned constructors
// for literals so call sites stay readable ("Millis(100)" rather than "0.1").
#ifndef MFC_SRC_SIM_SIM_TIME_H_
#define MFC_SRC_SIM_SIM_TIME_H_

#include <algorithm>
#include <cmath>
#include <limits>

namespace mfc {

// Absolute simulated time, in seconds since simulation start.
using SimTime = double;
// A span of simulated time, in seconds.
using SimDuration = double;

constexpr SimTime kTimeZero = 0.0;
constexpr SimTime kTimeInfinity = std::numeric_limits<double>::infinity();

constexpr SimDuration Seconds(double s) { return s; }
constexpr SimDuration Millis(double ms) { return ms / 1e3; }

constexpr double ToMillis(SimDuration d) { return d * 1e3; }

// Smallest delta that reliably advances a double-precision clock sitting at
// absolute time |t|. Continuous processes (fluid flows, processor sharing)
// must treat any residual work whose projected duration is below this as
// complete, or a completion event scheduled at Now() + dt == Now() re-fires
// forever without progress.
inline SimDuration TimeQuantum(SimTime t) {
  return 8.0 * std::numeric_limits<double>::epsilon() * std::max(1.0, std::abs(t));
}

}  // namespace mfc

#endif  // MFC_SRC_SIM_SIM_TIME_H_
