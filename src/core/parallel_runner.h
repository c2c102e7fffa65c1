// Fixed-size worker pool for fanning independent simulation tasks across
// cores.
//
// Isolation invariant: every task owns its entire simulation world — one
// Deployment (EventLoop, Rng, testbed, server) per task, nothing shared
// across threads except the read-only task description and the task's own
// result slot. Tasks are pulled from an atomic counter in index order and
// each writes only results[i], so the collected output is independent of
// scheduling and bit-identical to a sequential run.
#ifndef MFC_SRC_CORE_PARALLEL_RUNNER_H_
#define MFC_SRC_CORE_PARALLEL_RUNNER_H_

#include <cstddef>
#include <functional>

namespace mfc {

class ParallelProgress;  // telemetry/stats_stream.h

// Resolves a worker count: |requested| if non-zero, else the MFC_JOBS
// environment variable if set and positive, else hardware concurrency
// (minimum 1).
size_t ResolveJobs(size_t requested = 0);

class ParallelRunner {
 public:
  // |jobs| = 0 means ResolveJobs(0) (env / hardware default).
  explicit ParallelRunner(size_t jobs = 0);

  size_t Jobs() const { return jobs_; }

  // Runs fn(i) for every i in [0, count) and returns how many ran. Blocks
  // until every started task finishes. min(Jobs(), count) workers pull
  // indices from a shared atomic cursor, and the calling thread is worker 0:
  // with Jobs() == 1 it runs every task itself, in index order, reproducing
  // sequential behavior exactly.
  //
  // |cancel|, when set, is polled before claiming each index; once it
  // returns true no new indices start, but tasks already claimed run to
  // completion (a graceful drain, not an abort). Which indices ran is
  // scheduling-dependent under cancellation — callers must track completion
  // per index, not assume a prefix.
  //
  // |progress|, when non-null, receives OnClaim/OnDone for every task (by
  // worker id) so an external sampler can observe per-worker state. It must
  // be sized for at least Jobs() workers and never alters scheduling.
  size_t RunIndexed(size_t count, const std::function<void(size_t)>& fn,
                    const std::function<bool()>& cancel = nullptr,
                    ParallelProgress* progress = nullptr) const;

 private:
  size_t jobs_;
};

}  // namespace mfc

#endif  // MFC_SRC_CORE_PARALLEL_RUNNER_H_
