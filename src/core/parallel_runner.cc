#include "src/core/parallel_runner.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "src/telemetry/stats_stream.h"

namespace mfc {

size_t ResolveJobs(size_t requested) {
  if (requested > 0) {
    return requested;
  }
  if (const char* env = std::getenv("MFC_JOBS")) {
    char* end = nullptr;
    long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<size_t>(parsed);
    }
    // A set-but-broken MFC_JOBS used to fall through silently — the user
    // believes they pinned the worker count while the run fans out across
    // every core. Say so, once, then take the hardware default.
    fprintf(stderr,
            "warning: MFC_JOBS=\"%s\" is not a positive integer; "
            "falling back to hardware concurrency\n",
            env);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

ParallelRunner::ParallelRunner(size_t jobs) : jobs_(ResolveJobs(jobs)) {}

size_t ParallelRunner::RunIndexed(size_t count, const std::function<void(size_t)>& fn,
                                  const std::function<bool()>& cancel,
                                  ParallelProgress* progress) const {
  std::atomic<size_t> next{0};
  std::atomic<size_t> ran{0};
  auto worker = [&](size_t w) {
    for (;;) {
      if (cancel && cancel()) {
        return;
      }
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) {
        return;
      }
      if (progress != nullptr) {
        progress->OnClaim(w, i);
      }
      fn(i);
      if (progress != nullptr) {
        progress->OnDone(w);
      }
      ran.fetch_add(1, std::memory_order_relaxed);
    }
  };
  size_t workers = jobs_ < count ? jobs_ : count;
  std::vector<std::thread> pool;
  for (size_t w = 1; w < workers; ++w) {
    pool.emplace_back(worker, w);
  }
  worker(0);
  for (std::thread& t : pool) {
    t.join();
  }
  return ran.load(std::memory_order_relaxed);
}

}  // namespace mfc
