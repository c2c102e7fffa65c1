#include "src/baseline/closed_loop_loadgen.h"

#include <memory>

#include "src/telemetry/stats.h"

namespace mfc {

LoadGenReport ClosedLoopLoadGen::Run(SimDuration duration) {
  EventLoop& loop = testbed_.Loop();
  SimTime deadline = loop.Now() + duration;

  struct Shared {
    std::vector<double> times;
    size_t errors = 0;
    SimTime deadline = 0.0;
  };
  auto shared = std::make_shared<Shared>();
  shared->deadline = deadline;

  // Each user is a self-rescheduling request chain pinned to one client.
  struct User {
    static void Next(SimTestbed* testbed, std::shared_ptr<const HttpRequest> request,
                     size_t client, SimDuration think, std::shared_ptr<Shared> shared) {
      if (testbed->Loop().Now() >= shared->deadline) {
        return;
      }
      testbed->Launch(client, request,
                      [testbed, request, client, think, shared](const RequestSample& sample) {
                        shared->times.push_back(sample.response_time);
                        if (sample.timed_out || !IsSuccess(sample.code)) {
                          ++shared->errors;
                        }
                        testbed->Loop().ScheduleAfter(think, [testbed, request, client, think,
                                                              shared] {
                          Next(testbed, request, client, think, shared);
                        });
                      });
    }
  };

  auto request = std::make_shared<const HttpRequest>(request_);
  for (size_t u = 0; u < concurrency_; ++u) {
    size_t client = u % testbed_.ClientCount();
    User::Next(&testbed_, request, client, think_time_, shared);
  }
  loop.RunUntil(deadline + Seconds(15));  // drain in-flight requests

  LoadGenReport report;
  report.completed = shared->times.size();
  report.errors = shared->errors;
  report.throughput_rps = duration > 0 ? static_cast<double>(report.completed) / duration : 0.0;
  report.mean_response = Mean(shared->times);
  report.p90_response = Percentile(shared->times, 90.0);
  report.max_response = Max(shared->times);
  return report;
}

}  // namespace mfc
