// Server-side hardware resource models.
//
// CpuResource: k-core processor-sharing queue — with n jobs each progresses
// at speed * min(1, cores/n), optionally scaled down by a slowdown provider
// (memory pressure / swap). Every job runs at that one rate, so the model
// keeps one virtual service clock instead of per-job remaining work
// (DESIGN.md §10): arrivals and completions are O(log n).
// DiskResource: FIFO-serialized device with seek + transfer service times;
// serialized access to a single disk is one of the resource-serialization
// effects Section 3.3 discusses. MemoryModel:
// explicit allocation accounting with a swap penalty once resident usage
// exceeds RAM — the mechanism behind the FastCGI blow-up in Figure 6.
#ifndef MFC_SRC_SERVER_RESOURCES_H_
#define MFC_SRC_SERVER_RESOURCES_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/sim/event_loop.h"

namespace mfc {

class CpuResource {
 public:
  // |cores| parallel cores, each at |speed| (1.0 = demands are in seconds).
  CpuResource(EventLoop& loop, size_t cores, double speed = 1.0);
  CpuResource(const CpuResource&) = delete;
  CpuResource& operator=(const CpuResource&) = delete;

  // External factor >= 1 dividing effective speed (e.g. swap thrashing).
  // Queried on every reallocation.
  void SetSlowdownProvider(std::function<double()> provider) { slowdown_ = std::move(provider); }

  // Submits a job needing |demand| core-seconds; |done| fires on completion.
  void Submit(double demand, std::function<void()> done);

  // Forces a re-read of the slowdown provider (call after memory changes).
  void Reschedule();

  size_t ActiveJobs() const { return jobs_.size(); }
  // Instantaneous utilization in [0, 1].
  double Utilization() const;

 private:
  struct Job {
    double finish;  // virtual time at which the job's demand is met
    uint64_t id;    // submission order: ties complete first-in, first-out
    std::function<void()> done;
  };
  // Heap order for std::push_heap/pop_heap: the front job finishes first.
  static bool FinishesLater(const Job& a, const Job& b) {
    return a.finish != b.finish ? a.finish > b.finish : a.id > b.id;
  }

  void Advance();
  double PerJobRate() const;
  void ScheduleNext();
  void OnTimer();

  EventLoop& loop_;
  size_t cores_;
  double speed_;
  std::function<double()> slowdown_;
  // Binary min-heap on (finish, id).
  std::vector<Job> jobs_;
  uint64_t next_job_id_ = 1;
  // The virtual clock V: service each present job has received since the
  // CPU last went idle (rebased to 0 then). A job submitted with demand d
  // finishes when V reaches V(submission) + d.
  double vclock_ = 0.0;
  SimTime last_advance_ = kTimeZero;
  // Rate in effect since the last reallocation; Advance() must use this, not
  // a fresh PerJobRate(), so slowdown changes apply only from the instant of
  // the Reschedule() that observed them.
  double current_rate_ = 0.0;
  EventId timer_ = 0;
  // OnTimer's completed callbacks; kept to reuse its capacity.
  std::vector<std::function<void()>> due_;
};

class DiskResource {
 public:
  DiskResource(EventLoop& loop, double seek_seconds, double bandwidth_bps);
  DiskResource(const DiskResource&) = delete;
  DiskResource& operator=(const DiskResource&) = delete;

  // Reads/writes |bytes|; operations are strictly FIFO.
  void Submit(double bytes, std::function<void()> done);

  size_t QueueDepth() const { return queue_.size() + (busy_ ? 1 : 0); }
  // Cumulative busy seconds — callers derive utilization over a window.
  double BusySeconds() const;

 private:
  struct Op {
    double bytes;
    std::function<void()> done;
  };

  void StartNext();

  EventLoop& loop_;
  double seek_seconds_;
  double bandwidth_bps_;
  bool busy_ = false;
  SimTime busy_since_ = kTimeZero;
  double busy_accum_ = 0.0;
  std::deque<Op> queue_;
};

class MemoryModel {
 public:
  // |ram_bytes| of physical memory; |base_bytes| always resident (OS, server
  // binary). |swap_penalty| scales the CPU slowdown per unit of overcommit.
  MemoryModel(double ram_bytes, double base_bytes, double swap_penalty = 8.0);

  void Allocate(double bytes);
  void Free(double bytes);

  double UsedBytes() const { return used_; }
  bool Swapping() const { return used_ > ram_; }

  // >= 1; 1 while resident fits in RAM, then grows linearly with overcommit.
  double SlowdownFactor() const;

 private:
  double ram_;
  double used_;
  double swap_penalty_;
};

}  // namespace mfc

#endif  // MFC_SRC_SERVER_RESOURCES_H_
