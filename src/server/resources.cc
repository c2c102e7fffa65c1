#include "src/server/resources.h"

#include <algorithm>
#include <cassert>
#include <vector>

namespace mfc {
namespace {

constexpr double kWorkEpsilon = 1e-9;

}  // namespace

CpuResource::CpuResource(EventLoop& loop, size_t cores, double speed)
    : loop_(loop), cores_(cores == 0 ? 1 : cores), speed_(speed) {
  assert(speed > 0.0);
}

double CpuResource::PerJobRate() const {
  if (jobs_.empty()) {
    return 0.0;
  }
  double share = std::min(1.0, static_cast<double>(cores_) / static_cast<double>(jobs_.size()));
  double slowdown = slowdown_ ? std::max(1.0, slowdown_()) : 1.0;
  return speed_ * share / slowdown;
}

void CpuResource::Submit(double demand, std::function<void()> done) {
  Advance();
  jobs_.push_back(Job{vclock_ + std::max(demand, kWorkEpsilon), next_job_id_++, std::move(done)});
  std::push_heap(jobs_.begin(), jobs_.end(), FinishesLater);
  ScheduleNext();
}

void CpuResource::Reschedule() {
  Advance();
  ScheduleNext();
}

double CpuResource::Utilization() const {
  if (jobs_.empty()) {
    return 0.0;
  }
  return std::min(1.0, static_cast<double>(jobs_.size()) / static_cast<double>(cores_));
}

void CpuResource::Advance() {
  SimTime now = loop_.Now();
  double dt = now - last_advance_;
  last_advance_ = now;
  if (dt <= 0.0 || jobs_.empty()) {
    return;
  }
  vclock_ += current_rate_ * dt;
}

void CpuResource::ScheduleNext() {
  if (jobs_.empty()) {
    if (timer_ != 0) {
      loop_.Cancel(timer_);
      timer_ = 0;
    }
    current_rate_ = 0.0;
    vclock_ = 0.0;
    return;
  }
  current_rate_ = PerJobRate();
  assert(current_rate_ > 0.0);
  double remaining = std::max(0.0, jobs_.front().finish - vclock_);
  SimTime due = loop_.Now() + remaining / current_rate_;
  if (timer_ != 0) {
    timer_ = loop_.Reschedule(timer_, due);
    return;
  }
  timer_ = loop_.ScheduleAt(due, [this] {
    timer_ = 0;
    OnTimer();
  });
}

void CpuResource::OnTimer() {
  Advance();
  // Swapped out while the callbacks run, so one that re-enters the event
  // loop and reaches OnTimer again finds due_ empty.
  std::vector<std::function<void()>> due;
  due.swap(due_);
  SimDuration quantum = TimeQuantum(loop_.Now());
  while (!jobs_.empty()) {
    // Done when the work is gone or the residual cannot advance the clock.
    double remaining = jobs_.front().finish - vclock_;
    if (remaining > kWorkEpsilon && remaining / current_rate_ > quantum) {
      break;
    }
    std::pop_heap(jobs_.begin(), jobs_.end(), FinishesLater);
    due.push_back(std::move(jobs_.back().done));
    jobs_.pop_back();
  }
  ScheduleNext();
  for (auto& cb : due) {
    if (cb) {
      cb();
    }
  }
  due.clear();
  due_.swap(due);
}

DiskResource::DiskResource(EventLoop& loop, double seek_seconds, double bandwidth_bps)
    : loop_(loop), seek_seconds_(seek_seconds), bandwidth_bps_(bandwidth_bps) {
  assert(bandwidth_bps > 0.0);
}

void DiskResource::Submit(double bytes, std::function<void()> done) {
  queue_.push_back(Op{bytes, std::move(done)});
  if (!busy_) {
    StartNext();
  }
}

double DiskResource::BusySeconds() const {
  if (!busy_) {
    return busy_accum_;
  }
  return busy_accum_ + (loop_.Now() - busy_since_);
}

void DiskResource::StartNext() {
  if (queue_.empty()) {
    busy_ = false;
    return;
  }
  Op op = std::move(queue_.front());
  queue_.pop_front();
  if (!busy_) {
    busy_ = true;
    busy_since_ = loop_.Now();
  }
  double service = seek_seconds_ + op.bytes / bandwidth_bps_;
  loop_.ScheduleAfter(service, [this, done = std::move(op.done)]() mutable {
    if (done) {
      done();
    }
    // Account busy time up to now before possibly idling.
    busy_accum_ += loop_.Now() - busy_since_;
    busy_since_ = loop_.Now();
    if (queue_.empty()) {
      busy_ = false;
    } else {
      StartNext();
    }
  });
}

MemoryModel::MemoryModel(double ram_bytes, double base_bytes, double swap_penalty)
    : ram_(ram_bytes), used_(base_bytes), swap_penalty_(swap_penalty) {}

void MemoryModel::Allocate(double bytes) { used_ += bytes; }

void MemoryModel::Free(double bytes) { used_ = std::max(0.0, used_ - bytes); }

double MemoryModel::SlowdownFactor() const {
  if (used_ <= ram_) {
    return 1.0;
  }
  return 1.0 + swap_penalty_ * (used_ - ram_) / ram_;
}

}  // namespace mfc
