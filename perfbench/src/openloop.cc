#include "openloop.h"

#include <algorithm>
#include <limits>
#include <thread>

namespace perfbench {
namespace {

// Sleep until this close to a due time, then spin: sleeping alone
// overshoots by tens of microseconds, which at tens of thousands of
// requests per second would be lateness of the generator's own making.
constexpr std::chrono::microseconds kSpinWindow{200};

}  // namespace

OpenLoopPhase::OpenLoopPhase(double rate_qps, size_t count)
    : rate_qps_(rate_qps),
      count_(count),
      sent_ns_(count, 0),
      done_ns_(count, 0),
      outcome_(count, Outcome::kPending) {}

int64_t OpenLoopPhase::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start_)
      .count();
}

int64_t OpenLoopPhase::DueNs(size_t i) const {
  return static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate_qps_);
}

Clock::time_point OpenLoopPhase::Due(size_t i) const {
  return start_ + std::chrono::nanoseconds(DueNs(i));
}

void OpenLoopPhase::Run(const std::function<void(size_t)>& issue) {
  start_ = Clock::now() + std::chrono::milliseconds(1);
  for (size_t i = 0; i < count_; ++i) {
    Clock::time_point due = Due(i);
    if (due - Clock::now() > kSpinWindow) {
      std::this_thread::sleep_until(due - kSpinWindow);
    }
    while (Clock::now() < due) {
    }
    sent_ns_[i] = NowNs();
    issue(i);
  }
}

void OpenLoopPhase::Complete(size_t i, Outcome outcome) {
  done_ns_[i] = NowNs();
  outcome_[i] = outcome;
  // Release: the stamps above happen-before WaitAll's acquire load.
  completed_.fetch_add(1, std::memory_order_release);
}

bool OpenLoopPhase::WaitAll(std::chrono::milliseconds timeout) const {
  Clock::time_point deadline = Clock::now() + timeout;
  while (completed_.load(std::memory_order_acquire) < count_) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  return true;
}

std::vector<double> OpenLoopPhase::LatenciesMs(bool failures_as_misses) const {
  std::vector<double> out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) {
    if (outcome_[i] != Outcome::kOk) {
      if (failures_as_misses) {
        out.push_back(std::numeric_limits<double>::infinity());
      }
      continue;
    }
    out.push_back(static_cast<double>(done_ns_[i] - DueNs(i)) / 1e6);
  }
  return out;
}

std::vector<double> OpenLoopPhase::LatenessMs() const {
  std::vector<double> out(count_);
  for (size_t i = 0; i < count_; ++i) {
    out[i] = static_cast<double>(std::max<int64_t>(0, sent_ns_[i] - DueNs(i))) /
             1e6;
  }
  return out;
}

size_t OpenLoopPhase::CountOutcome(Outcome outcome) const {
  return static_cast<size_t>(
      std::count(outcome_.begin(), outcome_.end(), outcome));
}

double OpenLoopPhase::DrainMs() const {
  if (count_ == 0) return 0.0;
  int64_t last_done = *std::max_element(done_ns_.begin(), done_ns_.end());
  return static_cast<double>(last_done - DueNs(count_ - 1)) / 1e6;
}

}  // namespace perfbench
