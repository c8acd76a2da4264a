// Open-loop load plans shared by every workload: traffic with its
// reference answers, a sender abstraction over the system under test,
// windows of fixed-rate traffic whose answers are checked as soon as
// they end, and the SLO grid behind max_qps_at_slo.
//
// A run measures light and busy rates in alternating windows and
// reports medians over windows, so one disturbed window (a descheduled
// thread, a neighbour's burst on a shared host) moves one sample, not
// the result. max_qps_at_slo comes from a separate grid of rates, run
// by the traced invocation.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "openloop.h"
#include "report.h"
#include "stats.h"

namespace perfbench {

/// Fixed rates, limit and grid of one workload. Rates are absolute and
/// were set once on a 4-vCPU x86-64 host (README.md).
struct LoadSpec {
  double slo_ms;          ///< tail limit for max_qps_at_slo
  double light_qps;
  double busy_qps;
  size_t windows;         ///< light/busy window pairs per run
  double grid_start_qps;  ///< first rate of the SLO grid
  double grid_ratio;      ///< geometric step of the grid
  size_t grid_steps;
  size_t grid_windows;    ///< windows per grid step
};

/// The request stream: a seeded sequence cycled by every window, and
/// the reference answer hash of each distinct request.
struct Traffic {
  std::vector<std::string> queries;
  std::unordered_map<std::string, uint64_t> reference;
  size_t cursor = 0;

  size_t Next() {
    size_t pos = cursor;
    cursor = (cursor + 1) % queries.size();
    return pos;
  }
};

/// What a request's answer was (filled by the completion).
struct Answer {
  uint64_t hash = 0;
  uint64_t version = 0;
};

/// Sends one request to the system under test; its completion must call
/// phase->Complete(i, ...) exactly once and fill answer slot i.
class Sender {
 public:
  virtual ~Sender() = default;
  /// Called before a window runs; `answers` has one slot per request.
  void Begin(OpenLoopPhase* phase, std::vector<Answer>* answers) {
    phase_.store(phase, std::memory_order_release);
    answers_.store(answers, std::memory_order_release);
  }
  virtual void Send(size_t i, const std::string& query) = 0;

 protected:
  std::atomic<OpenLoopPhase*> phase_{nullptr};
  std::atomic<std::vector<Answer>*> answers_{nullptr};
};

/// One window's raw record: schedule timings, the traffic position each
/// request carried, and what came back.
struct Phase {
  std::unique_ptr<OpenLoopPhase> loop;
  std::vector<size_t> pos;
  std::vector<Answer> answers;
  std::vector<int64_t> handoff_end_ns;  ///< traced windows: Send() returned
};

/// What is kept of a window once its answers have been checked.
struct WindowStats {
  double p50_ms = 0;
  Tail tail;
  double drain_ms = 0;
  double late_p99_ms = 0;
  size_t failed = 0;
};

/// Runs windows through one sender, checks every answer against its
/// reference as soon as a window ends, and keeps only the summary, so
/// memory stays flat however long the run.
class Driver {
 public:
  /// `defer`: answers that differ wait for a verdict at the end of the
  /// run (refresh_churn, where a swap may legitimately change them).
  Driver(Sender* sender, Traffic* traffic, bool defer)
      : sender_(sender), traffic_(traffic), defer_(defer) {}

  /// `traced` stamps when each hand-off returned (the benchmark's span
  /// around the submit call); `keep` receives the raw window.
  WindowStats Run(double rate, double seconds, bool traced = false,
                  std::unique_ptr<Phase>* keep = nullptr);

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  size_t mismatches() const { return mismatches_; }
  double late_p99_ms() const { return late_p99_ms_; }
  /// (traffic position, answer) pairs that differed, when deferring.
  const std::vector<std::pair<size_t, Answer>>& deferred() const {
    return deferred_;
  }

 private:
  void Check(const Phase& phase);

  Sender* sender_;
  Traffic* traffic_;
  bool defer_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
  size_t mismatches_ = 0;
  double late_p99_ms_ = 0;
  std::vector<std::pair<size_t, Answer>> deferred_;
};

/// The end-to-end load plan for `seconds`: a warm-up window, then
/// `windows` alternating light/busy pairs over the rest. Adds
/// p50_ms.light and p50_ms.busy (medians over windows) to `report`,
/// with the tails and the generator's lateness as notes.
void RunLightBusy(Driver* driver, const LoadSpec& spec, double seconds,
                  Report* report);

/// The SLO grid for `seconds` (traced runs): adds max_qps_at_slo, with
/// the grid log as notes.
void RunSloGrid(Driver* driver, const LoadSpec& spec, double seconds,
                Report* report);

std::string Fmt(const char* format, double a, double b = 0, double c = 0);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
