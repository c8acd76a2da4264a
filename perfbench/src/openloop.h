// Open-loop load generation with coordinated-omission-free timing.
//
// A phase sends `count` requests on a fixed schedule: request i is due
// at start + i / rate, whatever happened to the requests before it.
// Latency is measured from the due time, not from the moment the
// generator got round to sending, so a stall anywhere (a blocking
// hand-off, a full socket buffer, a descheduled generator) is charged
// to every request due while it lasted. How late the generator itself
// ran (sent - due) is recorded per request and reported separately:
// a large lateness means the numbers describe a lower offered rate
// than the nominal one.
//
// Completions may arrive on any thread; each request must be completed
// exactly once. The phase object must outlive every completion.

#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// How one request ended.
enum class Outcome : uint8_t {
  kPending = 0,
  kOk,        ///< answered, and the answer matched its reference
  kError,     ///< the system answered with a failure
  kShed,      ///< refused at admission
  kMismatch,  ///< answered, but not with the reference answer
};

class OpenLoopPhase {
 public:
  /// `rate_qps` > 0; `count` may be 0 (the phase is then empty).
  OpenLoopPhase(double rate_qps, size_t count);

  OpenLoopPhase(const OpenLoopPhase&) = delete;
  OpenLoopPhase& operator=(const OpenLoopPhase&) = delete;

  /// Drives the schedule on the calling thread: waits for each due
  /// time, stamps the send time and calls issue(i). A request whose due
  /// time has already passed is sent at once (never skipped or
  /// re-timed). Call once.
  void Run(const std::function<void(size_t)>& issue);

  /// Records the end of request i now. Thread-safe.
  void Complete(size_t i, Outcome outcome);

  /// Blocks until every request has completed or `timeout` passes;
  /// true when all completed.
  bool WaitAll(std::chrono::milliseconds timeout) const;

  size_t count() const { return count_; }

  // ---- results; read only after WaitAll returned true ---------------

  /// done - due per request, in ms. Requests that did not end kOk are
  /// +infinity when `failures_as_misses` (they miss every latency
  /// limit) and are left out otherwise.
  std::vector<double> LatenciesMs(bool failures_as_misses) const;
  /// sent - due per request, in ms (always >= 0).
  std::vector<double> LatenessMs() const;
  /// Requests that ended with `outcome`.
  size_t CountOutcome(Outcome outcome) const;
  /// Requests that did not end kOk.
  size_t Failed() const { return count_ - CountOutcome(Outcome::kOk); }
  /// Last completion minus last due time, in ms: how long the backlog
  /// took to drain after the schedule ended.
  double DrainMs() const;
  /// Due and completion times of request i, in ns since the start.
  int64_t DueNs(size_t i) const;
  int64_t DoneNs(size_t i) const { return done_ns_[i]; }
  int64_t SentNs(size_t i) const { return sent_ns_[i]; }
  Outcome outcome(size_t i) const { return outcome_[i]; }
  /// Now, in ns since the start.
  int64_t NowNs() const;

 private:
  Clock::time_point Due(size_t i) const;

  double rate_qps_;
  size_t count_;
  Clock::time_point start_;
  std::vector<int64_t> sent_ns_;
  std::vector<int64_t> done_ns_;
  std::vector<Outcome> outcome_;
  std::atomic<size_t> completed_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
