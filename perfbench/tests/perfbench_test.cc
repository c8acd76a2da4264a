// Tests for the benchmark's own machinery: the open-loop schedule and
// its stall accounting, the tail-percentile rule, the peak-RSS reader,
// and span self times.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
//
// (or `python3 perfbench/run.py --selftest`).

#include <chrono>
#include <cmath>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "openloop.h"
#include "rss.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

using std::chrono::milliseconds;

// ------------------------------------------------------------ schedule

TEST(OpenLoopTest, DueTimesFollowTheFixedRate) {
  OpenLoopPhase phase(2000.0, 5);
  phase.Run([&](size_t i) { phase.Complete(i, Outcome::kOk); });
  ASSERT_TRUE(phase.WaitAll(milliseconds(1000)));
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(phase.DueNs(i), static_cast<int64_t>(i) * 500000);
    EXPECT_GE(phase.SentNs(i), phase.DueNs(i));
  }
}

TEST(OpenLoopTest, StalledRequestIsChargedToEveryRequestDueBehindIt) {
  // 1000 requests/s served inline by the generator thread; request 5
  // stalls 30 ms. Requests 6..34 were due during the stall: each must be
  // sent late and its latency, timed from its due time, must include
  // the rest of the stall. Nothing is skipped or re-timed.
  constexpr size_t kStalled = 5;
  constexpr int64_t kStallMs = 30;
  OpenLoopPhase phase(1000.0, 60);
  phase.Run([&](size_t i) {
    if (i == kStalled) std::this_thread::sleep_for(milliseconds(kStallMs));
    phase.Complete(i, Outcome::kOk);
  });
  ASSERT_TRUE(phase.WaitAll(milliseconds(1000)));
  std::vector<double> latency = phase.LatenciesMs(false);
  std::vector<double> late = phase.LatenessMs();
  ASSERT_EQ(latency.size(), 60u);
  EXPECT_GE(latency[kStalled], kStallMs);
  for (size_t j = kStalled + 1; j < kStalled + kStallMs; ++j) {
    double owed = static_cast<double>(kStallMs) -
                  static_cast<double>(j - kStalled);  // ms of stall left
    EXPECT_GE(late[j], owed - 0.5) << "request " << j;
    EXPECT_GE(latency[j], owed - 0.5) << "request " << j;
  }
  // The generator catches up: the last request is on time again.
  EXPECT_LT(late[59], 5.0);
}

TEST(OpenLoopTest, LatenessAccumulatesWhenServiceOutrunsTheRate) {
  // Each inline request takes ~2 ms at 1000/s: the generator falls
  // behind by about 1 ms per request, and lateness records exactly
  // that backlog while latency adds the service time on top.
  OpenLoopPhase phase(1000.0, 20);
  phase.Run([&](size_t i) {
    std::this_thread::sleep_for(milliseconds(2));
    phase.Complete(i, Outcome::kOk);
  });
  ASSERT_TRUE(phase.WaitAll(milliseconds(1000)));
  std::vector<double> late = phase.LatenessMs();
  std::vector<double> latency = phase.LatenciesMs(false);
  EXPECT_LT(late[0], 1.0);
  for (size_t i = 1; i < 20; ++i) {
    EXPECT_GE(late[i], 0.9 * static_cast<double>(i)) << "request " << i;
    EXPECT_GE(latency[i], late[i] + 1.9) << "request " << i;
  }
}

TEST(OpenLoopTest, CompletionsFromOtherThreadsAndFailuresAsMisses) {
  OpenLoopPhase phase(5000.0, 50);
  std::vector<std::thread> completers;
  phase.Run([&](size_t i) {
    completers.emplace_back([&phase, i] {
      phase.Complete(i, i % 10 == 0 ? Outcome::kShed : Outcome::kOk);
    });
  });
  for (std::thread& t : completers) t.join();
  ASSERT_TRUE(phase.WaitAll(milliseconds(1000)));
  EXPECT_EQ(phase.CountOutcome(Outcome::kShed), 5u);
  EXPECT_EQ(phase.Failed(), 5u);
  std::vector<double> with_misses = phase.LatenciesMs(true);
  ASSERT_EQ(with_misses.size(), 50u);
  EXPECT_TRUE(std::isinf(with_misses[0]));
  EXPECT_EQ(phase.LatenciesMs(false).size(), 45u);
}

TEST(OpenLoopTest, WaitAllTimesOutOnAMissingCompletion) {
  OpenLoopPhase phase(1000.0, 3);
  phase.Run([&](size_t i) {
    if (i != 1) phase.Complete(i, Outcome::kOk);
  });
  EXPECT_FALSE(phase.WaitAll(milliseconds(20)));
  phase.Complete(1, Outcome::kError);
  EXPECT_TRUE(phase.WaitAll(milliseconds(20)));
}

// ----------------------------------------------------------- percentiles

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(TailTest, HighestRungWithTenSamplesBeyond) {
  // 1000 samples: p99 is rank 990, exactly ten beyond it.
  Tail t = TailOf(OneTo(1000));
  EXPECT_EQ(t.percentile, 99.0);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(t.samples, 1000u);
  // 999 samples leave nine beyond p99: drop to p95.
  t = TailOf(OneTo(999));
  EXPECT_EQ(t.percentile, 95.0);
  EXPECT_EQ(t.value, 950.0);
  // 100 samples: p95 has five beyond, p90 has ten.
  t = TailOf(OneTo(100));
  EXPECT_EQ(t.percentile, 90.0);
  EXPECT_EQ(t.value, 90.0);
  EXPECT_EQ(t.samples, 100u);
}

TEST(TailTest, TinySamplesFallBackToTheMedian) {
  Tail t = TailOf(OneTo(19));
  EXPECT_EQ(t.percentile, 50.0);
  EXPECT_EQ(t.value, 10.0);
  EXPECT_EQ(TailOf({}).samples, 0u);
  EXPECT_EQ(TailOf({}).value, 0.0);
}

TEST(TailTest, FailuresSortLastAndCountAsMisses) {
  std::vector<double> v = OneTo(1000);
  for (size_t i = 0; i < 11; ++i) v[i] = INFINITY;
  EXPECT_TRUE(std::isinf(TailOf(v).value));
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Mean({1, 2, 3, 6}), 3.0);
}

TEST(IsotonicTest, PoolsAdjacentViolators) {
  EXPECT_EQ(IsotonicFit({1, 2, 3}), (std::vector<double>{1, 2, 3}));
  EXPECT_EQ(IsotonicFit({1, 3, 2, 4}), (std::vector<double>{1, 2.5, 2.5, 4}));
  EXPECT_EQ(IsotonicFit({5, 1, 0}), (std::vector<double>{2, 2, 2}));
  std::vector<double> inf = IsotonicFit({1, INFINITY, 2});
  EXPECT_EQ(inf[0], 1);
  EXPECT_TRUE(std::isinf(inf[1]) && std::isinf(inf[2]));
  EXPECT_TRUE(IsotonicFit({}).empty());
}

// ------------------------------------------------------------------- rss

TEST(RssTest, ParsesVmHwm) {
  uint64_t kib = 0;
  EXPECT_TRUE(ParsePeakRssKiB(
      "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t   12345 kB\n"
      "VmRSS:\t  100 kB\n",
      &kib));
  EXPECT_EQ(kib, 12345u);
}

TEST(RssTest, RejectsMissingOrMalformedLines) {
  uint64_t kib = 7;
  EXPECT_FALSE(ParsePeakRssKiB("VmRSS:\t100 kB\n", &kib));
  EXPECT_FALSE(ParsePeakRssKiB("VmHWM:\t kB\n", &kib));
  EXPECT_FALSE(ParsePeakRssKiB("VmHWM:\t12 MB\n", &kib));
  EXPECT_FALSE(ParsePeakRssKiB("VmHWM:\t99999999999999999999999 kB\n", &kib));
  EXPECT_EQ(kib, 7u);
}

TEST(RssTest, ReadsThisProcess) {
  std::vector<char> touched(32 << 20, 1);  // 32 MiB resident at least once
  EXPECT_GE(PeakRssMiB(), 32.0);
  EXPECT_EQ(touched[12345], 1);
}

// ----------------------------------------------------------------- spans

TEST(SpanTest, SelfTimeSubtractsTheUnionOfChildren) {
  SpanLog log;
  int64_t root = log.Add("request", 0, 100, -1, 1);
  log.Add("a", 10, 30, root, 1);
  log.Add("b", 20, 50, root, 1);  // overlaps a: covered once
  int64_t c = log.Add("c", 60, 70, root, 1);
  log.Add("c.child", 62, 66, c, 1);
  log.Add("outside", 90, 120, root, 1);  // clipped to the parent
  std::vector<int64_t> self = log.SelfTimesNs();
  EXPECT_EQ(self[0], 100 - 40 - 10 - 10);
  EXPECT_EQ(self[3], 10 - 4);
  EXPECT_EQ(log.SelfByName()["c.child"].self_ns, 4);
}

TEST(SpanTest, ScopedSpansNestOnTheRecordingThread) {
  SpanLog log;
  {
    ScopedSpan outer(&log, "outer", -1, 7);
    ScopedSpan inner(&log, "inner", outer.id(), 7);
  }
  ASSERT_EQ(log.spans().size(), 2u);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_GE(log.spans()[1].start_ns, log.spans()[0].start_ns);
  EXPECT_LE(log.spans()[1].end_ns, log.spans()[0].end_ns);
  EXPECT_EQ(log.spans()[0].request, 7u);
}

}  // namespace
}  // namespace perfbench
