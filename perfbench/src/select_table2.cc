// select_table2: the paper's Table 2 cell (|R_q| = 10^4, k = 1000,
// |S_q| in [3,8]) through Diversifier::SelectInto, on one thread.
//
// Requests are OptSelect selections on seeded synthetic instances
// (bench_util.h's MakeTimingInstance), sent open-loop and executed
// inline by the generator thread: a single-server queue, so a slow
// selection delays and is charged to every request due behind it.
// Around that, closed-loop timings of OptSelect, xQuAD and IASelect at
// k = 100 and k = 1000 check the paper's shape in every run: OptSelect
// must beat both baselines at the cell, and its growth from k = 100 to
// k = 1000 is reported next to theirs.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench_util.h"
#include "core/factory.h"
#include "core/streaming_select.h"
#include "load.h"
#include "openloop.h"
#include "report.h"
#include "rss.h"
#include "spans.h"
#include "stats.h"
#include "util/hash.h"
#include "util/rng.h"
#include "util/timer.h"

namespace perfbench {
namespace {

using namespace optselect;  // NOLINT(build/namespaces)

constexpr size_t kCellN = 10000;
constexpr size_t kCellK = 1000;
constexpr size_t kSmallK = 100;
constexpr size_t kInstances = 8;
/// Baselines are ~50x slower; a few instances keep the run short.
constexpr size_t kBaselineInstances = 3;
constexpr size_t kSetupRepeats = 9;
/// Rates: light ≈ 25% and busy ≈ 70% of the rate at which the single
/// selection server saturates on the reference host (~730/s, README.md);
/// the grid brackets it.
constexpr LoadSpec kLoad = {5.0, 180, 510, 8, 560, 1.06, 10, 2};

struct Instances {
  std::vector<bench::TimingInstance> problems;
  /// Views gather relevance/probability into their own scratch.
  std::vector<std::unique_ptr<core::SelectScratch>> view_scratch;
  std::vector<core::DiversificationView> views;
};

Instances MakeInstances(uint64_t seed) {
  Instances out;
  util::Rng rng(seed * 0x9E3779B97F4A7C15ull + 2011);
  for (size_t q = 0; q < kInstances; ++q) {
    size_t m = 3 + rng.Uniform(6);
    out.problems.push_back(bench::MakeTimingInstance(&rng, kCellN, m));
  }
  for (const bench::TimingInstance& ti : out.problems) {
    out.view_scratch.push_back(std::make_unique<core::SelectScratch>());
    out.views.push_back(core::MakeView(ti.input, ti.utilities,
                                       out.view_scratch.back().get()));
  }
  return out;
}

uint64_t PicksHash(const std::vector<size_t>& picks) {
  return util::Fnv1a64(picks.data(), picks.size() * sizeof(size_t));
}

bool DistinctValid(const std::vector<size_t>& picks, size_t n, size_t k) {
  std::unordered_set<size_t> seen;
  for (size_t p : picks) {
    if (p >= n || !seen.insert(p).second) return false;
  }
  return picks.size() == std::min(n, k);
}

/// Mean ms per SelectInto over the first `count` instances, repeated
/// until at least `min_ms` has passed.
double TimeSelect(const core::Diversifier& algo, const Instances& in,
                  size_t count, size_t k, double min_ms,
                  std::vector<std::vector<size_t>>* picks) {
  core::DiversifyParams params;
  params.k = k;
  core::SelectScratch scratch;
  picks->assign(count, {});
  size_t calls = 0;
  util::WallTimer timer;
  do {
    for (size_t q = 0; q < count; ++q) {
      algo.SelectInto(in.views[q], params, &scratch, &(*picks)[q]);
      ++calls;
    }
  } while (timer.ElapsedMillis() < min_ms);
  return timer.ElapsedMillis() / static_cast<double>(calls);
}

/// The selection "server": the generator thread runs OptSelect inline
/// on the instance a request names, so the next request waits for it —
/// a single-server queue timed from each request's due time.
class SelectSender : public Sender {
 public:
  SelectSender(const core::Diversifier* algo, const Instances* in,
               SpanLog* spans)
      : algo_(algo), in_(in), spans_(spans) {
    params_.k = kCellK;
  }

  void Send(size_t i, const std::string& query) override {
    const core::DiversificationView& view = in_->views[InstanceOf(query)];
    if (spans_ != nullptr) {
      ScopedSpan s(spans_, "core.select", -1, i);
      algo_->SelectInto(view, params_, &scratch_, &picks_);
    } else {
      algo_->SelectInto(view, params_, &scratch_, &picks_);
    }
    (*answers_.load(std::memory_order_acquire))[i].hash = PicksHash(picks_);
    phase_.load(std::memory_order_acquire)->Complete(i, Outcome::kOk);
  }

  /// Traced windows record a span around every selection.
  void set_spans(SpanLog* spans) { spans_ = spans; }

  static std::string Name(size_t q) { return "instance-" + std::to_string(q); }
  static size_t InstanceOf(const std::string& name) {
    return static_cast<size_t>(std::stoul(name.substr(9)));
  }

 private:
  const core::Diversifier* algo_;
  const Instances* in_;
  SpanLog* spans_;
  core::DiversifyParams params_;
  core::SelectScratch scratch_;
  std::vector<size_t> picks_;
};

}  // namespace

Report RunSelectTable2(const RunArgs& args) {
  Report report;
  const double S = args.seconds;

  auto optselect = std::move(core::MakeDiversifier("optselect")).value();
  auto xquad = std::move(core::MakeDiversifier("xquad")).value();
  auto iaselect = std::move(core::MakeDiversifier("iaselect")).value();
  core::StreamingDiversifier streaming;

  // Set-up, timed several times: draw the instances, build their views,
  // and compute the reference answers, where OptSelect must equal
  // StreamingDiversifier on each view.
  std::vector<double> setup_s;
  Instances in;
  std::vector<uint64_t> reference(kInstances);
  size_t differ = 0, invalid = 0;
  for (size_t r = 0; r < kSetupRepeats; ++r) {
    in = Instances();
    util::WallTimer timer;
    in = MakeInstances(args.seed);
    core::DiversifyParams params;
    params.k = kCellK;
    core::SelectScratch scratch;
    std::vector<size_t> a, b;
    for (size_t q = 0; q < kInstances; ++q) {
      optselect->SelectInto(in.views[q], params, &scratch, &a);
      streaming.SelectInto(in.views[q], params, &scratch, &b);
      differ += a != b ? 1 : 0;
      invalid += DistinctValid(a, kCellN, kCellK) ? 0 : 1;
      reference[q] = PicksHash(b);
    }
    setup_s.push_back(timer.ElapsedMillis() / 1e3);
  }
  if (differ != 0) report.Fail("OptSelect differs from StreamingDiversifier");
  if (invalid != 0) {
    report.Fail("OptSelect picks are not k distinct valid indices");
  }

  // Table 2 shape at the cell, closed loop: every run checks it.
  struct AlgoTime {
    const char* name;
    const core::Diversifier* algo;
    size_t instances;
    double ms_small = 0, ms_cell = 0;
  };
  AlgoTime algos[] = {{"optselect", optselect.get(), kInstances},
                      {"xquad", xquad.get(), kBaselineInstances},
                      {"iaselect", iaselect.get(), kBaselineInstances}};
  const double min_ms = args.trace ? 300 : 100;
  for (AlgoTime& a : algos) {
    std::vector<std::vector<size_t>> picks;
    a.ms_small = TimeSelect(*a.algo, in, a.instances, kSmallK, min_ms, &picks);
    a.ms_cell = TimeSelect(*a.algo, in, a.instances, kCellK, min_ms, &picks);
    for (const auto& p : picks) {
      if (!DistinctValid(p, kCellN, kCellK)) {
        report.Fail(std::string(a.name) +
                    " picks are not k distinct valid indices");
      }
    }
    report.notes.push_back(std::string(a.name) +
                           Fmt(": %.3f ms at k=100, %.3f ms at k=1000",
                               a.ms_small, a.ms_cell));
  }
  if (!(algos[0].ms_cell < algos[1].ms_cell &&
        algos[0].ms_cell < algos[2].ms_cell)) {
    report.Fail("Table 2 shape: OptSelect is not the fastest at the cell");
  }

  // Open loop over the instances in a seeded order.
  Traffic traffic;
  {
    util::Rng rng(args.seed * 0x9E3779B97F4A7C15ull + 3);
    for (size_t q = 0; q < kInstances; ++q) {
      traffic.reference[SelectSender::Name(q)] = reference[q];
    }
    for (size_t i = 0; i < 4096; ++i) {
      traffic.queries.push_back(SelectSender::Name(rng.Uniform(kInstances)));
    }
  }
  SelectSender sender(optselect.get(), &in, nullptr);
  Driver driver(&sender, &traffic, false);
  if (!args.trace) {
    report.Add("setup_s", Median(setup_s), "s",
               Fmt("median of %.0f builds of the instances and references",
                   static_cast<double>(kSetupRepeats)));
    RunLightBusy(&driver, kLoad, S, &report);
    report.Add("rss_mib", PeakRssMiB(), "MiB", "VmHWM");
  } else {
    SpanLog spans;
    driver.Run(kLoad.light_qps, 0.05 * S);  // warm-up
    WindowStats plain = driver.Run(kLoad.light_qps, 0.15 * S);
    sender.set_spans(&spans);
    WindowStats traced = driver.Run(kLoad.light_qps, 0.15 * S);
    sender.set_spans(nullptr);
    WindowStats busy = driver.Run(kLoad.busy_qps, 0.15 * S);
    RunSloGrid(&driver, kLoad, 0.5 * S, &report);
    report.Add("trace.overhead_pct",
               100.0 * (traced.p50_ms - plain.p50_ms) / plain.p50_ms, "%",
               Fmt("light p50 traced %.4f vs untraced %.4f ms", traced.p50_ms,
                   plain.p50_ms));
    report.Add("openloop.tail_ms.light", plain.tail.value, "ms",
               Fmt("p%.4g of %.0f at the light rate", plain.tail.percentile,
                   static_cast<double>(plain.tail.samples)));
    report.Add("openloop.tail_ms.busy", busy.tail.value, "ms",
               Fmt("p%.4g of %.0f at the busy rate", busy.tail.percentile,
                   static_cast<double>(busy.tail.samples)));
    report.Add("loadgen.late_p99_ms", driver.late_p99_ms(), "ms",
               "worst window; inline service, so this is queueing delay");
    for (const AlgoTime& a : algos) {
      std::string name = a.name;
      report.Add("core.select_us." + name, a.ms_cell * 1e3, "us",
                 "SelectInto at |R|=10^4, k=1000");
      report.Add("core.k_growth." + name, a.ms_cell / a.ms_small, "ratio",
                 "time(k=1000) / time(k=100)");
      report.Add("selections_per_s." + name, 1e3 / a.ms_cell, "1/s",
                 "closed loop, one thread");
    }
    if (!spans.WriteJsonLines(args.work_dir + "/spans_select.jsonl")) {
      report.Fail("cannot write spans");
    }
  }
  report.attempted = driver.attempted();
  report.failed = driver.failed() + driver.mismatches();
  if (driver.mismatches() != 0) {
    report.Fail(std::to_string(driver.mismatches()) +
                " selections differ from the streaming reference");
  }
  return report;
}

}  // namespace perfbench
