#include "load.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "serving_env.h"

namespace perfbench {
namespace {

constexpr std::chrono::milliseconds kDrainTimeout{60000};

/// Median of one statistic over windows.
template <typename F>
double MedianOver(const std::vector<WindowStats>& windows, F f) {
  std::vector<double> v;
  for (const WindowStats& w : windows) v.push_back(f(w));
  return Median(v);
}

double TailValue(const WindowStats& w) { return w.tail.value; }
double P50Value(const WindowStats& w) { return w.p50_ms; }

struct GridResult {
  double max_qps = 0;
  std::vector<std::string> log;
};

/// Climbs the fixed geometric grid. A step is `grid_windows` windows
/// whose medians give the step's tail and backlog drain time; a failed
/// request makes the step's tail infinite. The tails, as a function of
/// rate, are fitted non-decreasing in log space (pooled adjacent
/// violators), so one disturbed step neither cuts nor inflates the
/// answer. The answer is the rate where the fit crosses the limit,
/// interpolated in log tail between the grid rates around the crossing.
/// The climb stops after two misses in a row: higher rates only deepen
/// the backlog.
GridResult SearchSlo(Driver* driver, const LoadSpec& spec, double budget_s) {
  GridResult result;
  const double window_s =
      budget_s / static_cast<double>(spec.grid_steps * spec.grid_windows);
  std::vector<double> rates, log_tails;
  double rate = spec.grid_start_qps;
  size_t misses_in_row = 0;
  for (size_t step = 0; step < spec.grid_steps && misses_in_row < 2; ++step) {
    std::vector<WindowStats> ws;
    size_t failed = 0;
    for (size_t w = 0; w < spec.grid_windows; ++w) {
      ws.push_back(driver->Run(rate, window_s));
      failed += ws.back().failed;
    }
    double tail = MedianOver(ws, TailValue);
    double drain = MedianOver(ws, [](const WindowStats& w) {
      return w.drain_ms;
    });
    double effective = failed == 0 ? std::max(tail, drain) : INFINITY;
    bool ok = effective <= spec.slo_ms;
    misses_in_row = ok ? 0 : misses_in_row + 1;
    char line[200];
    std::snprintf(line, sizeof(line),
                  "  grid %8.1f qps: median p%.4g %.3f ms (%zu windows of "
                  "%zu), drain %.3f ms, failed %zu -> %s",
                  rate, ws[0].tail.percentile, tail, spec.grid_windows,
                  ws[0].tail.samples, drain, failed, ok ? "pass" : "miss");
    result.log.push_back(line);
    rates.push_back(rate);
    log_tails.push_back(std::log(std::max(effective, 1e-6)));
    rate *= spec.grid_ratio;
  }
  std::vector<double> fit = IsotonicFit(log_tails);
  const double limit = std::log(spec.slo_ms);
  size_t cross = 0;
  while (cross < fit.size() && fit[cross] <= limit) ++cross;
  if (cross == fit.size()) {
    result.max_qps = rates.back();
    result.log.push_back("  every grid rate met the limit: a floor");
  } else if (cross == 0) {
    result.max_qps = rates[0] * std::min(1.0, std::exp(limit - fit[0]));
    result.log.push_back("  the first grid rate already misses the limit");
  } else if (!std::isfinite(fit[cross])) {
    result.max_qps = rates[cross - 1];
  } else {
    double frac = (limit - fit[cross - 1]) / (fit[cross] - fit[cross - 1]);
    result.max_qps = rates[cross - 1] + frac * (rates[cross] - rates[cross - 1]);
  }
  return result;
}

}  // namespace

std::string Fmt(const char* format, double a, double b, double c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

WindowStats Driver::Run(double rate, double seconds, bool traced,
                        std::unique_ptr<Phase>* keep) {
  auto phase = std::make_unique<Phase>();
  size_t count = static_cast<size_t>(std::llround(rate * seconds));
  phase->loop = std::make_unique<OpenLoopPhase>(rate, count);
  phase->pos.resize(count);
  for (size_t i = 0; i < count; ++i) phase->pos[i] = traffic_->Next();
  phase->answers.resize(count);
  if (traced) phase->handoff_end_ns.resize(count);
  sender_->Begin(phase->loop.get(), &phase->answers);
  Phase* p = phase.get();
  p->loop->Run([&](size_t i) {
    sender_->Send(i, traffic_->queries[p->pos[i]]);
    if (traced) p->handoff_end_ns[i] = p->loop->NowNs();
  });
  if (!p->loop->WaitAll(kDrainTimeout)) {
    Die("requests still unanswered " +
        std::to_string(kDrainTimeout.count()) + " ms after the schedule");
  }
  Check(*p);
  WindowStats w;
  std::vector<double> latencies = p->loop->LatenciesMs(true);
  w.p50_ms = Median(latencies);
  w.tail = TailOf(std::move(latencies));
  w.drain_ms = p->loop->DrainMs();
  w.late_p99_ms = TailOf(p->loop->LatenessMs()).value;
  w.failed = p->loop->Failed();
  attempted_ += count;
  failed_ += w.failed;
  late_p99_ms_ = std::max(late_p99_ms_, w.late_p99_ms);
  if (keep != nullptr) *keep = std::move(phase);
  return w;
}

void Driver::Check(const Phase& phase) {
  for (size_t i = 0; i < phase.loop->count(); ++i) {
    if (phase.loop->outcome(i) != Outcome::kOk) continue;
    const std::string& query = traffic_->queries[phase.pos[i]];
    if (phase.answers[i].hash == traffic_->reference.at(query)) continue;
    if (defer_) {
      deferred_.emplace_back(phase.pos[i], phase.answers[i]);
    } else {
      ++mismatches_;
    }
  }
}

void RunLightBusy(Driver* driver, const LoadSpec& spec, double seconds,
                  Report* report) {
  driver->Run(spec.light_qps, 0.05 * seconds);  // warm-up, not reported
  std::vector<WindowStats> light, busy;
  const double window_s = 0.95 * seconds / (2.0 * spec.windows);
  for (size_t w = 0; w < spec.windows; ++w) {
    light.push_back(driver->Run(spec.light_qps, window_s));
    busy.push_back(driver->Run(spec.busy_qps, window_s));
  }
  auto detail = [&](const std::vector<WindowStats>& ws, double rate) {
    return Fmt("median of %.0f windows at %.0f qps, ",
               static_cast<double>(ws.size()), rate) +
           Fmt("n=%.0f each", static_cast<double>(ws[0].tail.samples));
  };
  report->Add("p50_ms.light", MedianOver(light, P50Value), "ms",
              detail(light, spec.light_qps));
  report->Add("p50_ms.busy", MedianOver(busy, P50Value), "ms",
              detail(busy, spec.busy_qps));
  // Tails are printed here and recorded by the traced run, not gated:
  // on a shared host a p99 does not repeat within BENCHMARK.json's
  // bounds (README.md).
  report->notes.push_back(
      Fmt("tail_ms.light %.4f ms (median window p%.4g of %.0f)",
          MedianOver(light, TailValue), light[0].tail.percentile,
          static_cast<double>(light[0].tail.samples)));
  report->notes.push_back(
      Fmt("tail_ms.busy  %.4f ms (median window p%.4g of %.0f)",
          MedianOver(busy, TailValue), busy[0].tail.percentile,
          static_cast<double>(busy[0].tail.samples)));
  report->notes.push_back(Fmt("generator lateness: worst window p99 %.3f ms",
                              driver->late_p99_ms()));
}

void RunSloGrid(Driver* driver, const LoadSpec& spec, double seconds,
                Report* report) {
  GridResult grid = SearchSlo(driver, spec, seconds);
  report->Add("max_qps_at_slo", grid.max_qps, "1/s",
              Fmt("median window tail <= %.4g ms", spec.slo_ms) +
                  Fmt(", %.0f-step grid from %.0f qps",
                      static_cast<double>(spec.grid_steps),
                      spec.grid_start_qps));
  for (const std::string& line : grid.log) report->notes.push_back(line);
}

}  // namespace perfbench
