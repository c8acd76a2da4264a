// perfbench: the serving benchmark of the OptSelect reproduction.
//
//   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// Runs one workload (or all five, in this one process) and prints every
// metric by name with its unit and detail, then, as the last line of
// standard output, one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1
// the per-layer ones. Exits 1 when any answer was wrong or any request
// failed, 2 on bad arguments or a broken set-up. perfbench/README.md
// documents the workloads and metrics.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "report.h"
#include "serving_env.h"

namespace perfbench {
namespace {

const char* const kWorkloads[] = {"serve_mix", "cold_stream", "wire_cached",
                                  "refresh_churn", "select_table2"};

/// A contract metric: name and unit, as BENCHMARK.json lists them.
struct Named {
  const char* name;
  const char* unit;
};

/// BENCHMARK.json's end_to_end list.
const Named kEndToEnd[] = {
    {"setup_s", "s"},
    {"rss_mib", "MiB"},
    {"p50_ms.light", "ms"},
    {"p50_ms.busy", "ms"},
};

/// BENCHMARK.json's per_layer list. A layer a workload does not pass
/// through reads 0.
const Named kPerLayer[] = {
    {"max_qps_at_slo", "1/s"},
    {"serving.service_us", "us"},
    {"serving.dispatch_us", "us"},
    {"serving.handoff_us", "us"},
    {"serving.queue_wait_ms", "ms"},
    {"serving.mean_batch", "requests"},
    {"serving.dedup_ratio", "ratio"},
    {"serving.cache_hit_ratio", "ratio"},
    {"serving.plan_ratio", "ratio"},
    {"serving.stream_ratio", "ratio"},
    {"serving.passthrough_ratio", "ratio"},
    {"serving.reload_swap_us", "us"},
    {"serving.cache_invalidated", "count"},
    {"store.build_s", "s"},
    {"store.map_ms", "ms"},
    {"store.mib", "MiB"},
    {"store.find_ns", "ns"},
    {"store.mine_delta_ms", "ms"},
    {"store.build_snapshot_ms", "ms"},
    {"querylog.poll_ms", "ms"},
    {"recommend.train_ms", "ms"},
    {"refresh.tick_ms", "ms"},
    {"text.analyze_us", "us"},
    {"index.search_us", "us"},
    {"pipeline.build_candidates_us", "us"},
    {"pipeline.surrogate_us", "us"},
    {"pipeline.utility_row_us", "us"},
    {"core.utility_us", "us"},
    {"core.stream_prune_ratio", "ratio"},
    {"core.plan_select_us", "us"},
    {"core.select_us.optselect", "us"},
    {"core.select_us.xquad", "us"},
    {"core.select_us.iaselect", "us"},
    {"core.k_growth.optselect", "ratio"},
    {"core.k_growth.xquad", "ratio"},
    {"core.k_growth.iaselect", "ratio"},
    {"selections_per_s.optselect", "1/s"},
    {"selections_per_s.xquad", "1/s"},
    {"selections_per_s.iaselect", "1/s"},
    {"net.encode_ns", "ns"},
    {"net.decode_ns", "ns"},
    {"net.rtt_us", "us"},
    {"net.bytes_per_req", "bytes"},
    {"net.shed", "count"},
    {"net.protocol_errors", "count"},
    {"openloop.tail_ms.light", "ms"},
    {"openloop.tail_ms.busy", "ms"},
    {"loadgen.late_p99_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME|all --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\n",
               why);
  return 2;
}

bool IsWorkload(const std::string& name) {
  for (const char* w : kWorkloads) {
    if (name == w) return true;
  }
  return false;
}

/// Orders the report's metrics as the contract lists them; per-layer
/// names the workload did not report read 0 (an end-to-end metric
/// missing is a bug). False on a missing, unknown or mis-unit metric.
bool Conform(bool trace, Report* report) {
  std::vector<Metric> ordered;
  std::set<std::string> used;
  bool ok = true;
  const Named* first = trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const Named* last = trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const Named* n = first; n != last; ++n) {
    const Named& named = *n;
    auto it = std::find_if(report->metrics.begin(), report->metrics.end(),
                           [&](const Metric& m) { return m.name == named.name; });
    if (it == report->metrics.end()) {
      if (!trace) {
        std::fprintf(stderr, "perfbench: metric %s missing\n", named.name);
        ok = false;
      }
      ordered.push_back(
          Metric{named.name, 0.0, named.unit, "not on this workload's path"});
      continue;
    }
    if (it->unit != named.unit) {
      std::fprintf(stderr, "perfbench: metric %s in %s, contract says %s\n",
                   named.name, it->unit.c_str(), named.unit);
      ok = false;
    }
    ordered.push_back(*it);
    used.insert(it->name);
  }
  for (const Metric& m : report->metrics) {
    if (used.count(m.name) == 0) {
      std::fprintf(stderr, "perfbench: unexpected metric %s\n",
                   m.name.c_str());
      ok = false;
    }
  }
  report->metrics = std::move(ordered);
  return ok;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    out += i == 0 ? "" : ", ";
    out += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}}";
}

void Print(const std::string& workload, const Report& report) {
  std::printf("== %s ==\n", workload.c_str());
  for (const std::string& note : report.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& m : report.metrics) {
    std::printf("  %-30s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.detail.c_str());
  }
  double ratio = report.attempted == 0
                     ? 0.0
                     : static_cast<double>(report.failed) /
                           static_cast<double>(report.attempted);
  std::printf("  %-30s %14.6g %-8s %llu of %llu requests\n", "fail_ratio",
              ratio, "ratio", static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("  correct: %s\n", report.correct ? "yes" : "NO");
}

Report RunOne(const RunArgs& args) {
  Report report = args.workload == "select_table2" ? RunSelectTable2(args)
                                                   : RunServingWorkload(args);
  if (!Conform(args.trace, &report)) {
    Die("metric names do not match the contract (a benchmark bug)");
  }
  if (report.attempted == 0) report.Fail("no requests attempted");
  return report;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;  // NOLINT(build/namespaces)
  RunArgs args;
  args.work_dir = ".bench_build/perfbench-work";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' &&
                     args.seconds >= 1 && args.seconds <= 600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  ::mkdir(args.work_dir.c_str(), 0755);

  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (1..600) and --trace are required");
  }

  std::vector<std::string> workloads;
  if (args.workload == "all") {
    workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else if (IsWorkload(args.workload)) {
    workloads.push_back(args.workload);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  bool all_correct = true;
  std::string combined = "{";
  std::string last;
  for (const std::string& w : workloads) {
    RunArgs one = args;
    one.workload = w;
    Report report = RunOne(one);
    Print(w, report);
    all_correct = all_correct && report.correct;
    last = ResultJson(report);
    combined += (combined.size() > 1 ? ", \"" : "\"") + w + "\": " + last;
    std::fflush(stdout);
  }
  std::printf("%s\n", workloads.size() == 1 ? last.c_str()
                                            : (combined + "}").c_str());
  return all_correct ? 0 : 1;
}
