// What one benchmark run hands back to main: correctness counters, the
// named metrics, and human-readable notes printed before the result.

#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  ///< sample count, percentile rung, base of a ratio
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< errors + shed + wrong answers
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit,
           std::string detail = "") {
    metrics.push_back(
        Metric{std::move(name), value, std::move(unit), std::move(detail)});
  }
  /// Marks the run incorrect with a reason printed on stderr by main.
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back("FAIL: " + why);
  }
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch files and the span dump go here
};

/// The four serving workloads (serve_mix, cold_stream, wire_cached,
/// refresh_churn).
Report RunServingWorkload(const RunArgs& args);
/// Paper Table 2 cell through Diversifier::SelectInto.
Report RunSelectTable2(const RunArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
