// Order statistics for the benchmark's reports.
//
// Every timing is reported as a median plus the highest percentile the
// sample supports: the tail rule picks the highest rung of a fixed
// ladder (99, 95, 90, 75, 50) that leaves at least ten samples
// strictly beyond it, and the report carries the sample count so a
// reader can see which rung was reachable.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie beyond a percentile for it to be reported.
inline constexpr size_t kTailSamplesBeyond = 10;

/// Nearest-rank quantile (q in [0, 1]) of an ascending-sorted sample;
/// 0 for an empty one. Infinite entries (failed requests) sort last.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (nearest rank); 0 when empty.
double Median(std::vector<double> values);

/// Arithmetic mean; 0 when empty.
double Mean(const std::vector<double>& values);

/// Least-squares non-decreasing fit of `values` (pool adjacent
/// violators): each run of points that decreases is replaced by its
/// mean. Infinite values stay infinite.
std::vector<double> IsotonicFit(const std::vector<double>& values);

/// The reportable tail of one sample.
struct Tail {
  double percentile = 0.0;  ///< ladder rung chosen, e.g. 99.0
  double value = 0.0;       ///< the sample's value at that rung
  size_t samples = 0;       ///< sample size the rung was chosen for
};

/// Highest ladder percentile with at least kTailSamplesBeyond samples
/// strictly beyond its nearest rank. Falls back to the median (rung 50)
/// when even that leaves fewer than ten beyond.
Tail TailOf(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
