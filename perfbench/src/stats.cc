#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {
namespace {

/// 1-based nearest rank of quantile q in a sample of n (n > 0).
size_t NearestRank(size_t n, double q) {
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

}  // namespace

double QuantileSorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  return sorted[NearestRank(sorted.size(), q) - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return QuantileSorted(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::vector<double> IsotonicFit(const std::vector<double>& values) {
  // Blocks of (sum, count), merged while a block's mean falls below
  // its predecessor's.
  std::vector<std::pair<double, size_t>> blocks;
  for (double v : values) {
    blocks.emplace_back(v, 1);
    while (blocks.size() > 1) {
      auto& [s1, n1] = blocks[blocks.size() - 2];
      auto& [s2, n2] = blocks.back();
      if (s1 / static_cast<double>(n1) <= s2 / static_cast<double>(n2)) break;
      s1 += s2;
      n1 += n2;
      blocks.pop_back();
    }
  }
  std::vector<double> fit;
  for (const auto& [sum, n] : blocks) {
    fit.insert(fit.end(), n, sum / static_cast<double>(n));
  }
  return fit;
}

Tail TailOf(std::vector<double> values) {
  static constexpr double kLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};
  std::sort(values.begin(), values.end());
  Tail tail;
  tail.samples = values.size();
  tail.percentile = 50.0;
  for (double p : kLadder) {
    if (values.empty()) break;
    size_t rank = NearestRank(values.size(), p / 100.0);
    if (values.size() - rank >= kTailSamplesBeyond) {
      tail.percentile = p;
      break;
    }
  }
  tail.value = QuantileSorted(values, tail.percentile / 100.0);
  return tail;
}

}  // namespace perfbench
