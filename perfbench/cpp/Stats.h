//===-- perfbench/cpp/Stats.h - Percentiles over raw samples ----*- C++ -*-===//
//
// Part of the Multiprocessor Smalltalk reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Order statistics for the benchmark's raw samples. Percentiles use the
/// nearest-rank definition, so "samples beyond p" is exact: with N samples
/// the p-th percentile is the ceil(p/100 * N)-th smallest and N minus that
/// rank samples lie beyond it. A tail percentile is only reported when at
/// least ten samples lie beyond it (resolvablePercentile).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// 1-based nearest rank of percentile \p P (0 < P <= 100) among \p N
/// samples.
inline size_t percentileRank(size_t N, double P) {
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N - 1e-9));
  return std::clamp<size_t>(Rank, 1, N);
}

/// Nearest-rank percentile of \p V; 0 when empty.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  size_t K = percentileRank(V.size(), P) - 1;
  std::nth_element(V.begin(), V.begin() + K, V.end());
  return V[K];
}

inline double median(std::vector<double> V) { return percentile(V, 50.0); }

/// The highest percentile of the ladder 50, 90, 95, 99, 99.9 that has at
/// least \p MinBeyond of \p N samples beyond it, or 0 when even the median
/// has fewer.
inline double resolvablePercentile(size_t N, size_t MinBeyond = 10) {
  double Best = 0.0;
  for (double P : {50.0, 90.0, 95.0, 99.0, 99.9})
    if (N > 0 && N - percentileRank(N, P) >= MinBeyond)
      Best = P;
  return Best;
}

/// True when percentile \p P of \p N samples has at least ten samples
/// beyond it.
inline bool resolvable(size_t N, double P) {
  return N > 0 && resolvablePercentile(N) >= P;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_H
