//===- perfbench/src/Stats.h - Summary statistics for the benchmark -------===//
///
/// \file
/// The few order statistics the benchmark reports. Timings are reported
/// as a median plus the highest percentile that still has at least ten
/// samples beyond it (so a "p99" is never read off a handful of samples),
/// together with the sample count.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle samples for an even count); 0 when empty.
double median(std::vector<double> V);

/// Geometric mean of positive samples; 0 when empty.
double geomean(const std::vector<double> &V);

/// Nearest-rank percentile \p Pct (0 < Pct <= 100) of \p V; 0 when empty.
double percentile(std::vector<double> V, double Pct);

/// Samples strictly above the nearest-rank \p Pct percentile of \p N
/// samples: N - ceil(Pct/100 * N).
size_t samplesBeyond(size_t N, double Pct);

/// The tail a sample set supports: the highest of 99.9, 99, 95, 90, 75
/// and 50 that has at least ten samples beyond it. Pct = 0 (and
/// Value = 0) when even the median has fewer than ten beyond it.
struct Tail {
  double Pct = 0;
  double Value = 0;
  size_t N = 0;
};
Tail tailPercentile(const std::vector<double> &V);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
