//===- perfbench/src/Stats.cpp - Summary statistics -----------------------===//

#include "Stats.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

double perfbench::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Mid = V.size() / 2;
  return V.size() % 2 ? V[Mid] : (V[Mid - 1] + V[Mid]) / 2;
}

double perfbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

size_t perfbench::samplesBeyond(size_t N, double Pct) {
  size_t Rank = static_cast<size_t>(std::ceil(Pct / 100 * N - 1e-9));
  return N - std::min(Rank, N);
}

double perfbench::percentile(std::vector<double> V, double Pct) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = V.size() - samplesBeyond(V.size(), Pct);
  return V[std::max<size_t>(Rank, 1) - 1];
}

Tail perfbench::tailPercentile(const std::vector<double> &V) {
  Tail T;
  T.N = V.size();
  for (double Pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (samplesBeyond(V.size(), Pct) >= 10) {
      T.Pct = Pct;
      T.Value = percentile(V, Pct);
      return T;
    }
  return T;
}
