//===- bench/BenchCommon.h - Shared benchmark harness helpers --*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table/per-figure benchmark binaries: the
/// scaled machine configurations (see DESIGN.md: capacities are divided by
/// the constant SimScale with problem sizes scaled to match so sweeps run
/// in minutes), MFLOPS extraction, and environment-variable knobs:
///
///   ECO_BENCH_FULL=1   denser size sweeps (longer runs)
///
//===----------------------------------------------------------------------===//

#ifndef ECO_BENCH_BENCHCOMMON_H
#define ECO_BENCH_BENCHCOMMON_H

#include "exec/Run.h"
#include "machine/MachineDesc.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace ecobench {

/// All simulated experiments run at this capacity scale (1/16 of the real
/// machines; tile sizes and problem sizes scale by 1/4 per dimension).
/// Only these bench machines scale pages by 1/4 (linearly, like problem
/// sizes) rather than 1/16, so the pages-per-array-column geometry
/// matches the real machines. Plain `MachineDesc::scaledBy(16)`, which
/// eco_cli, the daemon, perfbench and the tests use, scales pages by
/// 1/16; both machines print as `SGI-R10000/16`.
inline constexpr unsigned SimScale = 16;
inline constexpr unsigned PageScale = 4;

inline eco::MachineDesc scaledForBench(eco::MachineDesc M) {
  uint64_t Page = M.Tlb.PageBytes / PageScale;
  M = M.scaledBy(SimScale);
  M.Tlb.PageBytes = Page;
  return M;
}

inline eco::MachineDesc sgi() {
  return scaledForBench(eco::MachineDesc::sgiR10000());
}
inline eco::MachineDesc sun() {
  return scaledForBench(eco::MachineDesc::ultraSparcIIe());
}

inline bool fullRuns() {
  const char *Env = std::getenv("ECO_BENCH_FULL");
  return Env && Env[0] == '1';
}

/// MFLOPS of one simulated run.
inline double mflopsOf(const eco::RunResult &R,
                       const eco::MachineDesc &M) {
  return R.Counters.Flops > 0 ? R.Counters.mflops(M.ClockMHz) : 0;
}

/// Prints a section header.
inline void banner(const std::string &Title) {
  std::printf("\n=== %s ===\n", Title.c_str());
}

/// Prints min/avg/max the way the paper reports series ("ranging from 302
/// to 342 with an average of 333 MFLOPS").
inline void seriesSummary(const std::string &Name,
                          const std::vector<double> &Values) {
  if (Values.empty())
    return;
  double Min = Values[0], Max = Values[0], Sum = 0;
  for (double V : Values) {
    Min = std::min(Min, V);
    Max = std::max(Max, V);
    Sum += V;
  }
  std::printf("%-12s ranges %.0f to %.0f, average %.0f MFLOPS\n",
              Name.c_str(), Min, Max, Sum / Values.size());
}

} // namespace ecobench

#endif // ECO_BENCH_BENCHCOMMON_H
