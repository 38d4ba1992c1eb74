//===- bench/Fig5Common.h - Shared Figure 5 driver -------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 5 experiment: Jacobi MFLOPS across sizes, ECO vs the
/// modeled native compiler. Neither version copies (the paper's compiler
/// judged copying unprofitable for Jacobi), so both fluctuate at
/// conflict-prone sizes; ECO stays above on average thanks to tiling,
/// register rotation, and prefetching.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_BENCH_FIG5COMMON_H
#define ECO_BENCH_FIG5COMMON_H

#include "BenchCommon.h"
#include "support/Chart.h"
#include "baselines/NativeCompiler.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "kernels/Kernels.h"

namespace ecobench {

inline void runFig5(const eco::MachineDesc &M,
                    eco::NativeCompilerFlavor NativeFlavor,
                    const std::string &Title) {
  using namespace eco;
  banner(Title);
  std::printf("machine: %s\n", M.summary().c_str());

  // Mostly ordinary sizes plus the two power-of-two pathologies (the
  // paper swept ~100 sizes, few of which were conflict-prone; a sweep of
  // only powers of two would overweight the spikes both versions share).
  std::vector<int64_t> Sizes = {36, 52, 64, 68, 84, 100, 116, 128, 132};
  if (fullRuns())
    Sizes = {36, 44, 52, 60, 64, 68, 76, 84, 92, 100, 108, 116, 124, 128};

  LoopNest Jac = makeJacobi();
  SimEvalBackend Inner(M);
  // Tune against several representative sizes at once: on the scaled
  // machines many individual sizes alias a cache way (e.g. 96^2*8 = the
  // scaled L1 way span), and a single-size search overfits the accident.
  MultiSizeEvalBackend Backend(Inner, "N", {68, 84, 106});
  TuneResult ECO = tune(Jac, Backend, {{"N", 84}});
  std::printf("ECO: searched %zu points in %.1fs; winner %s\n",
              ECO.TotalPoints, ECO.TotalSeconds,
              ECO.best().configString(ECO.BestConfig).c_str());
  SymbolId EcoN = ECO.BestExecutable.Syms.lookup("N");

  LoopNest Native = nativeCompiledNest(Jac, NativeFlavor, M);

  Table T({"N", "ECO", "Native"});
  std::vector<double> SECO, SNative;
  for (int64_t N : Sizes) {
    Env Cfg = ECO.BestConfig;
    Cfg.set(EcoN, N);
    MemHierarchySim Sim(M);
    Executor Ex(ECO.BestExecutable, Cfg, Sim);
    Ex.run();
    double VEco = Sim.counters().mflops(M.ClockMHz);
    double VNative = mflopsOf(simulateNest(Native, {{"N", N}}, M), M);
    SECO.push_back(VEco);
    SNative.push_back(VNative);
    T.addRow({std::to_string(N), strformat("%.0f", VEco),
              strformat("%.0f", VNative)});
  }
  std::printf("\nMFLOPS by matrix size (peak %.0f):\n%s\n", M.peakMflops(),
              T.render().c_str());

  std::vector<double> XS(Sizes.begin(), Sizes.end());
  eco::AsciiChart Chart(58, 14);
  Chart.setYLabel("MFLOPS");
  Chart.setXLabel("matrix size N");
  Chart.addSeries("ECO", 'E', XS, SECO);
  Chart.addSeries("Native", 'N', XS, SNative);
  std::printf("%s\n", Chart.render().c_str());
  std::printf("CSV:\n%s\n", T.renderCsv().c_str());
  seriesSummary("ECO", SECO);
  seriesSummary("Native", SNative);
}

} // namespace ecobench

#endif // ECO_BENCH_FIG5COMMON_H
