//===- bench/Fig4Common.h - Shared Figure 4 driver -------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Figure 4 experiment, shared by the SGI and Sun binaries: Matrix
/// Multiply MFLOPS across a sweep of square sizes for four code versions —
/// ECO (tuned once, parameters frozen across sizes like the paper's),
/// Vendor BLAS (frozen hand-tuned kernel), ATLAS (mini-ATLAS, tuned once;
/// packing only above its size threshold), and Native (modeled native
/// compiler). The sweep includes power-of-two sizes, where the uncopied
/// versions suffer the paper's conflict-miss spikes.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_BENCH_FIG4COMMON_H
#define ECO_BENCH_FIG4COMMON_H

#include "BenchCommon.h"
#include "support/Chart.h"
#include "baselines/MiniAtlas.h"
#include "baselines/NativeCompiler.h"
#include "baselines/VendorBlas.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "kernels/Kernels.h"

namespace ecobench {

inline void runFig4(const eco::MachineDesc &M,
                    eco::NativeCompilerFlavor NativeFlavor,
                    const std::string &Title) {
  using namespace eco;
  banner(Title);
  std::printf("machine: %s\n", M.summary().c_str());

  std::vector<int64_t> Sizes;
  int64_t MaxN = fullRuns() ? 320 : 224;
  for (int64_t N = 32; N <= MaxN; N += 32)
    Sizes.push_back(N);

  // --- tune ECO once (paper: one configuration for all sizes) ----------
  const int64_t TuneN = 160;
  LoopNest MM = makeMatMul();
  SimEvalBackend Backend(M);
  TuneResult ECO = tune(MM, Backend, {{"N", TuneN}});
  std::printf("ECO: searched %zu points in %.1fs; winner %s\n",
              ECO.TotalPoints, ECO.TotalSeconds,
              ECO.best().configString(ECO.BestConfig).c_str());
  SymbolId EcoN = ECO.BestExecutable.Syms.lookup("N");

  // --- tune mini-ATLAS once ---------------------------------------------
  const int64_t AtlasTuneN = 96, AtlasCopyMin = 96;
  MiniAtlasResult Atlas = tuneMiniAtlas(Backend, AtlasTuneN, AtlasCopyMin);
  std::printf("ATLAS-style: searched %zu points in %.1fs; winner NB=%lld "
              "MU=%d NU=%d KU=%d\n",
              Atlas.Trace.Evaluations, Atlas.Trace.Seconds,
              static_cast<long long>(Atlas.Best.NB), Atlas.Best.MU,
              Atlas.Best.NU, Atlas.Best.KU);
  MiniAtlasConfig AtlasCopyCfg = Atlas.Best;
  AtlasCopyCfg.Copy = true;
  MiniAtlasConfig AtlasNoCopyCfg = Atlas.Best;
  AtlasNoCopyCfg.Copy = false;
  LoopNest AtlasCopy = buildMiniAtlasNest(AtlasCopyCfg);
  LoopNest AtlasNoCopy = buildMiniAtlasNest(AtlasNoCopyCfg);

  // --- frozen vendor kernel and native-compiler output -------------------
  VendorBlasKernel Vendor = vendorBlasMatMul(M);
  LoopNest Native = nativeCompiledNest(MM, NativeFlavor, M);

  Table T({"N", "ECO", "Vendor BLAS", "ATLAS", "Native"});
  std::vector<double> SECO, SBlas, SAtlas, SNative;
  for (int64_t N : Sizes) {
    // ECO.
    Env Cfg = ECO.BestConfig;
    Cfg.set(EcoN, N);
    MemHierarchySim Sim(M);
    Executor Ex(ECO.BestExecutable, Cfg, Sim);
    Ex.run();
    double VEco = Sim.counters().mflops(M.ClockMHz);

    // Vendor.
    ParamBindings VB = Vendor.FixedParams;
    VB.push_back({"N", N});
    double VBlas = mflopsOf(simulateNest(Vendor.Nest, VB, M), M);

    // ATLAS: packs only above its threshold.
    const LoopNest &AtlasNest =
        N >= AtlasCopyMin ? AtlasCopy : AtlasNoCopy;
    double VAtlas = mflopsOf(
        simulateNest(AtlasNest, {{"N", N}, {"NB", Atlas.Best.NB}}, M), M);

    // Native.
    double VNative = mflopsOf(simulateNest(Native, {{"N", N}}, M), M);

    SECO.push_back(VEco);
    SBlas.push_back(VBlas);
    SAtlas.push_back(VAtlas);
    SNative.push_back(VNative);
    T.addRow({std::to_string(N), strformat("%.0f", VEco),
              strformat("%.0f", VBlas), strformat("%.0f", VAtlas),
              strformat("%.0f", VNative)});
  }
  std::printf("\nMFLOPS by square matrix size (peak %.0f):\n%s\n",
              M.peakMflops(), T.render().c_str());

  std::vector<double> XS(Sizes.begin(), Sizes.end());
  eco::AsciiChart Chart(58, 16);
  Chart.setYLabel("MFLOPS");
  Chart.setXLabel("square matrix size N");
  Chart.setYRange(0, M.peakMflops());
  Chart.addSeries("ECO", 'E', XS, SECO);
  Chart.addSeries("Vendor BLAS", 'B', XS, SBlas);
  Chart.addSeries("ATLAS", 'A', XS, SAtlas);
  Chart.addSeries("Native", 'N', XS, SNative);
  std::printf("%s\n", Chart.render().c_str());
  std::printf("CSV:\n%s\n", T.renderCsv().c_str());
  seriesSummary("ECO", SECO);
  seriesSummary("Vendor BLAS", SBlas);
  seriesSummary("ATLAS", SAtlas);
  seriesSummary("Native", SNative);
}

} // namespace ecobench

#endif // ECO_BENCH_FIG4COMMON_H
