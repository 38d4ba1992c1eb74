//===- examples/quickstart.cpp - Two-phase tuning in a dozen lines --------===//
//
// The shortest end-to-end use of the library: take the textbook Matrix
// Multiply, run the paper's two-phase optimization against a simulated
// SGI R10000, and inspect what came out.
//
//   build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"

#include <cstdio>

using namespace eco;

int main() {
  // The kernel as a compiler would see it (Figure 1(a)).
  LoopNest MM = makeMatMul();
  std::printf("original kernel:\n%s\n", MM.print().c_str());

  // A machine to optimize for: the paper's SGI R10000, capacities scaled
  // 1/16 so the search takes seconds.
  MachineDesc Machine = MachineDesc::sgiR10000().scaledBy(16);
  SimEvalBackend Backend(Machine);

  // Phase 1 (models -> variants + constraints) and phase 2 (guided
  // empirical search), in one call.
  const int64_t N = 160;
  TuneResult Result = tune(MM, Backend, {{"N", N}});

  std::printf("derived %zu variants; searched %zu points in %.1fs\n",
              Result.Variants.size(), Result.TotalPoints,
              Result.TotalSeconds);
  std::printf("winner: %s\n\n",
              Result.best().configString(Result.BestConfig).c_str());
  std::printf("winning variant:\n%s\n", Result.best().describe().c_str());

  // How much did it help?
  RunResult Naive = simulateNest(MM, {{"N", N}}, Machine);
  std::printf("naive:     %8.0f kcycles  (%.0f MFLOPS)\n",
              Naive.Cycles / 1e3, Naive.Mflops);
  std::printf("ECO-tuned: %8.0f kcycles  (%.0f MFLOPS)  -> %.2fx\n",
              Result.BestCost / 1e3,
              Naive.Counters.Flops * Machine.ClockMHz / Result.BestCost,
              Naive.Cycles / Result.BestCost);

  std::printf("\noptimized code (tile sizes symbolic):\n%s",
              Result.BestExecutable.print().c_str());
  return 0;
}
