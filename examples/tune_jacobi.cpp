//===- examples/tune_jacobi.cpp - Stencil tuning and what-if analysis -----===//
//
// Tunes the 3-D Jacobi relaxation (the paper's second case study) on both
// simulated machines, shows the variant zoo the tie-breaking rules create
// (all three loops carry reuse -> multiple loop orders), and runs a
// what-if comparison of every variant at its heuristic configuration.
//
//===----------------------------------------------------------------------===//

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"
#include "support/StringUtils.h"

#include <cstdio>

using namespace eco;

int main() {
  LoopNest Jacobi = makeJacobi();
  std::printf("original kernel:\n%s\n", Jacobi.print().c_str());

  const int64_t N = 96;
  for (MachineDesc Machine : {MachineDesc::sgiR10000().scaledBy(16),
                              MachineDesc::ultraSparcIIe().scaledBy(16)}) {
    std::printf("=== %s ===\n", Machine.summary().c_str());
    SimEvalBackend Backend(Machine);

    // Phase 1 alone: look at the variants before searching.
    std::vector<DerivedVariant> Variants =
        deriveVariants(Jacobi, Machine);
    std::printf("%zu variants derived. Heuristic-point comparison:\n",
                Variants.size());
    for (const DerivedVariant &V : Variants) {
      Env Init = initialConfig(V, Machine, {{"N", N}});
      double Cost = V.feasible(Init)
                        ? Backend.evaluate(V.instantiate(Init, Machine),
                                           Init)
                        : -1;
      std::vector<std::string> Order;
      for (SymbolId S : V.Spec.FinalOrder)
        Order.push_back(V.Skeleton.Syms.name(S));
      std::printf("  %-4s order %-18s %12.0f cycles\n",
                  V.Spec.Name.c_str(), join(Order, " ").c_str(), Cost);
    }

    // Full two-phase tuning.
    TuneResult R = tune(Jacobi, Backend, {{"N", N}});
    RunResult Naive = simulateNest(Jacobi, {{"N", N}}, Machine);
    std::printf("tuned: %s -> %.2fx over the untransformed kernel\n\n",
                R.best().configString(R.BestConfig).c_str(),
                Naive.Cycles / R.BestCost);
  }
  return 0;
}
