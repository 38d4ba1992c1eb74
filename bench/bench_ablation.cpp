//===- bench/bench_ablation.cpp - Ablations of ECO's design choices -------===//
//
// The paper attributes its results to (1) per-level placement of arrays,
// (2) search-space smoothing via copying, (3) simultaneous optimization
// of all levels, and to combining models WITH search. This harness
// ablates those choices on Matrix Multiply (scaled SGI):
//
//   full            models + guided search (the system as shipped)
//   model-only      phase 1 + heuristic initial point, no search
//   no-copy         copy variants never derived
//   no-prefetch     prefetch search disabled
//   single-level    only L1 considered (MEMORY_LEVEL = 1 machine)
//   random-search   same evaluation budget spent on random feasible
//                   points of the best variant (no staged guidance)
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Heuristics.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "kernels/Kernels.h"
#include "support/Rng.h"

using namespace eco;
using namespace ecobench;

namespace {

double randomSearch(const DerivedVariant &V, EvalBackend &B,
                    const ParamBindings &Problem, size_t Budget) {
  Rng R(42);
  Env Base = initialConfig(V, B.machine(), Problem);
  double Best = std::numeric_limits<double>::infinity();
  size_t Tried = 0;
  for (size_t Attempt = 0; Attempt < Budget * 20 && Tried < Budget;
       ++Attempt) {
    Env Cand = Base;
    for (const auto &[Var, Param] : V.TileParamOf)
      Cand.set(Param, int64_t(1) << R.nextInt(1, 8));
    for (const UnrollSpec &U : V.Spec.Unrolls)
      Cand.set(U.FactorParam, int64_t(1) << R.nextInt(0, 4));
    for (const PrefetchSpec &P : V.Prefetch)
      Cand.set(P.DistanceParam, R.nextBool() ? R.nextInt(1, 16) : 0);
    if (!V.feasible(Cand))
      continue;
    ++Tried;
    LoopNest Nest = V.instantiate(Cand, B.machine());
    Best = std::min(Best, B.evaluate(Nest, Cand));
  }
  return Best;
}

} // namespace

int main() {
  MachineDesc M = sgi();
  const int64_t N = 160;
  LoopNest MM = makeMatMul();
  RunResult Naive = simulateNest(MM, {{"N", N}}, M);

  Table T({"Configuration", "Cycles", "MFLOPS", "vs naive", "Points"});
  auto addRow = [&](const std::string &Name, double Cycles, size_t Points) {
    double Mflops =
        static_cast<double>(Naive.Counters.Flops) * M.ClockMHz / Cycles;
    T.addRow({Name, withCommas(static_cast<uint64_t>(Cycles)),
              strformat("%.0f", Mflops),
              strformat("%.2fx", Naive.Cycles / Cycles),
              std::to_string(Points)});
  };

  banner("Ablation study: Matrix Multiply on scaled SGI, N=160");
  addRow("naive (no optimization)", Naive.Cycles, 0);

  SimEvalBackend Backend(M);

  // Full system.
  TuneResult Full = tune(MM, Backend, {{"N", N}});
  addRow("full (models + guided search)", Full.BestCost, Full.TotalPoints);

  // Model-only: the best variant's heuristic initial point.
  {
    double Best = std::numeric_limits<double>::infinity();
    for (const DerivedVariant &V : Full.Variants) {
      Env Init = initialConfig(V, M, {{"N", N}});
      if (!V.feasible(Init))
        continue;
      LoopNest Nest = V.instantiate(Init, M);
      Best = std::min(Best, Backend.evaluate(Nest, Init));
    }
    addRow("model-only (no search)", Best, Full.Variants.size());
  }

  // No copy variants.
  {
    TuneOptions Opts;
    Opts.Derive.ForkCopyVariants = false;
    TuneResult R = tune(MM, Backend, {{"N", N}}, Opts);
    addRow("no copy optimization", R.BestCost, R.TotalPoints);
  }

  // No prefetch search.
  {
    TuneOptions Opts;
    Opts.Search.SearchPrefetch = false;
    Opts.Search.AdjustAfterPrefetch = false;
    TuneResult R = tune(MM, Backend, {{"N", N}}, Opts);
    addRow("no prefetching", R.BestCost, R.TotalPoints);
  }

  // Single-level: pretend the machine has only L1 (per-level instead of
  // simultaneous multi-level optimization).
  {
    MachineDesc L1Only = M;
    L1Only.Caches.resize(1);
    L1Only.MemLatency = M.cache(1).HitLatency + M.MemLatency;
    SimEvalBackend B1(L1Only);
    TuneResult R = tune(MM, B1, {{"N", N}});
    // Evaluate the chosen code on the REAL two-level machine.
    Env Cfg = R.BestConfig;
    double Cycles = Backend.evaluate(R.BestExecutable, Cfg);
    addRow("L1-only models (run on full machine)", Cycles, R.TotalPoints);
  }

  // Random search with the same budget on the winning variant.
  {
    const DerivedVariant &V = Full.best();
    double Best = randomSearch(V, Backend, {{"N", N}}, Full.TotalPoints);
    addRow("random search (same budget)", Best, Full.TotalPoints);
  }

  // Section 5's anticipated hybrids: models + AI heuristic search, on
  // the winning variant at the same budget.
  {
    const DerivedVariant &V = Full.best();
    HeuristicSearchOptions HOpts;
    HOpts.Budget = Full.TotalPoints;
    EvalEngine Eval(Backend);
    VariantSearchResult HC = hillClimbVariant(V, Eval, {{"N", N}}, HOpts);
    addRow("models + hill climbing", HC.BestCost,
           HC.Trace.numEvaluations());
    VariantSearchResult SA = annealVariant(V, Eval, {{"N", N}}, HOpts);
    addRow("models + simulated annealing", SA.BestCost,
           SA.Trace.numEvaluations());
  }

  std::printf("%s", T.render().c_str());
  return 0;
}
