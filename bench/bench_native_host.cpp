//===- bench/bench_native_host.cpp - Extension: tune on real hardware -----===//
//
// The paper's pipeline on the build host instead of the simulator: ECO
// emits C for each variant (its SUIF emitted Fortran), the system C
// compiler builds it, and wall-clock time drives the same two-phase
// search. Compares the tuned kernel against the naive nest compiled the
// same way — a real end-to-end autotuning demonstration.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "kernels/Kernels.h"

#include <cmath>

using namespace eco;
using namespace ecobench;

int main() {
  banner("Extension: native autotuning on the build host");

  const int64_t N = fullRuns() ? 512 : 256;
  double Flops = 2.0 * N * N * N;

  LoopNest MM = makeMatMul();
  double Naive = NativeEvalBackend(MachineDesc::genericHost())
                     .evaluate(MM, makeEnv(MM, {{"N", N}}));
  if (!std::isfinite(Naive)) {
    std::printf("host C compiler unavailable; skipping\n");
    return 0;
  }
  std::printf("naive dgemm, N=%lld: %.1f ms, %.0f MFLOPS\n",
              static_cast<long long>(N), Naive * 1e3, Flops / Naive / 1e6);

  NativeEvalBackend Backend(MachineDesc::genericHost(), /*Repeats=*/2);
  TuneOptions Opts;
  Opts.MaxVariantsToSearch = 2; // each structure change costs a compile
  Opts.Search.LinearRefineSteps = 1;
  TuneResult R = tune(MM, Backend, {{"N", N}}, Opts);
  if (R.BestVariant < 0) {
    std::printf("tuning failed\n");
    return 0;
  }
  double TunedMflops = Flops / R.BestCost / 1e6;
  std::printf("ECO-tuned (%s): %.1f ms, %.0f MFLOPS  (%.2fx over naive; "
              "%zu points, %.0fs of search)\n",
              R.best().configString(R.BestConfig).c_str(),
              R.BestCost * 1e3, TunedMflops, Naive / R.BestCost,
              R.TotalPoints, R.TotalSeconds);
  return 0;
}
