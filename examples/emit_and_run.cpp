//===- examples/emit_and_run.cpp - Source-to-source, like the paper -------===//
//
// ECO was a source-to-source system: SUIF emitted optimized Fortran that
// the native compiler built. This example does the same on the host:
// derive a variant of Matrix Multiply, print the C it emits, compile it
// with the system compiler, and time it against the naive kernel on the
// real hardware.
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "core/DeriveVariants.h"
#include "core/Search.h"
#include "kernels/Kernels.h"

#include <cmath>
#include <cstdio>

using namespace eco;

int main() {
  LoopNest MM = makeMatMul();
  MachineDesc Host = MachineDesc::genericHost();

  // Phase 1, then instantiate the first variant at its model-heuristic
  // configuration.
  std::vector<DerivedVariant> Variants = deriveVariants(MM, Host);
  const DerivedVariant &V = Variants.front();
  const int64_t N = 256;
  Env Cfg = initialConfig(V, Host, {{"N", N}});
  LoopNest Optimized = V.instantiate(Cfg, Host);

  std::printf("emitted C for variant %s:\n%s\n", V.Spec.Name.c_str(),
              emitC(Optimized, "dgemm_opt").c_str());

  // Compile and time both versions natively, through the tuner's own
  // native backend: the cost is best-of-3 seconds, +infinity when the
  // kernel does not compile.
  NativeEvalBackend Native(Host);
  double Flops = 2.0 * N * N * N;
  double Naive = Native.evaluate(MM, makeEnv(MM, {{"N", N}}));
  if (!std::isfinite(Naive)) {
    std::printf("host compiler unavailable\n");
    return 0;
  }
  double Opt = Native.evaluate(Optimized, Cfg);
  if (!std::isfinite(Opt)) {
    std::printf("variant %s failed to compile\n", V.Spec.Name.c_str());
    return 1;
  }

  std::printf("naive:     %7.2f ms  (%.0f MFLOPS)\n", Naive * 1e3,
              Flops / Naive / 1e6);
  std::printf("optimized: %7.2f ms  (%.0f MFLOPS)  -> %.2fx\n", Opt * 1e3,
              Flops / Opt / 1e6, Naive / Opt);
  return 0;
}
