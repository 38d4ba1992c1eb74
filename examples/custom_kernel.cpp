//===- examples/custom_kernel.cpp - Bring your own loop nest --------------===//
//
// The library is not limited to the paper's two kernels: any dense affine
// loop nest built through the IR API goes through the same analysis,
// variant derivation, and search. This example defines a 2-D 5-point
// stencil from scratch, tunes it, and verifies the tuned code computes
// exactly what the plain nest computes.
//
//===----------------------------------------------------------------------===//

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "exec/Run.h"

#include <cstdio>

using namespace eco;

namespace {

/// Builds:  DO J = 1,N-2 ; DO I = 1,N-2
///            Out[I,J] = 0.25*(In[I-1,J]+In[I+1,J]+In[I,J-1]+In[I,J+1])
LoopNest makeStencil2D(SymbolId &NOut, ArrayId &InId, ArrayId &OutId) {
  LoopNest Nest;
  Nest.Name = "stencil2d";
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId J = Nest.declareLoopVar("J");
  SymbolId I = Nest.declareLoopVar("I");

  AffineExpr NExpr = AffineExpr::sym(N);
  ArrayId In = Nest.declareArray({"In", {NExpr, NExpr}});
  ArrayId Out = Nest.declareArray({"Out", {NExpr, NExpr}});

  AffineExpr IE = AffineExpr::sym(I), JE = AffineExpr::sym(J);
  auto Read = [&](AffineExpr Si, AffineExpr Sj) {
    return ScalarExpr::makeRead(ArrayRef(In, {std::move(Si),
                                              std::move(Sj)}));
  };
  auto Sum = [](std::unique_ptr<ScalarExpr> L,
                std::unique_ptr<ScalarExpr> R) {
    return ScalarExpr::makeBinary(ScalarExprKind::Add, std::move(L),
                                  std::move(R));
  };
  auto Rhs = ScalarExpr::makeBinary(
      ScalarExprKind::Mul, ScalarExpr::makeConst(0.25),
      Sum(Sum(Read(IE - 1, JE), Read(IE + 1, JE)),
          Sum(Read(IE, JE - 1), Read(IE, JE + 1))));
  auto Compute = Stmt::makeCompute(ArrayRef(Out, {IE, JE}),
                                   std::move(Rhs));

  auto LoopI = std::make_unique<Loop>(I, AffineExpr::constant(1),
                                      Bound(NExpr - 2));
  LoopI->Items.push_back(BodyItem(std::move(Compute)));
  auto LoopJ = std::make_unique<Loop>(J, AffineExpr::constant(1),
                                      Bound(NExpr - 2));
  LoopJ->Items.push_back(BodyItem(std::move(LoopI)));
  Nest.Items.push_back(BodyItem(std::move(LoopJ)));

  NOut = N;
  InId = In;
  OutId = Out;
  return Nest;
}

} // namespace

int main() {
  SymbolId NSym;
  ArrayId InId, OutId;
  LoopNest Stencil = makeStencil2D(NSym, InId, OutId);
  std::printf("custom kernel:\n%s\n", Stencil.print().c_str());

  MachineDesc Machine = MachineDesc::sgiR10000().scaledBy(16);
  SimEvalBackend Backend(Machine);

  const int64_t N = 512;
  TuneResult R = tune(Stencil, Backend, {{"N", N}});
  RunResult Naive = simulateNest(Stencil, {{"N", N}}, Machine);
  std::printf("tuned %s: %.0f -> %.0f kcycles (%.2fx)\n\n",
              R.best().configString(R.BestConfig).c_str(),
              Naive.Cycles / 1e3, R.BestCost / 1e3,
              Naive.Cycles / R.BestCost);

  // Verify the tuned code bit-for-bit at a small size.
  const int64_t NV = 20;
  Env Cfg = R.BestConfig;
  Cfg.set(NSym, NV);
  MemHierarchySim Sim(Machine);
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor Tuned(R.BestExecutable, Cfg, Sim, Opts);
  for (int64_t X = 0; X < NV * NV; ++X)
    Tuned.dataOf(InId)[X] = 0.01 * static_cast<double>(X % 97);
  Tuned.run();

  MemHierarchySim Sim2(Machine);
  Executor Plain(Stencil, makeEnv(Stencil, {{"N", NV}}), Sim2, Opts);
  Plain.dataOf(InId) = Tuned.dataOf(InId);
  Plain.run();

  for (int64_t X = 0; X < NV * NV; ++X)
    if (Tuned.dataOf(OutId)[X] != Plain.dataOf(OutId)[X]) {
      std::printf("MISMATCH at %lld\n", static_cast<long long>(X));
      return 1;
    }
  std::printf("verification: tuned output is bit-identical to the plain "
              "nest at N=%lld\n",
              static_cast<long long>(NV));
  return 0;
}
