//===- tests/test_integration.cpp - Cross-subsystem integration tests -----===//
//
// Flows that cross module boundaries:
//   * tune on the simulator, emit the winner as C, compile natively, and
//     check bit-exact results — sim path and native path agree;
//   * MultiSizeEvalBackend equals the sum of single-size evaluations;
//   * padding preserves values while changing only the address map;
//   * the baselines' kernels agree with the references end to end.
//
//===----------------------------------------------------------------------===//

#include "baselines/MiniAtlas.h"
#include "baselines/NativeCompiler.h"
#include "codegen/NativeRunner.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"
#include "kernels/Reference.h"
#include "transform/Pad.h"

#include <gtest/gtest.h>

using namespace eco;

namespace {
MachineDesc sgiScaled() { return MachineDesc::sgiR10000().scaledBy(16); }
} // namespace

TEST(Integration, TunedWinnerCompilesAndRunsNatively) {
  // sim-tuned schedule -> C -> host compiler -> identical numerics.
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  LoopNest MM = makeMatMul();
  const int64_t N = 40;
  TuneResult R = tune(MM, Backend, {{"N", N}});
  ASSERT_GE(R.BestVariant, 0);

  std::string Error;
  std::unique_ptr<NativeKernel> Kernel =
      NativeKernel::compile(R.BestExecutable, &Error);
  ASSERT_NE(Kernel, nullptr) << Error;

  // Allocate every array at the size the config implies.
  const LoopNest &Exec = R.BestExecutable;
  Env E = R.BestConfig;
  E.set(Exec.Syms.lookup("N"), N);
  std::vector<std::vector<double>> Arrays = allocateArrays(Exec, E);
  fillDeterministic(Arrays[0], 1); // A
  fillDeterministic(Arrays[1], 2); // B
  fillDeterministic(Arrays[2], 3); // C

  std::vector<double> RefA(N * N), RefB(N * N), RefC(N * N);
  fillDeterministic(RefA, 1);
  fillDeterministic(RefB, 2);
  fillDeterministic(RefC, 3);
  referenceMatMul(RefA, RefB, RefC, N);

  Kernel->run(E, Arrays);
  for (int64_t X = 0; X < N * N; ++X)
    ASSERT_DOUBLE_EQ(Arrays[2][X], RefC[X]) << "idx " << X;
}

TEST(Integration, MultiSizeBackendIsSumOfSingleSizes) {
  MachineDesc M = sgiScaled();
  SimEvalBackend Inner(M);
  MultiSizeEvalBackend Multi(Inner, "N", {16, 24, 40});

  LoopNest MM = makeMatMul();
  Env E(MM.Syms.size());
  double Sum = 0;
  for (int64_t N : {16, 24, 40}) {
    Env E1 = E;
    E1.set(MM.Syms.lookup("N"), N);
    Sum += Inner.evaluate(MM, E1);
  }
  EXPECT_DOUBLE_EQ(Multi.evaluate(MM, E), Sum);
}

TEST(Integration, PaddingPreservesJacobiValues) {
  JacobiIds Ids;
  const int64_t N = 10;
  std::vector<double> In(N * N * N), Ref(N * N * N, 0.0);
  fillDeterministic(In, 7);
  referenceJacobi(In, Ref, N);

  for (auto Pads : {std::vector<int64_t>{3, 0}, {0, 5}, {2, 2}}) {
    JacobiIds Ids2;
    LoopNest Nest = makeJacobi(&Ids2);
    EXPECT_EQ(padDims(Nest, Pads), 2); // A and B both padded
    MemHierarchySim Sim(sgiScaled());
    ExecOptions Opts;
    Opts.ComputeValues = true;
    Executor E(Nest, makeEnv(Nest, {{"N", N}}), Sim, Opts);
    // Fill only the *referenced* region: the reference ref pattern is
    // 0-based over N; padded extents leave a tail that stays zero.
    // Padded array is (N+p1) x (N+p2) x N — fill by index mapping.
    const AddressMap &AM = E.addressMap();
    int64_t E0 = AM.extent(Ids2.B, 0), E1 = AM.extent(Ids2.B, 1);
    for (int64_t K = 0; K < N; ++K)
      for (int64_t J = 0; J < N; ++J)
        for (int64_t I = 0; I < N; ++I)
          E.dataOf(Ids2.B)[I + E0 * (J + E1 * K)] =
              In[I + N * (J + N * K)];
    E.run();
    for (int64_t K = 0; K < N; ++K)
      for (int64_t J = 0; J < N; ++J)
        for (int64_t I = 0; I < N; ++I)
          ASSERT_DOUBLE_EQ(
              E.dataOf(Ids2.A)[I + E0 * (J + E1 * K)],
              Ref[I + N * (J + N * K)])
              << I << "," << J << "," << K;
  }
  (void)Ids;
}

TEST(Integration, PaddingChangesAddressMapOnly) {
  JacobiIds Ids;
  LoopNest Plain = makeJacobi(&Ids);
  LoopNest Padded = Plain.clone();
  padDims(Padded, {1, 1});
  Env E = makeEnv(Plain, {{"N", 16}});
  AddressMap APlain(Plain, E), APadded(Padded, E);
  EXPECT_GT(APadded.numElements(Ids.B), APlain.numElements(Ids.B));
  // Same statements, same loops.
  EXPECT_EQ(Plain.print(), Padded.print());
}

TEST(Integration, MiniAtlasBestConfigComputesReference) {
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  MiniAtlasResult R = tuneMiniAtlas(Backend, 64, /*CopyMinSize=*/48);

  const int64_t N = 19;
  MiniAtlasConfig C = R.Best;
  LoopNest Nest = buildMiniAtlasNest(C);
  MemHierarchySim Sim(M);
  ExecOptions Opts;
  Opts.ComputeValues = true;
  ParamBindings P = {{"N", N}, {"NB", C.NB}};
  Executor E(Nest, makeEnv(Nest, P), Sim, Opts);
  fillDeterministic(E.dataOf(0), 1);
  fillDeterministic(E.dataOf(1), 2);
  fillDeterministic(E.dataOf(2), 3);
  E.run();

  std::vector<double> A(N * N), B(N * N), Ref(N * N);
  fillDeterministic(A, 1);
  fillDeterministic(B, 2);
  fillDeterministic(Ref, 3);
  referenceMatMul(A, B, Ref, N);
  for (int64_t X = 0; X < N * N; ++X)
    ASSERT_DOUBLE_EQ(E.dataOf(2)[X], Ref[X]) << "idx " << X;
}

TEST(Integration, NativeCompilerJacobiComputesReference) {
  MachineDesc M = sgiScaled();
  JacobiIds Ids;
  LoopNest Jac = makeJacobi(&Ids);
  LoopNest Native =
      nativeCompiledNest(Jac, NativeCompilerFlavor::Aggressive, M);

  const int64_t N = 9;
  MemHierarchySim Sim(M);
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(Native, makeEnv(Native, {{"N", N}}), Sim, Opts);
  fillDeterministic(E.dataOf(Ids.B), 5);
  E.run();

  std::vector<double> In(N * N * N), Ref(N * N * N, 0.0);
  fillDeterministic(In, 5);
  referenceJacobi(In, Ref, N);
  for (size_t X = 0; X < Ref.size(); ++X)
    ASSERT_DOUBLE_EQ(E.dataOf(Ids.A)[X], Ref[X]) << "idx " << X;
}

TEST(Integration, EmittedCMatchesSimValuesForEveryMMVariant) {
  // For each derived variant at its heuristic config: run in the
  // simulator's value mode AND natively from emitted C; both must equal
  // the reference (and hence each other).
  MachineDesc M = sgiScaled();
  LoopNest MM = makeMatMul();
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  const int64_t N = 21;

  std::vector<double> RefA(N * N), RefB(N * N), RefC(N * N);
  fillDeterministic(RefA, 1);
  fillDeterministic(RefB, 2);
  fillDeterministic(RefC, 3);
  referenceMatMul(RefA, RefB, RefC, N);

  int Checked = 0;
  for (const DerivedVariant &V : Vs) {
    if (Checked >= 3)
      break; // native compiles are the slow part; 3 variants suffice
    Env Cfg = initialConfig(V, M, {{"N", N}});
    LoopNest Exec = V.instantiate(Cfg, M);

    std::string Error;
    std::unique_ptr<NativeKernel> Kernel =
        NativeKernel::compile(Exec, &Error);
    ASSERT_NE(Kernel, nullptr) << V.Spec.Name << ": " << Error;

    std::vector<std::vector<double>> Arrays = allocateArrays(Exec, Cfg);
    fillDeterministic(Arrays[0], 1);
    fillDeterministic(Arrays[1], 2);
    fillDeterministic(Arrays[2], 3);
    Kernel->run(Cfg, Arrays);
    for (int64_t X = 0; X < N * N; ++X)
      ASSERT_DOUBLE_EQ(Arrays[2][X], RefC[X])
          << V.Spec.Name << " idx " << X;
    ++Checked;
  }
  EXPECT_GE(Checked, 3);
}
