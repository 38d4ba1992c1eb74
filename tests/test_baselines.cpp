//===- tests/test_baselines.cpp - baselines/ unit tests -------------------===//

#include "baselines/MiniAtlas.h"
#include "baselines/NativeCompiler.h"
#include "baselines/VendorBlas.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"
#include "kernels/Reference.h"

#include <gtest/gtest.h>

using namespace eco;

namespace {

MachineDesc sgiScaled() { return MachineDesc::sgiR10000().scaledBy(16); }

void expectMMValuesCorrect(const LoopNest &Nest, int64_t N,
                           ParamBindings Params) {
  Params.push_back({"N", N});
  MemHierarchySim Sim(sgiScaled());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(Nest, makeEnv(Nest, Params), Sim, Opts);
  fillDeterministic(E.dataOf(0), 1);
  fillDeterministic(E.dataOf(1), 2);
  fillDeterministic(E.dataOf(2), 3);
  E.run();

  std::vector<double> A(N * N), B(N * N), C(N * N);
  fillDeterministic(A, 1);
  fillDeterministic(B, 2);
  fillDeterministic(C, 3);
  referenceMatMul(A, B, C, N);
  for (int64_t X = 0; X < N * N; ++X)
    ASSERT_DOUBLE_EQ(E.dataOf(2)[X], C[X]) << "idx " << X;
}

} // namespace

TEST(NativeCompilerTest, BasicFlavorIsOriginal) {
  LoopNest MM = makeMatMul();
  LoopNest Native = nativeCompiledNest(MM, NativeCompilerFlavor::Basic,
                                       sgiScaled());
  EXPECT_EQ(Native.print(), MM.print());
}

TEST(NativeCompilerTest, AggressiveFlavorRegisterBlocksButNeverTiles) {
  LoopNest MM = makeMatMul();
  LoopNest Native = nativeCompiledNest(
      MM, NativeCompilerFlavor::Aggressive, sgiScaled());
  // No tile-control loops, no copies, no prefetches.
  Native.forEachLoop([](const Loop &L) {
    EXPECT_FALSE(L.IsTileControl);
    EXPECT_FALSE(L.hasParamStep());
  });
  Native.forEachStmt([](const Stmt &S) {
    EXPECT_NE(S.Kind, StmtKind::CopyIn);
    EXPECT_NE(S.Kind, StmtKind::Prefetch);
  });
  // But it did unroll and scalar-replace.
  EXPECT_GT(Native.NumRegs, 0);
}

TEST(NativeCompilerTest, AggressiveComputesReferenceValues) {
  LoopNest MM = makeMatMul();
  LoopNest Native = nativeCompiledNest(
      MM, NativeCompilerFlavor::Aggressive, sgiScaled());
  expectMMValuesCorrect(Native, 13, {});
  expectMMValuesCorrect(Native, 16, {});
}

TEST(NativeCompilerTest, AggressiveBeatsBasicOnMatMul) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  LoopNest Agg =
      nativeCompiledNest(MM, NativeCompilerFlavor::Aggressive, M);
  LoopNest Basic = nativeCompiledNest(MM, NativeCompilerFlavor::Basic, M);
  RunResult RA = simulateNest(Agg, {{"N", 96}}, M);
  RunResult RB = simulateNest(Basic, {{"N", 96}}, M);
  EXPECT_LT(RA.Cycles, RB.Cycles);
}

TEST(MiniAtlasTest, NestComputesReferenceValues) {
  for (bool Copy : {false, true}) {
    MiniAtlasConfig C;
    C.NB = 8;
    C.MU = 4;
    C.NU = 2;
    C.KU = 2;
    C.Copy = Copy;
    LoopNest Nest = buildMiniAtlasNest(C);
    expectMMValuesCorrect(Nest, 13, {{"NB", C.NB}});
    expectMMValuesCorrect(Nest, 16, {{"NB", C.NB}});
  }
}

TEST(MiniAtlasTest, SharedNBParameterDrivesAllTiles) {
  MiniAtlasConfig C;
  C.Copy = true;
  LoopNest Nest = buildMiniAtlasNest(C);
  // Every control loop steps by NB.
  SymbolId NB = Nest.Syms.lookup("NB");
  ASSERT_GE(NB, 0);
  int Controls = 0;
  Nest.forEachLoop([&](const Loop &L) {
    if (L.IsTileControl) {
      EXPECT_EQ(L.StepSym, NB);
      ++Controls;
    }
  });
  EXPECT_EQ(Controls, 3);
}

TEST(MiniAtlasTest, GridSearchFindsGoodConfig) {
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  MiniAtlasResult R = tuneMiniAtlas(Backend, /*N=*/96, /*CopyMinSize=*/48);
  EXPECT_TRUE(R.Best.Copy); // 96 >= 48
  EXPECT_GT(R.Trace.Evaluations, 30u);

  // The found configuration beats the naive kernel comfortably.
  LoopNest MM = makeMatMul();
  RunResult Naive = simulateNest(MM, {{"N", 96}}, M);
  EXPECT_LT(R.BestCost, Naive.Cycles / 2);
}

TEST(MiniAtlasTest, NoCopyBelowThreshold) {
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  MiniAtlasResult R =
      tuneMiniAtlas(Backend, /*N=*/32, /*CopyMinSize=*/64);
  EXPECT_FALSE(R.Best.Copy);
}

TEST(VendorBlasTest, KernelComputesReferenceValues) {
  VendorBlasKernel K = vendorBlasMatMul(sgiScaled());
  expectMMValuesCorrect(K.Nest, 13, K.FixedParams);
  expectMMValuesCorrect(K.Nest, 24, K.FixedParams);
}

TEST(VendorBlasTest, FrozenTilesRespectL1Capacity) {
  MachineDesc M = sgiScaled();
  VendorBlasKernel K = vendorBlasMatMul(M);
  int64_t TK = 0, TJ = 0;
  for (auto &[Name, V] : K.FixedParams) {
    if (Name == "TK")
      TK = V;
    if (Name == "TJ")
      TJ = V;
  }
  ASSERT_GT(TK, 0);
  ASSERT_GT(TJ, 0);
  EXPECT_LE(TK * TJ, effectiveCapacityElems(M.cache(0), 8));
}

TEST(VendorBlasTest, BeatsNativeCompiler) {
  MachineDesc M = sgiScaled();
  LoopNest MM = makeMatMul();
  VendorBlasKernel K = vendorBlasMatMul(M);
  ParamBindings P = K.FixedParams;
  P.push_back({"N", 96});
  RunResult Vendor = simulateNest(K.Nest, P, M);
  LoopNest Native =
      nativeCompiledNest(MM, NativeCompilerFlavor::Aggressive, M);
  RunResult NativeR = simulateNest(Native, {{"N", 96}}, M);
  EXPECT_LT(Vendor.Cycles, NativeR.Cycles);
}
