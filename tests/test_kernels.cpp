//===- tests/test_kernels.cpp - kernels/ and search-stage tests -----------===//

#include "core/Search.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"
#include "kernels/Reference.h"

#include <gtest/gtest.h>

using namespace eco;

namespace {
MachineDesc sgiScaled() { return MachineDesc::sgiR10000().scaledBy(16); }
} // namespace

TEST(MatVec, StructureAndReference) {
  MatVecIds Ids;
  LoopNest Nest = makeMatVec(&Ids);
  auto Spine = Nest.spine();
  ASSERT_EQ(Spine.size(), 2u);
  EXPECT_EQ(Spine[0]->Var, Ids.J);
  EXPECT_EQ(Spine[1]->Var, Ids.I);

  const int64_t N = 13;
  MemHierarchySim Sim(sgiScaled());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(Nest, makeEnv(Nest, {{"N", N}}), Sim, Opts);
  fillDeterministic(E.dataOf(Ids.A), 1);
  fillDeterministic(E.dataOf(Ids.X), 2);
  fillDeterministic(E.dataOf(Ids.Y), 3);
  E.run();

  std::vector<double> A(N * N), X(N), Y(N);
  fillDeterministic(A, 1);
  fillDeterministic(X, 2);
  fillDeterministic(Y, 3);
  referenceMatVec(A, X, Y, N);
  for (int64_t V = 0; V < N; ++V)
    ASSERT_DOUBLE_EQ(E.dataOf(Ids.Y)[V], Y[V]) << "idx " << V;
}

TEST(MatVec, CountsAreRight) {
  LoopNest Nest = makeMatVec();
  const int64_t N = 32;
  RunResult R = simulateNest(Nest, {{"N", N}}, sgiScaled());
  EXPECT_EQ(R.Counters.Flops, static_cast<uint64_t>(2 * N * N));
  EXPECT_EQ(R.Counters.Loads, static_cast<uint64_t>(3 * N * N));
  EXPECT_EQ(R.Counters.Stores, static_cast<uint64_t>(N * N));
}

TEST(MatVec, TuningImprovesAndStaysCorrect) {
  LoopNest Nest = makeMatVec();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  const int64_t N = 256;
  TuneResult R = tune(Nest, Backend, {{"N", N}});
  ASSERT_GE(R.BestVariant, 0);
  RunResult Naive = simulateNest(Nest, {{"N", N}}, M);
  EXPECT_LT(R.BestCost, Naive.Cycles);

  // Correctness of the winner at a small size.
  const int64_t NV = 17;
  Env Cfg = R.BestConfig;
  Cfg.set(R.BestExecutable.Syms.lookup("N"), NV);
  MemHierarchySim Sim(M);
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(R.BestExecutable, Cfg, Sim, Opts);
  fillDeterministic(E.dataOf(0), 1);
  fillDeterministic(E.dataOf(1), 2);
  fillDeterministic(E.dataOf(2), 3);
  E.run();
  std::vector<double> A(NV * NV), X(NV), Y(NV);
  fillDeterministic(A, 1);
  fillDeterministic(X, 2);
  fillDeterministic(Y, 3);
  referenceMatVec(A, X, Y, NV);
  for (int64_t V = 0; V < NV; ++V)
    ASSERT_DOUBLE_EQ(E.dataOf(2)[V], Y[V]) << "idx " << V;
}

TEST(SearchStages, SharedTileParamsMergeStages) {
  // The paper: "the value of TK affects the tile sizes of both L1 and L2
  // caches. In this case the search of tiling parameters for both levels
  // is performed in the same stage."
  LoopNest MM = makeMatMul();
  MachineDesc M = MachineDesc::sgiR10000();
  for (const DerivedVariant &V : deriveVariants(MM, M)) {
    bool BothLevelsTile =
        V.Spec.CacheLevels.size() == 2 &&
        !V.Spec.CacheLevels[0].NewTiledLoops.empty() &&
        !V.Spec.CacheLevels[1].NewTiledLoops.empty();
    if (!BothLevelsTile)
      continue;
    SearchSpace Space(V);
    const std::vector<std::vector<SymbolId>> &Stages = Space.tileStages();
    // TK appears in both levels' constraints => one merged stage holding
    // all three tile parameters.
    ASSERT_EQ(Stages.size(), 1u) << V.describe();
    EXPECT_EQ(Stages[0].size(), V.TileParamOf.size());
  }
}

TEST(SearchStages, EveryTileParamBelongsToAStage) {
  LoopNest MM = makeMatMul();
  LoopNest Jac = makeJacobi();
  MachineDesc M = MachineDesc::sgiR10000();
  for (const LoopNest *Nest : {&MM, &Jac}) {
    for (const DerivedVariant &V : deriveVariants(*Nest, M)) {
      std::set<SymbolId> Covered;
      SearchSpace Space(V);
      for (const auto &Stage : Space.tileStages())
        Covered.insert(Stage.begin(), Stage.end());
      for (const auto &[Var, Param] : V.TileParamOf)
        EXPECT_TRUE(Covered.count(Param))
            << V.describe() << " missing "
            << V.Skeleton.Syms.name(Param);
    }
  }
}

TEST(SearchStages, StagesAreDisjoint) {
  LoopNest MM = makeMatMul();
  MachineDesc M = MachineDesc::sgiR10000();
  for (const DerivedVariant &V : deriveVariants(MM, M)) {
    std::set<SymbolId> Seen;
    SearchSpace Space(V);
    for (const auto &Stage : Space.tileStages())
      for (SymbolId P : Stage) {
        EXPECT_FALSE(Seen.count(P)) << "parameter in two stages";
        Seen.insert(P);
      }
  }
}

TEST(Kernels, PrintedFormsAreStable) {
  EXPECT_NE(makeMatVec().print().find("Y[I] = Y[I]+A[I,J]*X[J]"),
            std::string::npos);
  EXPECT_EQ(makeMatMul().Name, "matmul");
  EXPECT_EQ(makeJacobi().Name, "jacobi");
  EXPECT_EQ(makeMatVec().Name, "matvec");
}

TEST(Kernels, MatVecDerivesVariantsWithYInRegisters) {
  // Y[I] has temporal reuse in J (two accesses) -> J innermost, Y in
  // registers, I unrolled.
  MatVecIds Ids;
  LoopNest Nest = makeMatVec(&Ids);
  std::vector<DerivedVariant> Vs =
      deriveVariants(Nest, MachineDesc::sgiR10000());
  ASSERT_FALSE(Vs.empty());
  for (const DerivedVariant &V : Vs) {
    EXPECT_EQ(V.Spec.RegLoop, Ids.J);
    EXPECT_EQ(V.Skeleton.array(V.Spec.RegArray).Name, "Y");
  }
}
