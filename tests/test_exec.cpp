//===- tests/test_exec.cpp - exec/ unit + property tests ------------------===//

#include "core/DeriveVariants.h"
#include "core/Search.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"
#include "kernels/Reference.h"

#include <gtest/gtest.h>

using namespace eco;

namespace {

MachineDesc testMachine() { return MachineDesc::sgiR10000().scaledBy(64); }

/// Runs the MatMul nest in value mode and returns C.
std::vector<double> runMatMulValues(const LoopNest &Nest,
                                    const MatMulIds &Ids, int64_t N,
                                    ParamBindings Extra = {}) {
  MachineDesc M = testMachine();
  MemHierarchySim Sim(M);
  ParamBindings Bindings = {{"N", N}};
  for (auto &B : Extra)
    Bindings.push_back(B);
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor Exec(Nest, makeEnv(Nest, Bindings), Sim, Opts);
  fillDeterministic(Exec.dataOf(Ids.A), 1);
  fillDeterministic(Exec.dataOf(Ids.B), 2);
  fillDeterministic(Exec.dataOf(Ids.C), 3);
  Exec.run();
  return Exec.dataOf(Ids.C);
}

std::vector<double> referenceC(int64_t N) {
  std::vector<double> A(N * N), B(N * N), C(N * N);
  fillDeterministic(A, 1);
  fillDeterministic(B, 2);
  fillDeterministic(C, 3);
  referenceMatMul(A, B, C, N);
  return C;
}

/// Every HWCounters field must match exactly; cycles are compared with
/// ==, not within ULPs.
void expectSameCounters(const HWCounters &Fast, const HWCounters &Ref,
                        const std::string &Ctx) {
  EXPECT_EQ(Fast.Loads, Ref.Loads) << Ctx;
  EXPECT_EQ(Fast.Stores, Ref.Stores) << Ctx;
  EXPECT_EQ(Fast.Prefetches, Ref.Prefetches) << Ctx;
  EXPECT_EQ(Fast.Flops, Ref.Flops) << Ctx;
  EXPECT_EQ(Fast.LoopIters, Ref.LoopIters) << Ctx;
  for (unsigned L = 0; L < MaxCacheLevels; ++L)
    EXPECT_EQ(Fast.CacheMisses[L], Ref.CacheMisses[L]) << Ctx << " L" << L;
  EXPECT_EQ(Fast.TlbMisses, Ref.TlbMisses) << Ctx;
  EXPECT_EQ(Fast.IssueCycles, Ref.IssueCycles) << Ctx;
  EXPECT_EQ(Fast.StallCycles, Ref.StallCycles) << Ctx;
}

} // namespace

TEST(AddressMapTest, ColMajorStrides) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  Env E = makeEnv(Nest, {{"N", 10}});
  AddressMap AM(Nest, E);
  const uint64_t Base = AddressMap::BaseAddr;
  EXPECT_EQ(AM.baseOf(Ids.A), Base);
  // Column-major: first subscript is contiguous.
  EXPECT_EQ(AM.stridesOf(Ids.A)[0], 8);
  EXPECT_EQ(AM.stridesOf(Ids.A)[1], 80);
  EXPECT_EQ(AM.numElements(Ids.A), 100);
  // Arrays allocated back to back, no padding between them.
  EXPECT_EQ(AM.baseOf(Ids.B), Base + 800);
  EXPECT_EQ(AM.baseOf(Ids.C), Base + 1600);
  EXPECT_EQ(AM.endAddr(), Base + 2400);
}

TEST(AddressMapTest, RowMajorStrides) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  ArrayId A = Nest.declareArray(
      {"A", {AffineExpr::sym(N), AffineExpr::sym(N)}, 8, Layout::RowMajor});
  Env E = makeEnv(Nest, {{"N", 10}});
  AddressMap AM(Nest, E);
  EXPECT_EQ(AM.stridesOf(A)[0], 80);
  EXPECT_EQ(AM.stridesOf(A)[1], 8);
}

TEST(ExecutorValues, MatMulMatchesReference) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  for (int64_t N : {1, 2, 5, 8, 13}) {
    std::vector<double> C = runMatMulValues(Nest, Ids, N);
    std::vector<double> Ref = referenceC(N);
    ASSERT_EQ(C.size(), Ref.size());
    for (size_t X = 0; X < C.size(); ++X)
      EXPECT_DOUBLE_EQ(C[X], Ref[X]) << "N=" << N << " idx=" << X;
  }
}

TEST(ExecutorValues, JacobiMatchesReference) {
  JacobiIds Ids;
  LoopNest Nest = makeJacobi(&Ids);
  for (int64_t N : {3, 4, 7, 10}) {
    MemHierarchySim Sim(testMachine());
    ExecOptions Opts;
    Opts.ComputeValues = true;
    Executor Exec(Nest, makeEnv(Nest, {{"N", N}}), Sim, Opts);
    fillDeterministic(Exec.dataOf(Ids.B), 7);
    Exec.run();

    std::vector<double> In(N * N * N), Ref(N * N * N, 0.0);
    fillDeterministic(In, 7);
    referenceJacobi(In, Ref, N);
    for (size_t X = 0; X < Ref.size(); ++X)
      EXPECT_DOUBLE_EQ(Exec.dataOf(Ids.A)[X], Ref[X])
          << "N=" << N << " idx=" << X;
  }
}

TEST(ExecutorCounters, MatMulOpCounts) {
  LoopNest Nest = makeMatMul();
  int64_t N = 16;
  RunResult R = simulateNest(Nest, {{"N", N}}, testMachine());
  uint64_t N3 = static_cast<uint64_t>(N) * N * N;
  EXPECT_EQ(R.Counters.Flops, 2 * N3);
  EXPECT_EQ(R.Counters.Loads, 3 * N3);  // C, A, B
  EXPECT_EQ(R.Counters.Stores, N3);     // C
  EXPECT_EQ(R.Counters.LoopIters,
            static_cast<uint64_t>(N) + N * N + N3);
  EXPECT_GT(R.Cycles, 0);
  EXPECT_GT(R.Mflops, 0);
}

TEST(ExecutorCounters, JacobiOpCounts) {
  LoopNest Nest = makeJacobi();
  int64_t N = 10;
  RunResult R = simulateNest(Nest, {{"N", N}}, testMachine());
  uint64_t Interior = static_cast<uint64_t>(N - 2) * (N - 2) * (N - 2);
  EXPECT_EQ(R.Counters.Flops, 6 * Interior);
  EXPECT_EQ(R.Counters.Loads, 6 * Interior);
  EXPECT_EQ(R.Counters.Stores, Interior);
}

TEST(ExecutorProperty, FastPathAndValueModeAgreeOnCounters) {
  // The counters-only fast path must produce exactly the value-mode
  // interpreter's counters, cycles included, on every derived variant:
  // tiled, copied, unrolled-and-jammed, scalar-replaced and prefetching
  // bodies, on a 2-way and a direct-mapped L1. The sizes are prime
  // (jacobi's interior N-2 too), so every unrolled loop runs both its
  // jammed body and its epilogue.
  struct KernelCase {
    const char *Name;
    LoopNest Nest;
    int64_t N;
  };
  KernelCase Kernels[] = {{"matmul", makeMatMul(), 29},
                          {"jacobi", makeJacobi(), 31},
                          {"matvec", makeMatVec(), 61}};
  const MachineDesc Machines[] = {MachineDesc::sgiR10000().scaledBy(16),
                                  MachineDesc::ultraSparcIIe().scaledBy(16)};
  size_t Runs = 0;
  for (const KernelCase &K : Kernels) {
    for (const MachineDesc &M : Machines) {
      for (const DerivedVariant &V : deriveVariants(K.Nest, M)) {
        Env Initial = initialConfig(V, M, {{"N", K.N}});
        Env Prefetching = Initial;
        for (const PrefetchSpec &P : V.Prefetch)
          Prefetching.set(P.DistanceParam, 2);
        for (const Env *Cfg : {&Initial, &Prefetching}) {
          LoopNest Exec = V.instantiate(*Cfg, M);
          HWCounters Counters[2];
          for (bool Values : {false, true}) {
            MemHierarchySim Sim(M);
            ExecOptions Opts;
            Opts.ComputeValues = Values;
            Executor(Exec, *Cfg, Sim, Opts).run();
            Counters[Values] = Sim.counters();
          }
          expectSameCounters(Counters[0], Counters[1],
                             std::string(K.Name) + " " + M.Name + " " +
                                 V.configString(*Cfg));
          ++Runs;
        }
      }
    }
  }
  EXPECT_GE(Runs, 20u);
}

TEST(ExecutorDeterminism, RepeatedRunsIdentical) {
  LoopNest Nest = makeMatMul();
  RunResult A = simulateNest(Nest, {{"N", 24}}, testMachine());
  RunResult B = simulateNest(Nest, {{"N", 24}}, testMachine());
  EXPECT_DOUBLE_EQ(A.Cycles, B.Cycles);
  EXPECT_EQ(A.Counters.l1Misses(), B.Counters.l1Misses());
}

TEST(ExecutorLoops, EmptyRangeRunsNothing) {
  LoopNest Nest = makeJacobi();
  // N = 2: interior 1..0 is empty.
  RunResult R = simulateNest(Nest, {{"N", 2}}, testMachine());
  EXPECT_EQ(R.Counters.Flops, 0u);
  EXPECT_EQ(R.Counters.Loads, 0u);
}

TEST(ExecutorLoops, UnrolledLoopWithEpilogue) {
  // Hand-build: DO I = 0,9 unroll 4 -> main covers 0..7, epilogue 8..9.
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId I = Nest.declareLoopVar("I");
  ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N)}});

  auto MakeInc = [&](int Off) {
    ArrayRef R(A, {AffineExpr::sym(I) + Off});
    return Stmt::makeCompute(
        R, ScalarExpr::makeBinary(ScalarExprKind::Add,
                                  ScalarExpr::makeRead(R),
                                  ScalarExpr::makeConst(1.0)));
  };

  auto L = std::make_unique<Loop>(I, AffineExpr::constant(0),
                                  Bound(AffineExpr::sym(N) - 1));
  L->Unroll = 4;
  L->Step = 4;
  for (int U = 0; U < 4; ++U)
    L->Items.push_back(BodyItem(MakeInc(U)));
  L->Epilogue.push_back(BodyItem(MakeInc(0)));
  Nest.Items.push_back(BodyItem(std::move(L)));

  MemHierarchySim Sim(testMachine());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor Exec(Nest, makeEnv(Nest, {{"N", 10}}), Sim, Opts);
  Exec.run();
  // Every element incremented exactly once.
  for (int X = 0; X < 10; ++X)
    EXPECT_DOUBLE_EQ(Exec.dataOf(A)[X], 1.0) << "idx=" << X;
  // 2 main iterations + 2 epilogue iterations.
  EXPECT_EQ(Sim.counters().LoopIters, 4u);
  EXPECT_EQ(Sim.counters().Stores, 10u);
}

TEST(ExecutorLoops, ParamStepLoop) {
  // DO II = 0,N-1,TI with an empty-body inner statement counting stores.
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId TI = Nest.declareParam("TI");
  SymbolId II = Nest.declareLoopVar("II");
  ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N)}});

  ArrayRef R(A, {AffineExpr::sym(II)});
  auto L = std::make_unique<Loop>(II, AffineExpr::constant(0),
                                  Bound(AffineExpr::sym(N) - 1));
  L->StepSym = TI;
  L->IsTileControl = true;
  L->Items.push_back(
      BodyItem(Stmt::makeCompute(R, ScalarExpr::makeConst(0.0))));
  Nest.Items.push_back(BodyItem(std::move(L)));

  RunResult Res =
      simulateNest(Nest, {{"N", 100}, {"TI", 32}}, testMachine());
  EXPECT_EQ(Res.Counters.Stores, 4u); // II = 0, 32, 64, 96
}

TEST(ExecutorCopy, CopyInMovesTileAndCountsTraffic) {
  // Copy an 8x4 tile of B[N,N] starting at (2,3) into P[8,4], clamped.
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  ArrayId B = Nest.declareArray(
      {"B", {AffineExpr::sym(N), AffineExpr::sym(N)}});
  ArrayId P = Nest.declareArray({"P",
                                 {AffineExpr::constant(8),
                                  AffineExpr::constant(4)},
                                 8,
                                 Layout::ColMajor,
                                 ArrayRole::CopyBuffer});
  std::vector<CopyRegionDim> Region;
  Region.push_back({AffineExpr::constant(2),
                    Bound::min(AffineExpr::constant(8),
                               AffineExpr::sym(N) - 2)});
  Region.push_back({AffineExpr::constant(3),
                    Bound::min(AffineExpr::constant(4),
                               AffineExpr::sym(N) - 3)});
  Nest.Items.push_back(BodyItem(Stmt::makeCopyIn(P, B, Region)));

  MemHierarchySim Sim(testMachine());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor Exec(Nest, makeEnv(Nest, {{"N", 16}}), Sim, Opts);
  fillDeterministic(Exec.dataOf(B), 5);
  Exec.run();
  // 32 elements moved: 32 loads + 32 stores.
  EXPECT_EQ(Sim.counters().Loads, 32u);
  EXPECT_EQ(Sim.counters().Stores, 32u);
  for (int JJ = 0; JJ < 4; ++JJ)
    for (int II = 0; II < 8; ++II)
      EXPECT_DOUBLE_EQ(Exec.dataOf(P)[II + 8 * JJ],
                       Exec.dataOf(B)[(II + 2) + 16 * (JJ + 3)]);
}

TEST(ExecutorCopy, CopyClampsAtArrayEdge) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  ArrayId B = Nest.declareArray({"B", {AffineExpr::sym(N)}});
  ArrayId P = Nest.declareArray({"P",
                                 {AffineExpr::constant(8)},
                                 8,
                                 Layout::ColMajor,
                                 ArrayRole::CopyBuffer});
  std::vector<CopyRegionDim> Region;
  Region.push_back({AffineExpr::constant(6),
                    Bound::min(AffineExpr::constant(8),
                               AffineExpr::sym(N) - 6)});
  Nest.Items.push_back(BodyItem(Stmt::makeCopyIn(P, B, Region)));
  RunResult R = simulateNest(Nest, {{"N", 10}}, testMachine());
  EXPECT_EQ(R.Counters.Loads, 4u); // only elements 6..9 exist
}

TEST(ExecutorPrefetch, PrefetchStmtIssuesPrefetches) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId I = Nest.declareLoopVar("I");
  ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N) + 64}});

  ArrayRef Cur(A, {AffineExpr::sym(I)});
  ArrayRef Ahead(A, {AffineExpr::sym(I) + 16});
  auto L = std::make_unique<Loop>(I, AffineExpr::constant(0),
                                  Bound(AffineExpr::sym(N) - 1));
  L->Items.push_back(BodyItem(Stmt::makePrefetch(Ahead)));
  L->Items.push_back(BodyItem(Stmt::makeCompute(
      Cur, ScalarExpr::makeBinary(ScalarExprKind::Add,
                                  ScalarExpr::makeRead(Cur),
                                  ScalarExpr::makeConst(1.0)))));
  Nest.Items.push_back(BodyItem(std::move(L)));

  RunResult R = simulateNest(Nest, {{"N", 256}}, testMachine());
  EXPECT_EQ(R.Counters.Prefetches, 256u);
  // Prefetches count as loads: 256 demand + 256 prefetch.
  EXPECT_EQ(R.Counters.Loads, 512u);
}

TEST(ExecutorPrefetch, PrefetchingReducesCycles) {
  // Streaming read of a large array with vs without prefetch.
  auto MakeStream = [](bool WithPrefetch) {
    LoopNest Nest;
    SymbolId N = Nest.declareProblemSize("N");
    SymbolId I = Nest.declareLoopVar("I");
    ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N) + 512}});
    ArrayRef Cur(A, {AffineExpr::sym(I)});
    auto L = std::make_unique<Loop>(I, AffineExpr::constant(0),
                                    Bound(AffineExpr::sym(N) - 1));
    // Distance 16 elements = 4 cache lines: far enough to hide latency,
    // close enough that in-flight lines never conflict in the tiny scaled
    // L1 (a 16-line distance would put 3 live lines in a 2-way set).
    if (WithPrefetch)
      L->Items.push_back(BodyItem(
          Stmt::makePrefetch(ArrayRef(A, {AffineExpr::sym(I) + 16}))));
    L->Items.push_back(BodyItem(Stmt::makeCompute(
        Cur, ScalarExpr::makeBinary(ScalarExprKind::Add,
                                    ScalarExpr::makeRead(Cur),
                                    ScalarExpr::makeConst(1.0)))));
    Nest.Items.push_back(BodyItem(std::move(L)));
    return simulateNest(Nest, {{"N", 4096}}, testMachine());
  };
  RunResult NoPf = MakeStream(false);
  RunResult Pf = MakeStream(true);
  EXPECT_LT(Pf.Cycles, NoPf.Cycles);
  // Misses stay comparable (prefetch fills count as misses).
  EXPECT_NEAR(static_cast<double>(Pf.Counters.l1Misses()),
              static_cast<double>(NoPf.Counters.l1Misses()),
              NoPf.Counters.l1Misses() * 0.1 + 8);
}
