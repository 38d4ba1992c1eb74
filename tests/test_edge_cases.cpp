//===- tests/test_edge_cases.cpp - Boundary and degenerate inputs ---------===//
//
// Degenerate sizes, extreme parameters, and unusual layouts: the places
// transformation pipelines typically break.
//
//===----------------------------------------------------------------------===//

#include "analysis/Reuse.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"
#include "kernels/Reference.h"
#include "transform/Pad.h"
#include "transform/Permute.h"
#include "transform/ScalarReplace.h"
#include "transform/Tile.h"
#include "transform/UnrollJam.h"

#include <gtest/gtest.h>

using namespace eco;

namespace {
MachineDesc tiny() { return MachineDesc::sgiR10000().scaledBy(64); }

void checkMM(const LoopNest &Nest, const MatMulIds &Ids, int64_t N,
             ParamBindings Params) {
  Params.push_back({"N", N});
  MemHierarchySim Sim(tiny());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(Nest, makeEnv(Nest, Params), Sim, Opts);
  fillDeterministic(E.dataOf(Ids.A), 1);
  fillDeterministic(E.dataOf(Ids.B), 2);
  fillDeterministic(E.dataOf(Ids.C), 3);
  E.run();
  std::vector<double> A(N * N), B(N * N), C(N * N);
  fillDeterministic(A, 1);
  fillDeterministic(B, 2);
  fillDeterministic(C, 3);
  referenceMatMul(A, B, C, N);
  for (int64_t X = 0; X < N * N; ++X)
    ASSERT_DOUBLE_EQ(E.dataOf(Ids.C)[X], C[X]) << "idx " << X;
}
} // namespace

TEST(EdgeCases, MatMulN1) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  unrollAndJam(Nest, Ids.J, 4); // unroll far larger than the trip count
  scalarReplaceInvariant(Nest, Ids.I);
  checkMM(Nest, Ids, 1, {});
}

TEST(EdgeCases, UnrollEqualsTripCount) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  unrollAndJam(Nest, Ids.J, 6);
  checkMM(Nest, Ids, 6, {}); // exactly one jammed group, empty epilogue
}

TEST(EdgeCases, UnrollLargerThanTripRunsEpilogueOnly) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  unrollAndJam(Nest, Ids.J, 16);
  checkMM(Nest, Ids, 5, {});
}

TEST(EdgeCases, TileSizeOne) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  tileLoop(Nest, Ids.J, "JJ", "TJ");
  checkMM(Nest, Ids, 7, {{"TJ", 1}});
}

TEST(EdgeCases, TileLargerThanProblem) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  tileLoop(Nest, Ids.K, "KK", "TK");
  checkMM(Nest, Ids, 5, {{"TK", 1000}});
}

TEST(EdgeCases, JacobiMinimalInterior) {
  JacobiIds Ids;
  LoopNest Nest = makeJacobi(&Ids);
  rotatingScalarReplace(Nest, Ids.I);
  const int64_t N = 3; // a single interior point
  MemHierarchySim Sim(tiny());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(Nest, makeEnv(Nest, {{"N", N}}), Sim, Opts);
  fillDeterministic(E.dataOf(Ids.B), 7);
  E.run();
  std::vector<double> In(N * N * N), Ref(N * N * N, 0.0);
  fillDeterministic(In, 7);
  referenceJacobi(In, Ref, N);
  for (size_t X = 0; X < Ref.size(); ++X)
    ASSERT_DOUBLE_EQ(E.dataOf(Ids.A)[X], Ref[X]);
}

TEST(EdgeCases, RowMajorMatMulEndToEnd) {
  // Row-major arrays flip the contiguous dimension; reuse analysis and
  // execution must both respect it.
  LoopNest Nest;
  Nest.Name = "matmul-rowmajor";
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId K = Nest.declareLoopVar("K");
  SymbolId J = Nest.declareLoopVar("J");
  SymbolId I = Nest.declareLoopVar("I");
  AffineExpr NE = AffineExpr::sym(N);
  ArrayId A = Nest.declareArray({"A", {NE, NE}, 8, Layout::RowMajor});
  ArrayId B = Nest.declareArray({"B", {NE, NE}, 8, Layout::RowMajor});
  ArrayId CA = Nest.declareArray({"C", {NE, NE}, 8, Layout::RowMajor});
  ArrayRef RC(CA, {AffineExpr::sym(I), AffineExpr::sym(J)});
  ArrayRef RA(A, {AffineExpr::sym(I), AffineExpr::sym(K)});
  ArrayRef RB(B, {AffineExpr::sym(K), AffineExpr::sym(J)});
  auto Rhs = ScalarExpr::makeBinary(
      ScalarExprKind::Add, ScalarExpr::makeRead(RC),
      ScalarExpr::makeBinary(ScalarExprKind::Mul, ScalarExpr::makeRead(RA),
                             ScalarExpr::makeRead(RB)));
  auto LI = std::make_unique<Loop>(I, AffineExpr::constant(0),
                                   Bound(NE - 1));
  LI->Items.push_back(BodyItem(Stmt::makeCompute(RC, std::move(Rhs))));
  auto LJ = std::make_unique<Loop>(J, AffineExpr::constant(0),
                                   Bound(NE - 1));
  LJ->Items.push_back(BodyItem(std::move(LI)));
  auto LK = std::make_unique<Loop>(K, AffineExpr::constant(0),
                                   Bound(NE - 1));
  LK->Items.push_back(BodyItem(std::move(LJ)));
  Nest.Items.push_back(BodyItem(std::move(LK)));

  // Reuse analysis: the contiguous direction is now J (last subscript).
  Env SizeEnv = makeEnv(Nest, {{"N", 64}});
  ReuseAnalysis RA2(Nest, SizeEnv);
  int FamC = -1;
  for (const RefInfo &R : RA2.refs())
    if (R.Ref.Array == CA)
      FamC = R.Family;
  EXPECT_TRUE(RA2.reuse(FamC, J).SelfSpatial);
  EXPECT_FALSE(RA2.reuse(FamC, I).SelfSpatial);

  // Row-major value semantics (C[i*N+j] layout).
  const int64_t NV = 8;
  MemHierarchySim Sim(tiny());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(Nest, makeEnv(Nest, {{"N", NV}}), Sim, Opts);
  for (int64_t X = 0; X < NV * NV; ++X) {
    E.dataOf(A)[X] = 1 + X % 7;
    E.dataOf(B)[X] = 2 + X % 5;
  }
  E.run();
  // Independent row-major reference.
  std::vector<double> Ref(NV * NV, 0.0);
  for (int64_t Ki = 0; Ki < NV; ++Ki)
    for (int64_t Ji = 0; Ji < NV; ++Ji)
      for (int64_t Ii = 0; Ii < NV; ++Ii)
        Ref[Ii * NV + Ji] +=
            (1 + (Ii * NV + Ki) % 7) * (2 + (Ki * NV + Ji) % 5);
  for (int64_t X = 0; X < NV * NV; ++X)
    ASSERT_DOUBLE_EQ(E.dataOf(CA)[X], Ref[X]) << "idx " << X;
}

TEST(EdgeCases, PadIgnoresRank1AndBuffers) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  Nest.declareArray({"V", {AffineExpr::sym(N)}}); // rank 1
  Nest.declareArray({"P",
                     {AffineExpr::sym(N), AffineExpr::sym(N)},
                     8,
                     Layout::ColMajor,
                     ArrayRole::CopyBuffer});
  EXPECT_EQ(padLeadingDims(Nest, 8), 0);
  EXPECT_EQ(padInnerDims(Nest, 8), 0);
  EXPECT_EQ(padDims(Nest, {8, 8}), 0);
}

TEST(EdgeCases, PadZeroIsNoop) {
  LoopNest Nest = makeJacobi();
  std::string Before = Nest.print();
  EXPECT_EQ(padLeadingDims(Nest, 0), 0);
  EXPECT_EQ(Nest.print(), Before);
}

TEST(EdgeCases, TuneTinyProblem) {
  // The full pipeline must survive a problem far smaller than any tile.
  LoopNest MM = makeMatMul();
  SimEvalBackend Backend(tiny());
  TuneResult R = tune(MM, Backend, {{"N", 4}});
  ASSERT_GE(R.BestVariant, 0);
  EXPECT_GT(R.BestCost, 0);
}

TEST(EdgeCases, SearchWithPrefetchDisabledHasNoPrefetches) {
  LoopNest MM = makeMatMul();
  SimEvalBackend Backend(tiny());
  TuneOptions Opts;
  Opts.Search.SearchPrefetch = false;
  Opts.Search.AdjustAfterPrefetch = false;
  TuneResult R = tune(MM, Backend, {{"N", 32}}, Opts);
  ASSERT_GE(R.BestVariant, 0);
  for (const PrefetchSpec &P : R.best().Prefetch)
    EXPECT_EQ(R.BestConfig.get(P.DistanceParam), 0);
  int Prefetches = 0;
  R.BestExecutable.forEachStmt([&](const Stmt &S) {
    Prefetches += S.Kind == StmtKind::Prefetch ? 1 : 0;
  });
  EXPECT_EQ(Prefetches, 0);
}

TEST(EdgeCases, StatementOnlyNestExecutes) {
  // A nest with a single top-level statement and no loops.
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N)}});
  ArrayRef R(A, {AffineExpr::constant(3)});
  Nest.Items.push_back(
      BodyItem(Stmt::makeCompute(R, ScalarExpr::makeConst(7.5))));
  MemHierarchySim Sim(tiny());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(Nest, makeEnv(Nest, {{"N", 8}}), Sim, Opts);
  E.run();
  EXPECT_DOUBLE_EQ(E.dataOf(A)[3], 7.5);
  EXPECT_EQ(Sim.counters().Stores, 1u);
}

TEST(EdgeCases, DeepTilingChain) {
  // Tile the same nest's three loops and permute controls outermost; a
  // 6-deep spine must execute correctly.
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  TileResult TK = tileLoop(Nest, Ids.K, "KK", "TK");
  TileResult TJ = tileLoop(Nest, Ids.J, "JJ", "TJ");
  TileResult TI = tileLoop(Nest, Ids.I, "II", "TI");
  permuteSpine(Nest, {TK.ControlVar, TJ.ControlVar, TI.ControlVar, Ids.I,
                      Ids.J, Ids.K});
  checkMM(Nest, Ids, 13, {{"TK", 4}, {"TJ", 3}, {"TI", 5}});
}

TEST(EdgeCases, RepeatedTuningSharesNothing) {
  // Two back-to-back tunes with different sizes must not leak state.
  LoopNest MM = makeMatMul();
  SimEvalBackend Backend(tiny());
  TuneResult R1 = tune(MM, Backend, {{"N", 24}});
  TuneResult R2 = tune(MM, Backend, {{"N", 48}});
  ASSERT_GE(R1.BestVariant, 0);
  ASSERT_GE(R2.BestVariant, 0);
  // Re-running the first exactly reproduces it.
  TuneResult R1b = tune(MM, Backend, {{"N", 24}});
  EXPECT_DOUBLE_EQ(R1.BestCost, R1b.BestCost);
}
