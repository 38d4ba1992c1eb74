//===- tests/test_transform.cpp - transform/ unit + property tests --------===//
//
// The core guarantee tested here: every transformation pipeline produces a
// nest that computes bit-identical results to the untransformed kernel
// (the transformations reorder memory traffic, never FP arithmetic order
// within an accumulation chain... more precisely, the pipelines used keep
// each C[i,j] accumulation in K-order, so results match exactly).
//
//===----------------------------------------------------------------------===//

#include "core/DeriveVariants.h"
#include "core/Search.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"
#include "kernels/Reference.h"
#include "support/NestHash.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "transform/Copy.h"
#include "transform/Pad.h"
#include "transform/Permute.h"
#include "transform/Prefetch.h"
#include "transform/ScalarReplace.h"
#include "transform/Tile.h"
#include "transform/TransformError.h"
#include "transform/UnrollJam.h"
#include "transform/Utils.h"

#include <gtest/gtest.h>

using namespace eco;

namespace {

MachineDesc testMachine() { return MachineDesc::sgiR10000().scaledBy(64); }

/// Figure 1(b)-style MatMul variant v1: tile K and J, order KK JJ I J K,
/// optionally copy B, unroll-and-jam I and J, scalar-replace C, optionally
/// prefetch A.
struct MMPipelineOpts {
  int UI = 1, UJ = 1;
  bool Copy = false;
  bool ScalarReplace = false;
  int PrefetchDist = 0; // 0 = none
};

LoopNest buildMMVariant1(MatMulIds &Ids, const MMPipelineOpts &Opts) {
  LoopNest Nest = makeMatMul(&Ids);
  TileResult TK = tileLoop(Nest, Ids.K, "KK", "TK");
  TileResult TJ = tileLoop(Nest, Ids.J, "JJ", "TJ");
  permuteSpine(Nest,
               {TK.ControlVar, TJ.ControlVar, Ids.I, Ids.J, Ids.K});

  ArrayId BTile = Ids.B;
  if (Opts.Copy) {
    std::vector<CopyDimSpec> Dims(2);
    Dims[0] = {AffineExpr::sym(TK.ControlVar), TK.TileParam,
               Bound::min(AffineExpr::sym(TK.TileParam),
                          AffineExpr::sym(Ids.N) -
                              AffineExpr::sym(TK.ControlVar))};
    Dims[1] = {AffineExpr::sym(TJ.ControlVar), TJ.TileParam,
               Bound::min(AffineExpr::sym(TJ.TileParam),
                          AffineExpr::sym(Ids.N) -
                              AffineExpr::sym(TJ.ControlVar))};
    BTile = applyCopy(Nest, Ids.B, /*BeforeLoopVar=*/Ids.I, "P", Dims);
  }

  if (Opts.UI > 1)
    unrollAndJam(Nest, Ids.I, Opts.UI);
  if (Opts.UJ > 1)
    unrollAndJam(Nest, Ids.J, Opts.UJ);
  if (Opts.ScalarReplace)
    scalarReplaceInvariant(Nest, Ids.K);
  if (Opts.PrefetchDist > 0)
    insertPrefetch(Nest, Ids.A, Ids.K, Opts.PrefetchDist, /*LineElems=*/4);
  (void)BTile;
  return Nest;
}

/// Runs a MatMul nest in value mode and compares against the reference.
void expectMMCorrect(const LoopNest &Nest, const MatMulIds &Ids, int64_t N,
                     ParamBindings Params) {
  Params.push_back({"N", N});
  MemHierarchySim Sim(testMachine());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor Exec(Nest, makeEnv(Nest, Params), Sim, Opts);
  fillDeterministic(Exec.dataOf(Ids.A), 1);
  fillDeterministic(Exec.dataOf(Ids.B), 2);
  fillDeterministic(Exec.dataOf(Ids.C), 3);
  Exec.run();

  std::vector<double> A(N * N), B(N * N), C(N * N);
  fillDeterministic(A, 1);
  fillDeterministic(B, 2);
  fillDeterministic(C, 3);
  referenceMatMul(A, B, C, N);
  for (int64_t X = 0; X < N * N; ++X)
    ASSERT_DOUBLE_EQ(Exec.dataOf(Ids.C)[X], C[X]) << "idx " << X;
}

} // namespace

TEST(TileTest, ProducesControlAndClampedElementLoop) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  TileResult R = tileLoop(Nest, Ids.J, "JJ", "TJ");
  ASSERT_GE(R.ControlVar, 0);
  ASSERT_GE(R.TileParam, 0);
  EXPECT_EQ(Nest.Syms.kind(R.TileParam), SymbolKind::Param);

  const Loop *Control = Nest.findLoop(R.ControlVar);
  ASSERT_NE(Control, nullptr);
  EXPECT_TRUE(Control->IsTileControl);
  EXPECT_EQ(Control->StepSym, R.TileParam);

  const Loop *Element = Nest.findLoop(Ids.J);
  ASSERT_NE(Element, nullptr);
  EXPECT_FALSE(Element->Upper.isSimple()); // min(JJ+TJ-1, N-1)
  EXPECT_TRUE(Element->Lower.uses(R.ControlVar));

  std::string P = Nest.print();
  EXPECT_NE(P.find("DO JJ = 0,N-1,TJ"), std::string::npos);
  EXPECT_NE(P.find("DO J = JJ,min(JJ+TJ-1,N-1)"), std::string::npos);
}

TEST(TileTest, TilingPreservesValues) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  tileLoop(Nest, Ids.K, "KK", "TK");
  tileLoop(Nest, Ids.J, "JJ", "TJ");
  // Non-dividing tile sizes exercise the min() clamps.
  expectMMCorrect(Nest, Ids, 13, {{"TK", 5}, {"TJ", 4}});
  expectMMCorrect(Nest, Ids, 8, {{"TK", 8}, {"TJ", 3}});
  expectMMCorrect(Nest, Ids, 7, {{"TK", 16}, {"TJ", 16}}); // tile > N
}

TEST(PermuteTest, ReordersSpine) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  permuteSpine(Nest, {Ids.I, Ids.K, Ids.J});
  auto Spine = Nest.spine();
  ASSERT_EQ(Spine.size(), 3u);
  EXPECT_EQ(Spine[0]->Var, Ids.I);
  EXPECT_EQ(Spine[1]->Var, Ids.K);
  EXPECT_EQ(Spine[2]->Var, Ids.J);
}

TEST(PermuteTest, AllSixMatMulOrdersComputeTheSame) {
  // MM is fully permutable; every order must give identical results
  // (per-element accumulation stays in K order in all of them).
  MatMulIds Ids;
  std::vector<std::vector<int>> Orders = {{0, 1, 2}, {0, 2, 1}, {1, 0, 2},
                                          {1, 2, 0}, {2, 0, 1}, {2, 1, 0}};
  for (const auto &Ord : Orders) {
    LoopNest Nest = makeMatMul(&Ids);
    SymbolId Vars[3] = {Ids.K, Ids.J, Ids.I};
    permuteSpine(Nest, {Vars[Ord[0]], Vars[Ord[1]], Vars[Ord[2]]});
    expectMMCorrect(Nest, Ids, 9, {});
  }
}

TEST(PermuteTest, TiledNestPermutesToPaperOrder) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  TileResult TK = tileLoop(Nest, Ids.K, "KK", "TK");
  TileResult TJ = tileLoop(Nest, Ids.J, "JJ", "TJ");
  permuteSpine(Nest, {TK.ControlVar, TJ.ControlVar, Ids.I, Ids.J, Ids.K});
  auto Spine = Nest.spine();
  ASSERT_EQ(Spine.size(), 5u);
  EXPECT_EQ(Spine[0]->Var, TK.ControlVar);
  EXPECT_EQ(Spine[4]->Var, Ids.K);
  expectMMCorrect(Nest, Ids, 10, {{"TK", 3}, {"TJ", 4}});
}

TEST(UnrollJamTest, StructureAndCounts) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  permuteSpine(Nest, {Ids.K, Ids.J, Ids.I}); // I innermost already
  unrollAndJam(Nest, Ids.J, 3);
  const Loop *LJ = Nest.findLoop(Ids.J);
  ASSERT_NE(LJ, nullptr);
  EXPECT_EQ(LJ->Unroll, 3);
  EXPECT_EQ(LJ->Step, 3);
  EXPECT_FALSE(LJ->Epilogue.empty());
  // Jammed: the I loop inside J holds 3 statement copies.
  ASSERT_EQ(LJ->Items.size(), 1u);
  ASSERT_TRUE(LJ->Items[0].isLoop());
  EXPECT_EQ(LJ->Items[0].loop().Items.size(), 3u);
}

TEST(UnrollJamTest, ValuesPreservedIncludingEpilogue) {
  for (int U : {2, 3, 4, 5}) {
    MatMulIds Ids;
    LoopNest Nest = makeMatMul(&Ids);
    unrollAndJam(Nest, Ids.J, U);
    unrollAndJam(Nest, Ids.K, 2);
    // N = 7, 9: neither divisible by 2..5 in general.
    expectMMCorrect(Nest, Ids, 7, {});
    expectMMCorrect(Nest, Ids, 9, {});
  }
}

TEST(UnrollJamTest, FactorOneIsNoop) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  unrollAndJam(Nest, Ids.J, 1);
  EXPECT_EQ(Nest.findLoop(Ids.J)->Unroll, 1);
  EXPECT_TRUE(Nest.findLoop(Ids.J)->Epilogue.empty());
}

TEST(UnrollJamTest, RejectsBodyHoldingScalarReplacedLoop) {
  // J's body is C's register load, the K loop reading and writing that
  // register, and C's store: jamming it would replicate the register
  // across the copies of the inner loop.
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  permuteSpine(Nest, {Ids.I, Ids.J, Ids.K});
  scalarReplaceInvariant(Nest, Ids.K);
  std::string Before = Nest.print();
  EXPECT_THROW(unrollAndJam(Nest, Ids.J, 2), TransformError);
  EXPECT_EQ(Nest.print(), Before);
}

TEST(ScalarReplaceTest, MatMulCGoesToRegisters) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  // K innermost so C[I,J] is invariant there.
  permuteSpine(Nest, {Ids.I, Ids.J, Ids.K});
  ScalarReplaceStats Stats = scalarReplaceInvariant(Nest, Ids.K);
  EXPECT_EQ(Stats.RegsAllocated, 1);
  EXPECT_EQ(Stats.RefsReplaced, 2); // C read + C write
  EXPECT_EQ(Nest.MaxLiveRegs, 1);

  std::string P = Nest.print();
  EXPECT_NE(P.find("r0 = C[I,J]"), std::string::npos);
  EXPECT_NE(P.find("C[I,J] = r0"), std::string::npos);
  EXPECT_NE(P.find("r0 = r0+A[I,K]*B[K,J]"), std::string::npos);

  expectMMCorrect(Nest, Ids, 11, {});
}

TEST(ScalarReplaceTest, UnrolledMatMulAllocatesUIxUJRegisters) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  permuteSpine(Nest, {Ids.I, Ids.J, Ids.K});
  unrollAndJam(Nest, Ids.J, 2);
  unrollAndJam(Nest, Ids.I, 4);
  scalarReplaceInvariant(Nest, Ids.K);
  // Main body: 4x2 = 8 live registers.
  EXPECT_EQ(Nest.MaxLiveRegs, 8);
  expectMMCorrect(Nest, Ids, 10, {});
  expectMMCorrect(Nest, Ids, 7, {}); // epilogues in both dims
}

TEST(ScalarReplaceTest, ReducesLoadsAndStores) {
  MatMulIds Ids;
  LoopNest Plain = makeMatMul(&Ids);
  permuteSpine(Plain, {Ids.I, Ids.J, Ids.K});
  RunResult RPlain = simulateNest(Plain, {{"N", 16}}, testMachine());

  MatMulIds Ids2;
  LoopNest SR = makeMatMul(&Ids2);
  permuteSpine(SR, {Ids2.I, Ids2.J, Ids2.K});
  scalarReplaceInvariant(SR, Ids2.K);
  RunResult RSR = simulateNest(SR, {{"N", 16}}, testMachine());

  // 3N^3 loads drop to ~2N^3 + N^2; N^3 stores drop to N^2.
  EXPECT_LT(RSR.Counters.Loads, RPlain.Counters.Loads);
  EXPECT_LT(RSR.Counters.Stores, RPlain.Counters.Stores);
  EXPECT_EQ(RSR.Counters.Stores, 16u * 16);
}

TEST(RotatingScalarReplaceTest, JacobiRotatesBWindow) {
  JacobiIds Ids;
  LoopNest Nest = makeJacobi(&Ids);
  ScalarReplaceStats Stats = rotatingScalarReplace(Nest, Ids.I);
  // One rotating chain (B[I-1],B[I+1]): 3 registers; the four
  // J/K-neighbors are single, unique refs (no CSE needed).
  EXPECT_EQ(Stats.RegsAllocated, 3);
  EXPECT_EQ(Nest.MaxLiveRegs, 3);

  std::string P = Nest.print();
  EXPECT_NE(P.find("rotate"), std::string::npos);

  // Value correctness.
  MemHierarchySim Sim(testMachine());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  int64_t N = 9;
  Executor Exec(Nest, makeEnv(Nest, {{"N", N}}), Sim, Opts);
  fillDeterministic(Exec.dataOf(Ids.B), 7);
  Exec.run();
  std::vector<double> In(N * N * N), Ref(N * N * N, 0.0);
  fillDeterministic(In, 7);
  referenceJacobi(In, Ref, N);
  for (size_t X = 0; X < Ref.size(); ++X)
    ASSERT_DOUBLE_EQ(Exec.dataOf(Ids.A)[X], Ref[X]) << "idx " << X;
}

TEST(RotatingScalarReplaceTest, ReducesLoads) {
  JacobiIds Ids;
  LoopNest Plain = makeJacobi(&Ids);
  RunResult RPlain = simulateNest(Plain, {{"N", 12}}, testMachine());

  JacobiIds Ids2;
  LoopNest Rot = makeJacobi(&Ids2);
  rotatingScalarReplace(Rot, Ids2.I);
  RunResult RRot = simulateNest(Rot, {{"N", 12}}, testMachine());

  // 6 loads/iter drop to 5 (B[I+1] fresh + 4 J/K neighbors).
  EXPECT_LT(RRot.Counters.Loads, RPlain.Counters.Loads);
}

TEST(RotatingScalarReplaceTest, UnrolledJacobiSharesAcrossCopies) {
  JacobiIds Ids;
  LoopNest Nest = makeJacobi(&Ids);
  unrollAndJam(Nest, Ids.J, 2);
  unrollAndJam(Nest, Ids.K, 2);
  rotatingScalarReplace(Nest, Ids.I);
  // Value correctness with epilogues (N-2 = 7 is odd).
  MemHierarchySim Sim(testMachine());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  int64_t N = 9;
  Executor Exec(Nest, makeEnv(Nest, {{"N", N}}), Sim, Opts);
  fillDeterministic(Exec.dataOf(Ids.B), 3);
  Exec.run();
  std::vector<double> In(N * N * N), Ref(N * N * N, 0.0);
  fillDeterministic(In, 3);
  referenceJacobi(In, Ref, N);
  for (size_t X = 0; X < Ref.size(); ++X)
    ASSERT_DOUBLE_EQ(Exec.dataOf(Ids.A)[X], Ref[X]) << "idx " << X;
}

TEST(CopyTest, FullVariant1PipelinePreservesValues) {
  for (int64_t N : {8, 11, 16}) {
    MatMulIds Ids;
    MMPipelineOpts Opts;
    Opts.UI = 4;
    Opts.UJ = 2;
    Opts.Copy = true;
    Opts.ScalarReplace = true;
    LoopNest Nest = buildMMVariant1(Ids, Opts);
    expectMMCorrect(Nest, Ids, N, {{"TK", 5}, {"TJ", 6}});
    expectMMCorrect(Nest, Ids, N, {{"TK", 8}, {"TJ", 8}});
  }
}

TEST(CopyTest, CopyRedirectsReferences) {
  MatMulIds Ids;
  MMPipelineOpts Opts;
  Opts.Copy = true;
  LoopNest Nest = buildMMVariant1(Ids, Opts);
  std::string P = Nest.print();
  EXPECT_NE(P.find("new P[TK,TJ]"), std::string::npos);
  EXPECT_NE(P.find("copy B["), std::string::npos);
  // Inner compute now references P with tile-relative subscripts.
  EXPECT_NE(P.find("P[K-KK,J-JJ]"), std::string::npos);
}

TEST(CopyTest, CopyEliminatesConflictMisses) {
  // Pathological leading dimension: columns of B conflict in a 2-way L1.
  // With the tile copied to a contiguous buffer the conflicts vanish.
  MatMulIds IdsA;
  MMPipelineOpts NoCopy;
  LoopNest Plain = buildMMVariant1(IdsA, NoCopy);
  MatMulIds IdsB;
  MMPipelineOpts WithCopy;
  WithCopy.Copy = true;
  LoopNest Copied = buildMMVariant1(IdsB, WithCopy);

  // N = 64 on the /64-scaled SGI: L1 = 512 B = 64 doubles, so one 64-double
  // column is exactly the cache size -> same-row elements of adjacent
  // columns collide. The 16x4 tile fits the contiguous buffer in L1.
  ParamBindings P = {{"N", 64}, {"TK", 16}, {"TJ", 4}};
  RunResult RPlain = simulateNest(Plain, P, testMachine());
  RunResult RCopy = simulateNest(Copied, P, testMachine());
  EXPECT_LT(RCopy.Counters.l1Misses(), RPlain.Counters.l1Misses());
  EXPECT_LT(RCopy.Counters.l2Misses(), RPlain.Counters.l2Misses());
  EXPECT_LT(RCopy.Cycles, RPlain.Cycles);

  // Even when the tile overflows L1 (16x16 doubles = 2 KB), copying still
  // wins on L2 misses and cycles.
  ParamBindings PBig = {{"N", 64}, {"TK", 16}, {"TJ", 16}};
  RunResult RPlainBig = simulateNest(Plain, PBig, testMachine());
  RunResult RCopyBig = simulateNest(Copied, PBig, testMachine());
  EXPECT_LT(RCopyBig.Counters.l2Misses(), RPlainBig.Counters.l2Misses());
  EXPECT_LT(RCopyBig.Cycles, RPlainBig.Cycles);
}

TEST(CopyTest, UnclampedTileSizesAreClampedToSourceExtent) {
  // applyCopy must clamp the copy region itself: a caller-supplied size
  // with no min() against the remaining extent would walk past the
  // source array on the boundary tile (non-dividing), when the tile
  // equals or exceeds the extent, and for extent-1 arrays.
  struct Case {
    int64_t N, TK, TJ;
  };
  for (Case C : {Case{13, 5, 5},   // non-dividing: last tile overhangs
                 Case{8, 8, 8},    // tile == extent
                 Case{7, 16, 16},  // tile > extent
                 Case{1, 4, 4}}) { // extent 1
    MatMulIds Ids;
    LoopNest Nest = makeMatMul(&Ids);
    TileResult TK = tileLoop(Nest, Ids.K, "KK", "TK");
    TileResult TJ = tileLoop(Nest, Ids.J, "JJ", "TJ");
    permuteSpine(Nest,
                 {TK.ControlVar, TJ.ControlVar, Ids.I, Ids.J, Ids.K});
    std::vector<CopyDimSpec> Dims(2);
    // Deliberately unclamped: Size is the bare tile parameter.
    Dims[0] = {AffineExpr::sym(TK.ControlVar), TK.TileParam,
               Bound(AffineExpr::sym(TK.TileParam))};
    Dims[1] = {AffineExpr::sym(TJ.ControlVar), TJ.TileParam,
               Bound(AffineExpr::sym(TJ.TileParam))};
    applyCopy(Nest, Ids.B, /*BeforeLoopVar=*/Ids.I, "P", Dims);
    SCOPED_TRACE(strformat("N=%d TK=%d TJ=%d", (int)C.N, (int)C.TK,
                           (int)C.TJ));
    expectMMCorrect(Nest, Ids, C.N, {{"TK", C.TK}, {"TJ", C.TJ}});
  }
}

TEST(PadTest, LeadingPadPreservesValuesAtEdgeExtents) {
  // Padding changes the flat layout, not the logical contents; the
  // kernel must compute identical results for N = 1 (extent-1 leading
  // dim), tiny, and non-dividing sizes.
  for (int64_t N : {1, 2, 13}) {
    const int64_t Pad = 3;
    MatMulIds Ids;
    LoopNest Nest = makeMatMul(&Ids);
    EXPECT_EQ(padDims(Nest, {Pad}), 3); // A, B, C all rank 2

    MemHierarchySim Sim(testMachine());
    ExecOptions Opts;
    Opts.ComputeValues = true;
    Executor Exec(Nest, makeEnv(Nest, {{"N", N}}), Sim, Opts);
    // Column-major with a padded leading dimension: logical (i, j) lives
    // at flat i + (N+Pad)*j.
    auto fillLogical = [&](ArrayId Arr, std::vector<double> &Ref,
                           uint64_t Seed) {
      Ref.assign(static_cast<size_t>(N * N), 0.0);
      fillDeterministic(Ref, Seed);
      for (int64_t J = 0; J < N; ++J)
        for (int64_t I = 0; I < N; ++I)
          Exec.dataOf(Arr)[I + (N + Pad) * J] = Ref[I + N * J];
    };
    std::vector<double> A, B, C;
    fillLogical(Ids.A, A, 1);
    fillLogical(Ids.B, B, 2);
    fillLogical(Ids.C, C, 3);
    Exec.run();
    referenceMatMul(A, B, C, N);
    for (int64_t J = 0; J < N; ++J)
      for (int64_t I = 0; I < N; ++I)
        ASSERT_DOUBLE_EQ(Exec.dataOf(Ids.C)[I + (N + Pad) * J],
                         C[I + N * J])
            << "i=" << I << " j=" << J << " N=" << N;
  }
}

TEST(PadTest, RankOneAndInnerDimRules) {
  // Rank-1 arrays are never padded (there is no leading dimension to
  // misalign), and a pad vector shorter than the rank leaves the
  // slowest-varying (last, column-major) dimension alone.
  LoopNest Nest;
  Nest.Name = "pads";
  SymbolId V = Nest.declareLoopVar("v");
  (void)V;
  ArrayId R1 = Nest.declareArray({"R1", {AffineExpr::constant(7)}});
  ArrayId R2 = Nest.declareArray(
      {"R2", {AffineExpr::constant(1), AffineExpr::constant(5)}});
  EXPECT_EQ(padDims(Nest, {2}), 1); // only R2
  Env E(Nest.Syms.size());
  EXPECT_EQ(Nest.array(R1).Extents[0].eval(E), 7);
  EXPECT_EQ(Nest.array(R2).Extents[0].eval(E), 3); // 1 + 2: extent-1 dim pads
  EXPECT_EQ(Nest.array(R2).Extents[1].eval(E), 5); // slowest dim untouched

  EXPECT_EQ(padDims(Nest, {4, 0}), 1);
  EXPECT_EQ(Nest.array(R2).Extents[0].eval(E), 7); // 3 + 4
  EXPECT_EQ(Nest.array(R2).Extents[1].eval(E), 5);
  EXPECT_EQ(padDims(Nest, {0, 0}), 0); // zero pad is a no-op
}

TEST(PrefetchTest, InsertionDedupesAtLineGranularity) {
  MatMulIds Ids;
  MMPipelineOpts Opts;
  Opts.UI = 4;
  Opts.UJ = 2;
  Opts.ScalarReplace = true;
  LoopNest Nest = buildMMVariant1(Ids, Opts);
  // A[I..I+3, K]: 4 contiguous elements = 1 line of 4 doubles.
  int PerIter = insertPrefetch(Nest, Ids.A, Ids.K, 8, /*LineElems=*/4);
  EXPECT_EQ(PerIter, 1);

  MatMulIds Ids2;
  LoopNest Nest2 = buildMMVariant1(Ids2, Opts);
  // Line of 2 doubles: the 4-element span needs 2 prefetches.
  EXPECT_EQ(insertPrefetch(Nest2, Ids2.A, Ids2.K, 8, 2), 2);
}

TEST(PrefetchTest, DistanceZeroAndNegativeAreRejected) {
  MatMulIds Ids;
  MMPipelineOpts Opts;
  LoopNest Nest = buildMMVariant1(Ids, Opts);
  EXPECT_EQ(insertPrefetch(Nest, Ids.A, Ids.K, 0, 4), 0);
  EXPECT_EQ(insertPrefetch(Nest, Ids.A, Ids.K, -3, 4), 0);
  RunResult R =
      simulateNest(Nest, {{"N", 8}, {"TK", 4}, {"TJ", 4}}, testMachine());
  EXPECT_EQ(R.Counters.Prefetches, 0u);
}

TEST(PrefetchTest, OutOfBoundsPrefetchesNeverReachTheSim) {
  // A is N x N = 64 elements; distance 64 shifts every prefetch flat
  // index by N*64 >= 512, so all of them fall outside A and none may be
  // issued to the simulator (phantom lines would pollute its caches).
  for (int Dist : {64, 1000}) {
    MatMulIds Ids;
    MMPipelineOpts Opts;
    LoopNest Nest = buildMMVariant1(Ids, Opts);
    insertPrefetch(Nest, Ids.A, Ids.K, Dist, 4);
    RunResult R =
        simulateNest(Nest, {{"N", 8}, {"TK", 4}, {"TJ", 4}}, testMachine());
    EXPECT_EQ(R.Counters.Prefetches, 0u) << "dist " << Dist;
  }
  // A sane distance still prefetches, values stay right either way.
  MatMulIds Ids;
  MMPipelineOpts Opts;
  LoopNest Nest = buildMMVariant1(Ids, Opts);
  insertPrefetch(Nest, Ids.A, Ids.K, 2, 4);
  RunResult R =
      simulateNest(Nest, {{"N", 8}, {"TK", 4}, {"TJ", 4}}, testMachine());
  EXPECT_GT(R.Counters.Prefetches, 0u);
  expectMMCorrect(Nest, Ids, 8, {{"TK", 4}, {"TJ", 4}});
}

TEST(PrefetchTest, ValuesUnaffected) {
  MatMulIds Ids;
  MMPipelineOpts Opts;
  Opts.UI = 2;
  Opts.UJ = 2;
  Opts.Copy = true;
  Opts.ScalarReplace = true;
  Opts.PrefetchDist = 4;
  LoopNest Nest = buildMMVariant1(Ids, Opts);
  expectMMCorrect(Nest, Ids, 12, {{"TK", 6}, {"TJ", 5}});
}

TEST(PipelineProperty, RandomizedConfigsAllCorrect) {
  // Property sweep: random (N, TK, TJ, UI, UJ, copy, SR, prefetch)
  // combinations all compute the reference result.
  Rng R(20260707);
  for (int Trial = 0; Trial < 25; ++Trial) {
    MatMulIds Ids;
    MMPipelineOpts Opts;
    Opts.UI = static_cast<int>(R.nextInt(1, 5));
    Opts.UJ = static_cast<int>(R.nextInt(1, 4));
    Opts.Copy = R.nextBool();
    Opts.ScalarReplace = R.nextBool();
    Opts.PrefetchDist = R.nextBool() ? static_cast<int>(R.nextInt(1, 8)) : 0;
    int64_t N = R.nextInt(4, 20);
    int64_t TK = R.nextInt(2, 12), TJ = R.nextInt(2, 12);
    LoopNest Nest = buildMMVariant1(Ids, Opts);
    SCOPED_TRACE(strformat("trial=%d N=%d TK=%d TJ=%d UI=%d UJ=%d c=%d "
                           "sr=%d pf=%d",
                           Trial, (int)N, (int)TK, (int)TJ, Opts.UI,
                           Opts.UJ, (int)Opts.Copy,
                           (int)Opts.ScalarReplace, Opts.PrefetchDist));
    expectMMCorrect(Nest, Ids, N, {{"TK", TK}, {"TJ", TJ}});
  }
}

TEST(InstantiatePinned, EveryDerivedVariantPrintsAsRecorded) {
  // Instantiation output pinned across rewrites of the transforms: every
  // derived variant of the three kernels on two machines, at the
  // model-initial point and at every unroll factor 3 / prefetch distance
  // 2. Each row is (kernel, machine, variant, fixed?, hashNest of the
  // instantiated nest, NumRegs, MaxLiveRegs); a transform change that
  // moves any printed statement, register number or live count fails its
  // row.
  struct Row {
    const char *Kernel, *Machine, *Variant;
    bool Fixed;
    uint64_t Hash;
    int NumRegs, MaxLiveRegs;
  };
  static const Row Rows[] = {
    {"matmul", "sgi", "v1", false, 0x7010ea5bfbbbde8bull, 59, 32},
    {"matmul", "sgi", "v1", true, 0x4f5abe31f0cf3abdull, 24, 9},
    {"matmul", "sgi", "v2", false, 0xe8f8422ad54b31f0ull, 59, 32},
    {"matmul", "sgi", "v2", true, 0xd03aba5b738d64e6ull, 24, 9},
    {"matmul", "sgi", "v3", false, 0x93a3a3361468bdd0ull, 59, 32},
    {"matmul", "sgi", "v3", true, 0xfa2bc11c47827296ull, 24, 9},
    {"matmul", "sgi", "v4", false, 0x7f75a45ce2fd493aull, 59, 32},
    {"matmul", "sgi", "v4", true, 0x85867c711ff46024ull, 24, 9},
    {"matmul", "sgi", "v5", false, 0x788a6656cfce387eull, 59, 32},
    {"matmul", "sgi", "v5", true, 0x68c3dbc000b7a8ecull, 24, 9},
    {"matmul", "sgi", "v6", false, 0x0224854781bee51eull, 59, 32},
    {"matmul", "sgi", "v6", true, 0x878b80009e584684ull, 24, 9},
    {"matmul", "sgi", "v7", false, 0x4634c9e0093edfa7ull, 59, 32},
    {"matmul", "sgi", "v7", true, 0x126fb74edd93c0bdull, 24, 9},
    {"matmul", "sgi", "v8", false, 0xedaa44c84b6bb134ull, 59, 32},
    {"matmul", "sgi", "v8", true, 0xda4763058a2d41aeull, 24, 9},
    {"matmul", "sun", "v1", false, 0x7010ea5bfbbbde8bull, 59, 32},
    {"matmul", "sun", "v1", true, 0x4f5abe31f0cf3abdull, 24, 9},
    {"matmul", "sun", "v2", false, 0xe8f8422ad54b31f0ull, 59, 32},
    {"matmul", "sun", "v2", true, 0xd03aba5b738d64e6ull, 24, 9},
    {"matmul", "sun", "v3", false, 0x93a3a3361468bdd0ull, 59, 32},
    {"matmul", "sun", "v3", true, 0xfa2bc11c47827296ull, 24, 9},
    {"matmul", "sun", "v4", false, 0x7f75a45ce2fd493aull, 59, 32},
    {"matmul", "sun", "v4", true, 0x85867c711ff46024ull, 24, 9},
    {"matmul", "sun", "v5", false, 0x788a6656cfce387eull, 59, 32},
    {"matmul", "sun", "v5", true, 0x68c3dbc000b7a8ecull, 24, 9},
    {"matmul", "sun", "v6", false, 0x0224854781bee51eull, 59, 32},
    {"matmul", "sun", "v6", true, 0x878b80009e584684ull, 24, 9},
    {"matmul", "sun", "v7", false, 0x4634c9e0093edfa7ull, 59, 32},
    {"matmul", "sun", "v7", true, 0x126fb74edd93c0bdull, 24, 9},
    {"matmul", "sun", "v8", false, 0xedaa44c84b6bb134ull, 59, 32},
    {"matmul", "sun", "v8", true, 0xda4763058a2d41aeull, 24, 9},
    {"jacobi", "sgi", "v1", false, 0xf54f7f30ed86ebaaull, 135, 96},
    {"jacobi", "sgi", "v1", true, 0xd21ad41ff39520d6ull, 48, 27},
    {"jacobi", "sgi", "v2", false, 0x19a3f47e742ec33dull, 135, 96},
    {"jacobi", "sgi", "v2", true, 0xf2612662d85e8dfbull, 48, 27},
    {"jacobi", "sgi", "v3", false, 0x64d276857afa8b4aull, 135, 96},
    {"jacobi", "sgi", "v3", true, 0x1e30c01faf0b9292ull, 48, 27},
    {"jacobi", "sgi", "v4", false, 0x64d276857afa8b4aull, 135, 96},
    {"jacobi", "sgi", "v4", true, 0x1e30c01faf0b9292ull, 48, 27},
    {"jacobi", "sgi", "v5", false, 0xea40971e370202ecull, 135, 96},
    {"jacobi", "sgi", "v5", true, 0xbadbdbdd7d311241ull, 48, 27},
    {"jacobi", "sgi", "v6", false, 0xcc271495111b7d04ull, 135, 96},
    {"jacobi", "sgi", "v6", true, 0x6ec128509637cee9ull, 48, 27},
    {"jacobi", "sgi", "v7", false, 0xcc271495111b7d04ull, 135, 96},
    {"jacobi", "sgi", "v7", true, 0x6ec128509637cee9ull, 48, 27},
    {"jacobi", "sgi", "v8", false, 0x99b87df72f90f95aull, 135, 96},
    {"jacobi", "sgi", "v8", true, 0x7e634d2c96c385f2ull, 48, 27},
    {"jacobi", "sun", "v1", false, 0xf54f7f30ed86ebaaull, 135, 96},
    {"jacobi", "sun", "v1", true, 0xd21ad41ff39520d6ull, 48, 27},
    {"jacobi", "sun", "v2", false, 0x19a3f47e742ec33dull, 135, 96},
    {"jacobi", "sun", "v2", true, 0xf2612662d85e8dfbull, 48, 27},
    {"jacobi", "sun", "v3", false, 0x64d276857afa8b4aull, 135, 96},
    {"jacobi", "sun", "v3", true, 0x1e30c01faf0b9292ull, 48, 27},
    {"jacobi", "sun", "v4", false, 0x64d276857afa8b4aull, 135, 96},
    {"jacobi", "sun", "v4", true, 0x1e30c01faf0b9292ull, 48, 27},
    {"jacobi", "sun", "v5", false, 0xea40971e370202ecull, 135, 96},
    {"jacobi", "sun", "v5", true, 0xbadbdbdd7d311241ull, 48, 27},
    {"jacobi", "sun", "v6", false, 0xcc271495111b7d04ull, 135, 96},
    {"jacobi", "sun", "v6", true, 0x6ec128509637cee9ull, 48, 27},
    {"jacobi", "sun", "v7", false, 0xcc271495111b7d04ull, 135, 96},
    {"jacobi", "sun", "v7", true, 0x6ec128509637cee9ull, 48, 27},
    {"jacobi", "sun", "v8", false, 0x99b87df72f90f95aull, 135, 96},
    {"jacobi", "sun", "v8", true, 0x7e634d2c96c385f2ull, 48, 27},
    {"matvec", "sgi", "v1", false, 0x0eb8c28dea671bd3ull, 18, 16},
    {"matvec", "sgi", "v1", true, 0x4712a314783e49e7ull, 5, 3},
    {"matvec", "sgi", "v2", false, 0x0991d5a6e8f2a33cull, 18, 16},
    {"matvec", "sgi", "v2", true, 0xae3f6967d69d6942ull, 5, 3},
    {"matvec", "sun", "v1", false, 0x0eb8c28dea671bd3ull, 18, 16},
    {"matvec", "sun", "v1", true, 0x4712a314783e49e7ull, 5, 3},
    {"matvec", "sun", "v2", false, 0x0991d5a6e8f2a33cull, 18, 16},
    {"matvec", "sun", "v2", true, 0xae3f6967d69d6942ull, 5, 3},
  };
  const std::pair<const char *, LoopNest (*)()> Kernels[] = {
      {"matmul", [] { return makeMatMul(); }},
      {"jacobi", [] { return makeJacobi(); }},
      {"matvec", [] { return makeMatVec(); }}};
  const std::pair<const char *, MachineDesc> Machines[] = {
      {"sgi", MachineDesc::sgiR10000().scaledBy(16)},
      {"sun", MachineDesc::ultraSparcIIe().scaledBy(16)}};
  size_t Next = 0;
  for (const auto &[KName, Build] : Kernels)
    for (const auto &[MName, M] : Machines)
      for (const DerivedVariant &V : deriveVariants(Build(), M))
        for (bool Fixed : {false, true}) {
          Env E = initialConfig(V, M, {{"N", 64}});
          if (Fixed) {
            for (const UnrollSpec &U : V.Spec.Unrolls)
              E.set(U.FactorParam, 3);
            for (const PrefetchSpec &P : V.Prefetch)
              E.set(P.DistanceParam, 2);
          }
          ASSERT_LT(Next, std::size(Rows));
          const Row &R = Rows[Next++];
          ASSERT_STREQ(R.Kernel, KName);
          ASSERT_STREQ(R.Machine, MName);
          ASSERT_EQ(R.Variant, V.Spec.Name);
          ASSERT_EQ(R.Fixed, Fixed);
          SCOPED_TRACE(std::string(KName) + "/" + MName + "/" + R.Variant +
                       (Fixed ? " u3p2" : " initial"));
          LoopNest Nest = V.instantiate(E, M);
          EXPECT_EQ(hashNest(Nest), R.Hash);
          EXPECT_EQ(Nest.NumRegs, R.NumRegs);
          EXPECT_EQ(Nest.MaxLiveRegs, R.MaxLiveRegs);
        }
  EXPECT_EQ(Next, std::size(Rows));
}
