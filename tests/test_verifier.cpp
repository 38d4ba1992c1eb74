//===- tests/test_verifier.cpp - ir/Verifier unit tests -------------------===//

#include "ir/Verifier.h"
#include "kernels/Kernels.h"
#include "support/StringUtils.h"
#include "transform/Copy.h"
#include "transform/Pad.h"
#include "transform/Permute.h"
#include "transform/Prefetch.h"
#include "transform/ScalarReplace.h"
#include "transform/Tile.h"
#include "transform/UnrollJam.h"

#include <gtest/gtest.h>

using namespace eco;

TEST(Verifier, CleanKernelsAreWellFormed) {
  EXPECT_TRUE(isWellFormed(makeMatMul()));
  EXPECT_TRUE(isWellFormed(makeJacobi()));
  EXPECT_TRUE(isWellFormed(makeMatVec()));
}

TEST(Verifier, EveryTransformPreservesWellFormedness) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  TileResult TK = tileLoop(Nest, Ids.K, "KK", "TK");
  EXPECT_TRUE(isWellFormed(Nest)) << join(verify(Nest), "; ");
  TileResult TJ = tileLoop(Nest, Ids.J, "JJ", "TJ");
  EXPECT_TRUE(isWellFormed(Nest));
  permuteSpine(Nest, {TK.ControlVar, TJ.ControlVar, Ids.I, Ids.J, Ids.K});
  EXPECT_TRUE(isWellFormed(Nest));

  std::vector<CopyDimSpec> Dims(2);
  Dims[0] = {AffineExpr::sym(TK.ControlVar), TK.TileParam,
             Bound::min(AffineExpr::sym(TK.TileParam),
                        AffineExpr::sym(Ids.N) -
                            AffineExpr::sym(TK.ControlVar))};
  Dims[1] = {AffineExpr::sym(TJ.ControlVar), TJ.TileParam,
             Bound::min(AffineExpr::sym(TJ.TileParam),
                        AffineExpr::sym(Ids.N) -
                            AffineExpr::sym(TJ.ControlVar))};
  applyCopy(Nest, Ids.B, Ids.I, "P", Dims);
  EXPECT_TRUE(isWellFormed(Nest)) << join(verify(Nest), "; ");

  unrollAndJam(Nest, Ids.I, 4);
  EXPECT_TRUE(isWellFormed(Nest));
  unrollAndJam(Nest, Ids.J, 2);
  EXPECT_TRUE(isWellFormed(Nest));
  scalarReplaceInvariant(Nest, Ids.K);
  EXPECT_TRUE(isWellFormed(Nest)) << join(verify(Nest), "; ");
  rotatingScalarReplace(Nest, Ids.K);
  EXPECT_TRUE(isWellFormed(Nest));
  insertPrefetch(Nest, Ids.A, Ids.K, 8, 4);
  EXPECT_TRUE(isWellFormed(Nest)) << join(verify(Nest), "; ");
  padDims(Nest, {4});
  EXPECT_TRUE(isWellFormed(Nest));
}

TEST(Verifier, DetectsVariableReadOutsideItsLoop) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId I = Nest.declareLoopVar("I");
  ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N)}});
  // Statement at top level reads I which no loop binds.
  Nest.Items.push_back(BodyItem(Stmt::makeCompute(
      ArrayRef(A, {AffineExpr::sym(I)}), ScalarExpr::makeConst(1.0))));
  std::vector<std::string> Problems = verify(Nest);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("outside its binding loop"),
            std::string::npos);
}

TEST(Verifier, DetectsRankMismatch) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId I = Nest.declareLoopVar("I");
  ArrayId A = Nest.declareArray(
      {"A", {AffineExpr::sym(N), AffineExpr::sym(N)}});
  auto L = std::make_unique<Loop>(I, AffineExpr::constant(0),
                                  Bound(AffineExpr::sym(N) - 1));
  L->Items.push_back(BodyItem(Stmt::makeCompute(
      ArrayRef(A, {AffineExpr::sym(I)}), // rank 1 into rank 2
      ScalarExpr::makeConst(0.0))));
  Nest.Items.push_back(BodyItem(std::move(L)));
  std::vector<std::string> Problems = verify(Nest);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("rank"), std::string::npos);
}

TEST(Verifier, DetectsBadRegister) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N)}});
  // RegLoad into r5 while NumRegs == 0.
  Nest.Items.push_back(BodyItem(
      Stmt::makeRegLoad(5, ArrayRef(A, {AffineExpr::constant(0)}))));
  std::vector<std::string> Problems = verify(Nest);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("register"), std::string::npos);
}

TEST(Verifier, DetectsEpilogueOnNonUnrolledLoop) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId I = Nest.declareLoopVar("I");
  ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N)}});
  ArrayRef R(A, {AffineExpr::sym(I)});
  auto L = std::make_unique<Loop>(I, AffineExpr::constant(0),
                                  Bound(AffineExpr::sym(N) - 1));
  L->Items.push_back(
      BodyItem(Stmt::makeCompute(R, ScalarExpr::makeConst(0.0))));
  L->Epilogue.push_back(
      BodyItem(Stmt::makeCompute(R, ScalarExpr::makeConst(1.0))));
  Nest.Items.push_back(BodyItem(std::move(L)));
  std::vector<std::string> Problems = verify(Nest);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("epilogue"), std::string::npos);
}

TEST(Verifier, DetectsUnrollStepMismatch) {
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  unrollAndJam(Nest, Ids.J, 4);
  // Corrupt the step.
  Nest.findLoop(Ids.J)->Step = 3;
  std::vector<std::string> Problems = verify(Nest);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("unroll factor"), std::string::npos);
}

TEST(Verifier, DetectsCopyIntoNonBuffer) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N)}});
  ArrayId B = Nest.declareArray({"B", {AffineExpr::sym(N)}}); // Data role
  std::vector<CopyRegionDim> Region;
  Region.push_back(
      {AffineExpr::constant(0), Bound(AffineExpr::sym(N))});
  Nest.Items.push_back(BodyItem(Stmt::makeCopyIn(B, A, Region)));
  std::vector<std::string> Problems = verify(Nest);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("CopyBuffer"), std::string::npos);
}

TEST(Verifier, DetectsDuplicateInductionVariableNames) {
  // Tiling that reuses an existing control-variable name: two distinct
  // symbols both print and emit as "KK".
  MatMulIds Ids;
  LoopNest Nest = makeMatMul(&Ids);
  tileLoop(Nest, Ids.K, "KK", "TK");
  Nest.declareLoopVar("KK"); // what a second careless tiling would do
  std::vector<std::string> Problems = verify(Nest);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(join(Problems, "; ").find("duplicate symbol name 'KK'"),
            std::string::npos);
}

TEST(Verifier, DetectsArrayNameCollidingWithSymbol) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  Nest.declareArray({"N", {AffineExpr::sym(N)}});
  std::vector<std::string> Problems = verify(Nest);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(join(Problems, "; ").find("collides"), std::string::npos);
}

TEST(Verifier, DetectsDanglingRegisters) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N)}});
  // r0 is stored to memory but nothing ever writes it; r1 is allocated
  // and then abandoned — both are scalar-replacement failure modes.
  Nest.allocReg();
  Nest.allocReg();
  Nest.Items.push_back(BodyItem(
      Stmt::makeRegStore(ArrayRef(A, {AffineExpr::constant(0)}), 0)));
  std::vector<std::string> Problems = verify(Nest);
  std::string All = join(Problems, "; ");
  EXPECT_NE(All.find("r0 is read but never written"), std::string::npos)
      << All;
  EXPECT_NE(All.find("r1 is allocated but never referenced"),
            std::string::npos)
      << All;
}

TEST(Verifier, DetectsOverflowedSubscripts) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId I = Nest.declareLoopVar("I");
  ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N)}});
  // A coefficient no legitimate tiling/unrolling chain can produce —
  // the signature of a wrapped (non-affine) subscript computation.
  AffineExpr Sub = AffineExpr::sym(I).scaled(int64_t(1) << 41);
  auto L = std::make_unique<Loop>(I, AffineExpr::constant(0),
                                  Bound(AffineExpr::sym(N) - 1));
  L->Items.push_back(BodyItem(
      Stmt::makeCompute(ArrayRef(A, {Sub}), ScalarExpr::makeConst(0.0))));
  Nest.Items.push_back(BodyItem(std::move(L)));
  std::vector<std::string> Problems = verify(Nest);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("implausible coefficient"),
            std::string::npos);
}

TEST(Verifier, DetectsLoopVarRebinding) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId I = Nest.declareLoopVar("I");
  ArrayId A = Nest.declareArray({"A", {AffineExpr::sym(N)}});
  ArrayRef R(A, {AffineExpr::sym(I)});
  auto Inner = std::make_unique<Loop>(I, AffineExpr::constant(0),
                                      Bound(AffineExpr::sym(N) - 1));
  Inner->Items.push_back(
      BodyItem(Stmt::makeCompute(R, ScalarExpr::makeConst(0.0))));
  auto Outer = std::make_unique<Loop>(I, AffineExpr::constant(0),
                                      Bound(AffineExpr::sym(N) - 1));
  Outer->Items.push_back(BodyItem(std::move(Inner)));
  Nest.Items.push_back(BodyItem(std::move(Outer)));
  std::vector<std::string> Problems = verify(Nest);
  ASSERT_FALSE(Problems.empty());
  EXPECT_NE(Problems[0].find("rebound"), std::string::npos);
}
