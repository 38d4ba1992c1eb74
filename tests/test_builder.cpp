//===- tests/test_builder.cpp - ir/Builder fluent API tests ---------------===//

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "ir/Builder.h"
#include "ir/Verifier.h"
#include "kernels/Kernels.h"
#include "kernels/Reference.h"

#include <gtest/gtest.h>

using namespace eco;

namespace {
MachineDesc tiny() { return MachineDesc::sgiR10000().scaledBy(64); }
} // namespace

TEST(Builder, MatMulThroughBuilderMatchesHandBuilt) {
  NestBuilder B("matmul");
  AffineExpr N = B.size("N");
  auto [K, J, I] = B.loops3("K", "J", "I", AffineExpr::constant(0), N - 1);
  ArrayHandle A = B.array("A", {N, N});
  ArrayHandle Bm = B.array("B", {N, N});
  ArrayHandle C = B.array("C", {N, N});
  B.compute(C(I, J), C(I, J) + A(I, K) * Bm(K, J));
  LoopNest Nest = B.take();

  EXPECT_TRUE(isWellFormed(Nest));
  // Same printed form as the hand-built kernel.
  EXPECT_EQ(Nest.print(), makeMatMul().print());
}

TEST(Builder, BuiltKernelComputesReference) {
  NestBuilder B("axpy2d");
  AffineExpr N = B.size("N");
  auto [J, I] = B.loops2("J", "I", AffineExpr::constant(0), N - 1);
  ArrayHandle Y = B.array("Y", {N, N});
  ArrayHandle X = B.array("X", {N, N});
  B.compute(Y(I, J), Y(I, J) + 2.5 * X(I, J));
  LoopNest Nest = B.take();

  const int64_t NV = 9;
  MemHierarchySim Sim(tiny());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(Nest, makeEnv(Nest, {{"N", NV}}), Sim, Opts);
  fillDeterministic(E.dataOf(X.id()), 1);
  fillDeterministic(E.dataOf(Y.id()), 2);
  E.run();

  std::vector<double> XRef(NV * NV), YRef(NV * NV);
  fillDeterministic(XRef, 1);
  fillDeterministic(YRef, 2);
  for (int64_t P = 0; P < NV * NV; ++P)
    YRef[P] += 2.5 * XRef[P];
  for (int64_t P = 0; P < NV * NV; ++P)
    ASSERT_DOUBLE_EQ(E.dataOf(Y.id())[P], YRef[P]) << "idx " << P;
}

TEST(Builder, SubtractionAndConstantsWork) {
  NestBuilder B("diff");
  AffineExpr N = B.size("N");
  AffineExpr I = B.loop("I", AffineExpr::constant(1), N - 2);
  ArrayHandle Out = B.array("Out", {N});
  ArrayHandle In = B.array("In", {N});
  B.compute(Out(I), In(I + 1) - In(I - 1));
  LoopNest Nest = B.take();
  EXPECT_TRUE(isWellFormed(Nest));

  const int64_t NV = 8;
  MemHierarchySim Sim(tiny());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(Nest, makeEnv(Nest, {{"N", NV}}), Sim, Opts);
  for (int64_t P = 0; P < NV; ++P)
    E.dataOf(In.id())[P] = static_cast<double>(P * P);
  E.run();
  for (int64_t P = 1; P <= NV - 2; ++P)
    EXPECT_DOUBLE_EQ(E.dataOf(Out.id())[P],
                     static_cast<double>((P + 1) * (P + 1) -
                                         (P - 1) * (P - 1)));
}

TEST(Builder, BuiltNestTunesLikeAnyOther) {
  NestBuilder B("mm");
  AffineExpr N = B.size("N");
  auto [K, J, I] = B.loops3("K", "J", "I", AffineExpr::constant(0), N - 1);
  ArrayHandle A = B.array("A", {N, N});
  ArrayHandle Bm = B.array("B", {N, N});
  ArrayHandle C = B.array("C", {N, N});
  B.compute(C(I, J), C(I, J) + A(I, K) * Bm(K, J));
  LoopNest Nest = B.take();

  SimEvalBackend Backend(tiny());
  TuneResult R = tune(Nest, Backend, {{"N", 48}});
  ASSERT_GE(R.BestVariant, 0);
  RunResult Naive = simulateNest(Nest, {{"N", 48}}, tiny());
  EXPECT_LT(R.BestCost, Naive.Cycles);
}

TEST(Builder, MultipleStatementsPerBody) {
  NestBuilder B("two-stmts");
  AffineExpr N = B.size("N");
  AffineExpr I = B.loop("I", AffineExpr::constant(0), N - 1);
  ArrayHandle A = B.array("A", {N});
  ArrayHandle Bv = B.array("B", {N});
  B.compute(A(I), 1.0).compute(Bv(I), A(I) + 1.0);
  LoopNest Nest = B.take();
  EXPECT_TRUE(isWellFormed(Nest));

  MemHierarchySim Sim(tiny());
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(Nest, makeEnv(Nest, {{"N", 5}}), Sim, Opts);
  E.run();
  for (int P = 0; P < 5; ++P) {
    EXPECT_DOUBLE_EQ(E.dataOf(A.id())[P], 1.0);
    EXPECT_DOUBLE_EQ(E.dataOf(Bv.id())[P], 2.0);
  }
}

TEST(Builder, RowMajorArraysSupported) {
  NestBuilder B("rm");
  AffineExpr N = B.size("N");
  auto [I, J] = B.loops2("I", "J", AffineExpr::constant(0), N - 1);
  ArrayHandle A = B.array("A", {N, N}, Layout::RowMajor);
  B.compute(A(I, J), 3.0);
  LoopNest Nest = B.take();
  EXPECT_EQ(Nest.array(A.id()).Order, Layout::RowMajor);
  EXPECT_TRUE(isWellFormed(Nest));
}
