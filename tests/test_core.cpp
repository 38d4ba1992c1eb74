//===- tests/test_core.cpp - core/ unit + integration tests ---------------===//

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"
#include "kernels/Reference.h"

#include <gtest/gtest.h>

using namespace eco;

namespace {

MachineDesc sgiScaled() { return MachineDesc::sgiR10000().scaledBy(16); }

/// Finds a variant whose spec matches a predicate.
template <typename Pred>
const DerivedVariant *findVariant(const std::vector<DerivedVariant> &Vs,
                                  Pred &&P) {
  for (const DerivedVariant &V : Vs)
    if (P(V))
      return &V;
  return nullptr;
}

} // namespace

TEST(DeriveVariantsTest, MatMulProducesTable4Variants) {
  LoopNest MM = makeMatMul();
  std::vector<DerivedVariant> Vs =
      deriveVariants(MM, MachineDesc::sgiR10000());
  ASSERT_GE(Vs.size(), 4u);

  SymbolId K = MM.Syms.lookup("K"), J = MM.Syms.lookup("J"),
           I = MM.Syms.lookup("I");

  // Every variant puts K innermost with C in registers and unrolls I, J —
  // the unique register-level choice (Table 4).
  for (const DerivedVariant &V : Vs) {
    EXPECT_EQ(V.Spec.RegLoop, K);
    EXPECT_EQ(V.Skeleton.array(V.Spec.RegArray).Name, "C");
    EXPECT_EQ(V.Spec.Unrolls.size(), 2u);
    EXPECT_EQ(V.Spec.FinalOrder.back(), K);
  }

  // Paper's v1: L1 keeps B (loop I), tiles J and K, with copy; L2 = J.
  const DerivedVariant *PaperV1 = findVariant(Vs, [&](const auto &V) {
    return V.Spec.CacheLevels.size() == 2 &&
           V.Spec.CacheLevels[0].TheLoop == I &&
           V.Skeleton.array(V.Spec.CacheLevels[0].RetainedArray).Name ==
               "B" &&
           V.Spec.CacheLevels[0].WithCopy &&
           !V.Spec.CacheLevels[1].WithCopy;
  });
  ASSERT_NE(PaperV1, nullptr);
  EXPECT_EQ(PaperV1->Spec.CacheLevels[0].NewTiledLoops.size(), 2u);

  // Paper's v2: L1 keeps A (loop J) with copy, L2 copies B tiling J.
  const DerivedVariant *PaperV2 = findVariant(Vs, [&](const auto &V) {
    return V.Spec.CacheLevels.size() == 2 &&
           V.Spec.CacheLevels[0].TheLoop == J &&
           V.Spec.CacheLevels[0].WithCopy &&
           V.Spec.CacheLevels[1].WithCopy &&
           V.Skeleton.array(V.Spec.CacheLevels[1].RetainedArray).Name ==
               "B";
  });
  ASSERT_NE(PaperV2, nullptr);
  // Its loop order is Figure 1(c): KK JJ II J I K.
  std::vector<std::string> Names;
  for (SymbolId V : PaperV2->Spec.FinalOrder)
    Names.push_back(PaperV2->Skeleton.Syms.name(V));
  EXPECT_EQ(Names, (std::vector<std::string>{"KK", "JJ", "II", "J", "I",
                                             "K"}));
}

TEST(DeriveVariantsTest, MatMulConstraintsMatchTable4) {
  LoopNest MM = makeMatMul();
  std::vector<DerivedVariant> Vs =
      deriveVariants(MM, MachineDesc::sgiR10000());
  // Find paper-v1 (L1 = B with copy, no L2 copy).
  for (const DerivedVariant &V : Vs) {
    bool HasRegConstraint = false, HasL1Constraint = false;
    for (const Constraint &C : V.Constraints) {
      std::string S = C.str(V.Skeleton.Syms);
      if (S.find("UI*UJ <= 32") != std::string::npos ||
          S.find("UJ*UI <= 32") != std::string::npos)
        HasRegConstraint = true;
      // Table 4: TJ*TK <= 2048 (or TI*TK for the A-tile family).
      if (C.Limit == 2048 && C.Note.find("L1") != std::string::npos)
        HasL1Constraint = true;
    }
    EXPECT_TRUE(HasRegConstraint) << V.describe();
    EXPECT_TRUE(HasL1Constraint) << V.describe();
  }
}

TEST(DeriveVariantsTest, JacobiForksThreeLoopOrders) {
  LoopNest Jac = makeJacobi();
  std::vector<DerivedVariant> Vs =
      deriveVariants(Jac, MachineDesc::sgiR10000());
  std::set<SymbolId> RegLoops;
  for (const DerivedVariant &V : Vs)
    RegLoops.insert(V.Spec.RegLoop);
  // All three loops carry temporal reuse -> variants with different
  // innermost loops (Section 4.2).
  EXPECT_EQ(RegLoops.size(), 3u);

  // The paper's Figure 2(b) shape exists: I innermost, only J tiled,
  // order JJ K J I.
  const DerivedVariant *Fig2b = findVariant(Vs, [&](const auto &V) {
    if (V.Skeleton.Syms.name(V.Spec.RegLoop) != "I")
      return false;
    if (V.TileParamOf.size() != 1)
      return false;
    std::vector<std::string> Names;
    for (SymbolId S : V.Spec.FinalOrder)
      Names.push_back(V.Skeleton.Syms.name(S));
    return Names == std::vector<std::string>{"JJ", "K", "J", "I"};
  });
  EXPECT_NE(Fig2b, nullptr);

  // No Jacobi variant copies (offsets are nonzero).
  for (const DerivedVariant &V : Vs)
    for (const CacheLevelPlan &CL : V.Spec.CacheLevels)
      EXPECT_FALSE(CL.WithCopy);
}

TEST(DeriveVariantsTest, NonPermutableNestGetsUntransformedVariant) {
  // A[I,J] = A[I-1,J+1]: sign-mixed distance.
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId I = Nest.declareLoopVar("I");
  SymbolId J = Nest.declareLoopVar("J");
  ArrayId A = Nest.declareArray(
      {"A", {AffineExpr::sym(N), AffineExpr::sym(N)}});
  ArrayRef W(A, {AffineExpr::sym(I), AffineExpr::sym(J)});
  ArrayRef R(A, {AffineExpr::sym(I) - 1, AffineExpr::sym(J) + 1});
  auto LJ = std::make_unique<Loop>(J, AffineExpr::constant(1),
                                   Bound(AffineExpr::sym(N) - 2));
  LJ->Items.push_back(
      BodyItem(Stmt::makeCompute(W, ScalarExpr::makeRead(R))));
  auto LI = std::make_unique<Loop>(I, AffineExpr::constant(1),
                                   Bound(AffineExpr::sym(N) - 2));
  LI->Items.push_back(BodyItem(std::move(LJ)));
  Nest.Items.push_back(BodyItem(std::move(LI)));

  std::vector<DerivedVariant> Vs =
      deriveVariants(Nest, MachineDesc::sgiR10000());
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Spec.Name, "v0-untransformed");
  EXPECT_TRUE(Vs[0].TileParamOf.empty());
}

TEST(VariantTest, InitialConfigIsFeasible) {
  LoopNest MM = makeMatMul();
  MachineDesc M = MachineDesc::sgiR10000();
  for (const DerivedVariant &V : deriveVariants(MM, M)) {
    Env Init = initialConfig(V, M, {{"N", 512}});
    EXPECT_TRUE(V.feasible(Init)) << V.describe();
    // Unroll factors start at the register-file heuristic: product = 32.
    int64_t Product = 1;
    for (const UnrollSpec &U : V.Spec.Unrolls)
      Product *= Init.get(U.FactorParam);
    EXPECT_EQ(Product, 32);
    // Prefetching starts off.
    for (const PrefetchSpec &P : V.Prefetch)
      EXPECT_EQ(Init.get(P.DistanceParam), 0);
  }
}

TEST(VariantTest, InitialConfigSurvivesHugeRegisterLimit) {
  // Regression: the register-heuristic bit count was computed with
  // `1 << (Bits + 1)` in int — a register limit past 2^30 overflowed the
  // shift (UB; in practice the loop never terminated). A machine
  // description with a huge register file must still produce clamped,
  // feasible unroll factors.
  LoopNest MM = makeMatMul();
  MachineDesc M = MachineDesc::sgiR10000();
  M.FpRegisters = 0xFFFFFFF0u; // ~2^32 "registers"
  for (const DerivedVariant &V : deriveVariants(MM, M)) {
    Env Init = initialConfig(V, M, {{"N", 512}});
    for (const UnrollSpec &U : V.Spec.Unrolls) {
      int64_t F = Init.get(U.FactorParam);
      EXPECT_GE(F, 1) << V.describe();
      EXPECT_LE(F, 16) << V.describe(); // per-factor clamp holds
    }
  }
}

TEST(VariantTest, DescribeMentionsEverything) {
  LoopNest MM = makeMatMul();
  std::vector<DerivedVariant> Vs =
      deriveVariants(MM, MachineDesc::sgiR10000());
  std::string D = Vs.front().describe();
  EXPECT_NE(D.find("Reg : loop K"), std::string::npos);
  EXPECT_NE(D.find("unroll-and-jam"), std::string::npos);
  EXPECT_NE(D.find("constraint:"), std::string::npos);
  EXPECT_NE(D.find("order:"), std::string::npos);
}

TEST(VariantProperty, AllMatMulVariantsComputeTheReference) {
  // The heavyweight guarantee: every derived variant, instantiated at
  // several configurations, computes bit-identical results.
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  ASSERT_FALSE(Vs.empty());

  const int64_t N = 17; // prime: exercises every epilogue path
  std::vector<double> A(N * N), B(N * N), CRef(N * N);
  fillDeterministic(A, 1);
  fillDeterministic(B, 2);
  fillDeterministic(CRef, 3);
  referenceMatMul(A, B, CRef, N);

  for (const DerivedVariant &V : Vs) {
    for (auto [UI, UJ, Tile] : {std::tuple<int, int, int>{1, 1, 4},
                                {4, 2, 8},
                                {2, 4, 5},
                                {8, 4, 16}}) {
      Env Config = initialConfig(V, M, {{"N", N}});
      for (const UnrollSpec &U : V.Spec.Unrolls)
        Config.set(U.FactorParam,
                   V.Skeleton.Syms.name(U.Loop) == "I" ? UI : UJ);
      for (const auto &[Var, Param] : V.TileParamOf)
        Config.set(Param, Tile);
      if (!V.Prefetch.empty())
        Config.set(V.Prefetch.front().DistanceParam, 3);

      LoopNest Exec = V.instantiate(Config, M);
      MemHierarchySim Sim(M);
      ExecOptions Opts;
      Opts.ComputeValues = true;
      Executor E(Exec, Config, Sim, Opts);
      // Array ids of A, B, C are 0, 1, 2 (declaration order preserved).
      fillDeterministic(E.dataOf(0), 1);
      fillDeterministic(E.dataOf(1), 2);
      fillDeterministic(E.dataOf(2), 3);
      E.run();
      for (int64_t X = 0; X < N * N; ++X)
        ASSERT_DOUBLE_EQ(E.dataOf(2)[X], CRef[X])
            << V.Spec.Name << " UI=" << UI << " UJ=" << UJ
            << " T=" << Tile << " idx=" << X;
    }
  }
}

TEST(VariantProperty, AllJacobiVariantsComputeTheReference) {
  LoopNest Jac = makeJacobi();
  MachineDesc M = sgiScaled();
  std::vector<DerivedVariant> Vs = deriveVariants(Jac, M);
  ASSERT_FALSE(Vs.empty());

  const int64_t N = 11;
  std::vector<double> In(N * N * N), Ref(N * N * N, 0.0);
  fillDeterministic(In, 7);
  referenceJacobi(In, Ref, N);

  for (const DerivedVariant &V : Vs) {
    Env Config = initialConfig(V, M, {{"N", N}});
    for (const UnrollSpec &U : V.Spec.Unrolls)
      Config.set(U.FactorParam, 2);
    for (const auto &[Var, Param] : V.TileParamOf)
      Config.set(Param, 4);

    LoopNest Exec = V.instantiate(Config, M);
    MemHierarchySim Sim(M);
    ExecOptions Opts;
    Opts.ComputeValues = true;
    Executor E(Exec, Config, Sim, Opts);
    fillDeterministic(E.dataOf(1), 7); // B
    E.run();
    for (size_t X = 0; X < Ref.size(); ++X)
      ASSERT_DOUBLE_EQ(E.dataOf(0)[X], Ref[X])
          << V.Spec.Name << " idx=" << X;
  }
}

TEST(SearchTest, SearchImprovesOnHeuristicAndStaysFeasible) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  const DerivedVariant &V = Vs.front();

  Env Init = initialConfig(V, M, {{"N", 96}});
  LoopNest InitNest = V.instantiate(Init, M);
  double InitCost = Backend.evaluate(InitNest, Init);

  EvalEngine Engine(Backend);
  VariantSearchResult R = searchVariant(V, Engine, {{"N", 96}});
  EXPECT_LE(R.BestCost, InitCost);
  EXPECT_TRUE(V.feasible(R.BestConfig));
  EXPECT_GE(R.Trace.Evaluations, 5u);
  EXPECT_GT(R.Trace.Seconds, 0);
}

TEST(SearchTest, PrefetchParamsOnlyEnabledWhenProfitable) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  EvalEngine Engine(Backend);
  VariantSearchResult R = searchVariant(Vs.front(), Engine, {{"N", 96}});
  for (const PrefetchSpec &P : Vs.front().Prefetch) {
    int64_t D = R.BestConfig.get(P.DistanceParam);
    EXPECT_GE(D, 0);
    EXPECT_LE(D, 64);
  }
}

TEST(TunerTest, MatMulTuningBeatsNaive) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  TuneResult R = tune(MM, Backend, {{"N", 96}});
  ASSERT_GE(R.BestVariant, 0);

  RunResult Naive = simulateNest(MM, {{"N", 96}}, M);
  EXPECT_LT(R.BestCost, Naive.Cycles / 2) << "expected >= 2x speedup";
  EXPECT_GT(R.TotalPoints, 20u);
  // Summaries add up.
  size_t Sum = 0;
  int Searched = 0;
  for (const VariantSummary &S : R.Summaries) {
    Sum += S.Points;
    Searched += S.Searched ? 1 : 0;
  }
  EXPECT_EQ(Sum + R.Summaries.size(), R.TotalPoints);
  EXPECT_LE(Searched, 4);
}

TEST(TunerTest, JacobiTuningBeatsNaive) {
  LoopNest Jac = makeJacobi();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  TuneResult R = tune(Jac, Backend, {{"N", 48}});
  ASSERT_GE(R.BestVariant, 0);
  RunResult Naive = simulateNest(Jac, {{"N", 48}}, M);
  EXPECT_LT(R.BestCost, Naive.Cycles);
}

TEST(TunerTest, BestExecutableComputesTheReference) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  const int64_t N = 32;
  TuneResult R = tune(MM, Backend, {{"N", N}});
  ASSERT_GE(R.BestVariant, 0);

  std::vector<double> A(N * N), B(N * N), CRef(N * N);
  fillDeterministic(A, 1);
  fillDeterministic(B, 2);
  fillDeterministic(CRef, 3);
  referenceMatMul(A, B, CRef, N);

  MemHierarchySim Sim(M);
  ExecOptions Opts;
  Opts.ComputeValues = true;
  Executor E(R.BestExecutable, R.BestConfig, Sim, Opts);
  fillDeterministic(E.dataOf(0), 1);
  fillDeterministic(E.dataOf(1), 2);
  fillDeterministic(E.dataOf(2), 3);
  E.run();
  for (int64_t X = 0; X < N * N; ++X)
    ASSERT_DOUBLE_EQ(E.dataOf(2)[X], CRef[X]) << "idx " << X;
}

TEST(TunerTest, DeterministicAcrossRuns) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend B1(M), B2(M);
  TuneResult R1 = tune(MM, B1, {{"N", 64}});
  TuneResult R2 = tune(MM, B2, {{"N", 64}});
  EXPECT_EQ(R1.BestVariant, R2.BestVariant);
  EXPECT_DOUBLE_EQ(R1.BestCost, R2.BestCost);
  EXPECT_EQ(R1.TotalPoints, R2.TotalPoints);
}

// --- Copy-eligibility regressions (each found by test_fuzz_kernels) -----

namespace {

/// A 2-loop kernel: Out[v0,v1] = <Rhs>, loops 0..N-1, for copy-guard
/// regression tests.
LoopNest makeCopyGuardKernel(
    std::function<std::unique_ptr<ScalarExpr>(LoopNest &, SymbolId,
                                              SymbolId, ArrayId)>
        MakeRhs) {
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId V0 = Nest.declareLoopVar("v0");
  SymbolId V1 = Nest.declareLoopVar("v1");
  AffineExpr NE = AffineExpr::sym(N);
  ArrayId In = Nest.declareArray({"In", {NE.scaled(2) + 8, NE.scaled(2) + 8}});
  ArrayId Out = Nest.declareArray({"Out", {NE, NE}});
  ArrayRef OutRef(Out, {AffineExpr::sym(V0), AffineExpr::sym(V1)});
  auto Inner = std::make_unique<Loop>(V1, AffineExpr::constant(0),
                                      Bound(NE - 1));
  Inner->Items.push_back(
      BodyItem(Stmt::makeCompute(OutRef, MakeRhs(Nest, V0, V1, In))));
  auto Outer = std::make_unique<Loop>(V0, AffineExpr::constant(0),
                                      Bound(NE - 1));
  Outer->Items.push_back(BodyItem(std::move(Inner)));
  Nest.Items.push_back(BodyItem(std::move(Outer)));
  return Nest;
}

bool anyCopyVariantFor(const LoopNest &Nest, ArrayId Arr) {
  for (const DerivedVariant &V :
       deriveVariants(Nest, MachineDesc::sgiR10000()))
    for (const CacheLevelPlan &CL : V.Spec.CacheLevels)
      if (CL.WithCopy && CL.RetainedArray == Arr)
        return true;
  return false;
}

} // namespace

TEST(CopyGuards, NoCopyWhenSubscriptsCarryConstantOffsets) {
  // In[v0+1, v0+3]: the tile region would not cover the +1/+3 offsets.
  LoopNest Nest = makeCopyGuardKernel(
      [](LoopNest &, SymbolId V0, SymbolId, ArrayId In) {
        return ScalarExpr::makeRead(
            ArrayRef(In, {AffineExpr::sym(V0) + 1,
                          AffineExpr::sym(V0) + 3}));
      });
  EXPECT_FALSE(anyCopyVariantFor(Nest, 0));
}

TEST(CopyGuards, NoCopyWhenArrayHasTwoAccessPatterns) {
  // In[v0,v1] + In[v1,v0]: retargeting would remap both patterns to one
  // tile.
  LoopNest Nest = makeCopyGuardKernel(
      [](LoopNest &, SymbolId V0, SymbolId V1, ArrayId In) {
        return ScalarExpr::makeBinary(
            ScalarExprKind::Add,
            ScalarExpr::makeRead(ArrayRef(In, {AffineExpr::sym(V0),
                                               AffineExpr::sym(V1)})),
            ScalarExpr::makeRead(ArrayRef(In, {AffineExpr::sym(V1),
                                               AffineExpr::sym(V0)})));
      });
  EXPECT_FALSE(anyCopyVariantFor(Nest, 0));
}

TEST(CopyGuards, NoCopyForWrittenArrays) {
  // A reduction output must never be copied (CopyIn has no copy-back).
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId V0 = Nest.declareLoopVar("v0");
  SymbolId V1 = Nest.declareLoopVar("v1");
  SymbolId V2 = Nest.declareLoopVar("v2");
  AffineExpr NE = AffineExpr::sym(N);
  ArrayId Out = Nest.declareArray({"Out", {NE, NE}});
  ArrayId In = Nest.declareArray({"In", {NE, NE}});
  ArrayRef OutRef(Out, {AffineExpr::sym(V0), AffineExpr::sym(V1)});
  auto Rhs = ScalarExpr::makeBinary(
      ScalarExprKind::Add, ScalarExpr::makeRead(OutRef),
      ScalarExpr::makeRead(
          ArrayRef(In, {AffineExpr::sym(V0), AffineExpr::sym(V2)})));
  auto L2 = std::make_unique<Loop>(V2, AffineExpr::constant(0),
                                   Bound(NE - 1));
  L2->Items.push_back(BodyItem(Stmt::makeCompute(OutRef, std::move(Rhs))));
  auto L1 = std::make_unique<Loop>(V1, AffineExpr::constant(0),
                                   Bound(NE - 1));
  L1->Items.push_back(BodyItem(std::move(L2)));
  auto L0 = std::make_unique<Loop>(V0, AffineExpr::constant(0),
                                   Bound(NE - 1));
  L0->Items.push_back(BodyItem(std::move(L1)));
  Nest.Items.push_back(BodyItem(std::move(L0)));

  EXPECT_FALSE(anyCopyVariantFor(Nest, Out));
}

TEST(CopyGuards, ImperfectNestFallsBackToUntransformed) {
  // A statement between loops: derivation must not attempt permutation.
  LoopNest Nest;
  SymbolId N = Nest.declareProblemSize("N");
  SymbolId I = Nest.declareLoopVar("I");
  SymbolId J = Nest.declareLoopVar("J");
  AffineExpr NE = AffineExpr::sym(N);
  ArrayId A = Nest.declareArray({"A", {NE, NE}});
  ArrayRef Init(A, {AffineExpr::sym(I), AffineExpr::constant(0)});
  ArrayRef Elem(A, {AffineExpr::sym(I), AffineExpr::sym(J)});
  auto Inner = std::make_unique<Loop>(J, AffineExpr::constant(1),
                                      Bound(NE - 1));
  Inner->Items.push_back(
      BodyItem(Stmt::makeCompute(Elem, ScalarExpr::makeConst(1.0))));
  auto Outer = std::make_unique<Loop>(I, AffineExpr::constant(0),
                                      Bound(NE - 1));
  Outer->Items.push_back(
      BodyItem(Stmt::makeCompute(Init, ScalarExpr::makeConst(0.0))));
  Outer->Items.push_back(BodyItem(std::move(Inner)));
  Nest.Items.push_back(BodyItem(std::move(Outer)));

  std::vector<DerivedVariant> Vs =
      deriveVariants(Nest, MachineDesc::sgiR10000());
  ASSERT_EQ(Vs.size(), 1u);
  EXPECT_EQ(Vs[0].Spec.Name, "v0-untransformed");
}

// ---- problem-binding and representative-size regressions ----------------

TEST(TunerTest, PinnedRepresentativeSizeIsNotStomped) {
  // A caller-pinned representative size must survive even when the
  // actual problem binding is larger. (The old `== 256` sentinel check
  // only guarded the first binding: any larger binding re-entered the
  // max() and stomped the explicit override.)
  LoopNest MM = makeMatMul();
  SimEvalBackend Backend(sgiScaled());
  TuneOptions Opts;
  Opts.Derive.setRepresentativeSize(48);
  Opts.MaxVariantsToSearch = 1;
  TuneResult R = tune(MM, Backend, {{"N", 96}}, Opts);
  ASSERT_GE(R.BestVariant, 0);
  EXPECT_EQ(R.RepresentativeSizeUsed, 48);
}

TEST(TunerTest, PinnedDefaultValuedRepresentativeSizeSticks) {
  // Pinning exactly the default (256) is indistinguishable from "unset"
  // under sentinel comparison — the explicit-flag fix keeps it.
  LoopNest MM = makeMatMul();
  SimEvalBackend Backend(sgiScaled());
  TuneOptions Opts;
  Opts.Derive.setRepresentativeSize(256);
  Opts.MaxVariantsToSearch = 1;
  TuneResult R = tune(MM, Backend, {{"N", 96}}, Opts);
  ASSERT_GE(R.BestVariant, 0);
  EXPECT_EQ(R.RepresentativeSizeUsed, 256);
}

TEST(TunerTest, UnpinnedRepresentativeSizeTracksProblem) {
  LoopNest MM = makeMatMul();
  SimEvalBackend Backend(sgiScaled());
  TuneOptions Opts;
  Opts.MaxVariantsToSearch = 1;
  TuneResult R = tune(MM, Backend, {{"N", 96}}, Opts);
  ASSERT_GE(R.BestVariant, 0);
  EXPECT_EQ(R.RepresentativeSizeUsed, 96);
}

TEST(TunerTest, MisspelledProblemBindingFailsRecoverably) {
  // "M" names no symbol of matmul. Under NDEBUG the old assert-only
  // guard compiled away and Env::set(-1, ...) was undefined behavior;
  // now the tune reports failure and returns an empty result.
  LoopNest MM = makeMatMul();
  SimEvalBackend Backend(sgiScaled());
  TuneResult R = tune(MM, Backend, {{"M", 64}});
  EXPECT_LT(R.BestVariant, 0);
  EXPECT_TRUE(R.Variants.empty());
  EXPECT_EQ(R.TotalPoints, 0u);
}

TEST(SearchTest, InitialConfigIgnoresUnknownBindingName) {
  // The per-variant binding loop must also survive a name that does not
  // resolve (skeletons extend the symbol table, so this is the same UB
  // under NDEBUG) — the bad name is logged and skipped.
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  ASSERT_FALSE(Vs.empty());
  Env Init = initialConfig(Vs[0], M, {{"BOGUS", 7}, {"N", 32}});
  SymbolId N = Vs[0].Skeleton.Syms.lookup("N");
  ASSERT_GE(N, 0);
  EXPECT_EQ(Init.get(N), 32);
}
