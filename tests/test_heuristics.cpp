//===- tests/test_heuristics.cpp - heuristic searches + failure injection -===//

#include "core/Heuristics.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"

#include <cmath>
#include <gtest/gtest.h>

using namespace eco;

namespace {

MachineDesc sgiScaled() { return MachineDesc::sgiR10000().scaledBy(16); }

/// Wraps a backend, reporting failure (infinite cost) on a deterministic
/// subset of evaluations — models flaky measurement or a variant the
/// native compiler rejects.
class FlakyBackend : public EvalBackend {
public:
  FlakyBackend(EvalBackend &Inner, int FailEvery)
      : Inner(Inner), FailEvery(FailEvery) {}

  double evaluate(const LoopNest &Executable, const Env &Config) override {
    ++Calls;
    if (FailEvery > 0 && Calls % FailEvery == 0)
      return std::numeric_limits<double>::infinity();
    return Inner.evaluate(Executable, Config);
  }
  const MachineDesc &machine() const override { return Inner.machine(); }

  int Calls = 0;

private:
  EvalBackend &Inner;
  int FailEvery;
};

} // namespace

TEST(Heuristics, HillClimbRespectsBudgetAndFeasibility) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EvalEngine Eval(Backend);
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  HeuristicSearchOptions Opts;
  Opts.Budget = 30;
  VariantSearchResult R =
      hillClimbVariant(Vs.front(), Eval, {{"N", 64}}, Opts);
  EXPECT_LE(R.Trace.Evaluations, 30u);
  EXPECT_TRUE(Vs.front().feasible(R.BestConfig));
  EXPECT_LT(R.BestCost, std::numeric_limits<double>::infinity());
}

TEST(Heuristics, AnnealRespectsBudgetAndFeasibility) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EvalEngine Eval(Backend);
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  HeuristicSearchOptions Opts;
  Opts.Budget = 30;
  VariantSearchResult R =
      annealVariant(Vs.front(), Eval, {{"N", 64}}, Opts);
  EXPECT_LE(R.Trace.Evaluations, 30u);
  EXPECT_TRUE(Vs.front().feasible(R.BestConfig));
  EXPECT_LT(R.BestCost, std::numeric_limits<double>::infinity());
}

TEST(Heuristics, BothStartFromModelHeuristicSoNeverWorseThanIt) {
  // "Models + heuristic search": starting from the model point, the
  // result can only improve on it.
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  const DerivedVariant &V = Vs.front();
  Env Init = initialConfig(V, M, {{"N", 64}});
  LoopNest InitNest = V.instantiate(Init, M);
  double InitCost = Backend.evaluate(InitNest, Init);

  HeuristicSearchOptions Opts;
  Opts.Budget = 40;
  EvalEngine Eval(Backend);
  EXPECT_LE(hillClimbVariant(V, Eval, {{"N", 64}}, Opts).BestCost,
            InitCost);
  EXPECT_LE(annealVariant(V, Eval, {{"N", 64}}, Opts).BestCost,
            InitCost);
}

TEST(Heuristics, DeterministicForSeed) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend B1(M), B2(M);
  EvalEngine E1(B1), E2(B2);
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  HeuristicSearchOptions Opts;
  Opts.Budget = 25;
  VariantSearchResult A = annealVariant(Vs.front(), E1, {{"N", 48}}, Opts);
  VariantSearchResult B = annealVariant(Vs.front(), E2, {{"N", 48}}, Opts);
  EXPECT_DOUBLE_EQ(A.BestCost, B.BestCost);
  EXPECT_EQ(A.Trace.Evaluations, B.Trace.Evaluations);
}

TEST(FailureInjection, GuidedSearchSurvivesFlakyEvaluations) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Inner(M);
  FlakyBackend Flaky(Inner, /*FailEvery=*/5);
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  EvalEngine Engine(Flaky);
  VariantSearchResult R = searchVariant(Vs.front(), Engine, {{"N", 64}});
  // Some evaluations failed, but a finite feasible best survives.
  EXPECT_LT(R.BestCost, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(Vs.front().feasible(R.BestConfig));
  EXPECT_GT(Flaky.Calls, 0);
}

TEST(FailureInjection, TunerSurvivesFlakyEvaluations) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Inner(M);
  FlakyBackend Flaky(Inner, /*FailEvery=*/7);
  TuneResult R = tune(MM, Flaky, {{"N", 64}});
  ASSERT_GE(R.BestVariant, 0);
  EXPECT_LT(R.BestCost, std::numeric_limits<double>::infinity());
}

TEST(FailureInjection, AllEvaluationsFailingYieldsInfiniteBest) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Inner(M);
  FlakyBackend Broken(Inner, /*FailEvery=*/1); // every call fails
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  EvalEngine Engine(Broken);
  VariantSearchResult R = searchVariant(Vs.front(), Engine, {{"N", 32}});
  EXPECT_TRUE(std::isinf(R.BestCost));
}

TEST(Heuristics, TerminatesWhenConfigSpaceSaturates) {
  // Regression: with a huge budget and a search that oscillates among
  // already-cached configurations, the attempt cap must end the run
  // (an earlier version looped forever on cache hits).
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EvalEngine Eval(Backend);
  std::vector<DerivedVariant> Vs = deriveVariants(MM, M);
  HeuristicSearchOptions Opts;
  Opts.Budget = 100000; // far more than reachable configurations
  Opts.Bounds = {/*MaxUnroll=*/2, /*MaxTile=*/8, /*MaxPrefetchDistance=*/1};
  VariantSearchResult HC =
      hillClimbVariant(Vs.front(), Eval, {{"N", 16}}, Opts);
  VariantSearchResult SA =
      annealVariant(Vs.front(), Eval, {{"N", 16}}, Opts);
  EXPECT_LT(HC.Trace.Evaluations, Opts.Budget);
  EXPECT_LT(SA.Trace.Evaluations, Opts.Budget);
  EXPECT_LT(HC.BestCost, std::numeric_limits<double>::infinity());
}
