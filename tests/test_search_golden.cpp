//===- tests/test_search_golden.cpp - pinned search trajectories ----------===//
//
// Bitwise goldens for the search decision loops: the staged Section 3.2
// search (cold and warm-started) over the derived variants of matmul and
// jacobi, and the hill-climbing and annealing comparisons at a fixed
// budget. Each row pins how many points the engine evaluated, how many
// candidates the models pruned, the winning configuration and its cost.
// A refactor of the search must leave every row unchanged; a deliberate
// change to a search decision must explain each moved value in CHANGES.md.
//
//===----------------------------------------------------------------------===//

#include "core/Heuristics.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "kernels/Kernels.h"

#include <gtest/gtest.h>

using namespace eco;

namespace {

MachineDesc sgiScaled() { return MachineDesc::sgiR10000().scaledBy(16); }

struct StagedGolden {
  size_t Evaluations; ///< engine backend executions (fresh engine)
  size_t Infeasible;
  std::string Winner; ///< "<variant>{<params>}"
  double BestCost;
};

/// Searches each listed variant of \p Nest at N=32 on its own engine and
/// compares the outcome with its row.
void expectStaged(const LoopNest &Nest, const std::vector<StagedGolden> &Rows,
                  const SearchOptions &Opts = {}) {
  MachineDesc M = sgiScaled();
  std::vector<DerivedVariant> Vs = deriveVariants(Nest, M);
  for (const StagedGolden &Row : Rows) {
    std::string Name = Row.Winner.substr(0, Row.Winner.find('{'));
    const DerivedVariant *V = nullptr;
    for (const DerivedVariant &Cand : Vs)
      if (Cand.Spec.Name == Name)
        V = &Cand;
    ASSERT_NE(V, nullptr) << Nest.Name << " has no variant " << Name;
    SimEvalBackend Backend(M);
    EvalEngine Engine(Backend);
    VariantSearchResult R = searchVariant(*V, Engine, {{"N", 32}}, Opts);
    SCOPED_TRACE(Nest.Name + " " + Name);
    EXPECT_EQ(Engine.stats().Evaluations, Row.Evaluations);
    EXPECT_EQ(R.Infeasible, Row.Infeasible);
    EXPECT_EQ(V->configString(R.BestConfig), Row.Winner);
    EXPECT_EQ(R.BestCost, Row.BestCost);
  }
}

} // namespace

TEST(SearchGolden, StagedMatMul) {
  expectStaged(
      makeMatMul(),
      {{17, 4, "v1{TK=16,TI=8,UJ=8,UI=4,PFA=2,PFB=1}", 0x1.1a1p+16},
       {20, 11, "v2{TK=16,TI=8,TJ=64,UJ=8,UI=4,PFA=2,PFP=1}", 0x1.39fp+16},
       {18, 3, "v3{TK=16,TI=8,UJ=2,UI=8,PFB=1,PFP=0}", 0x1.004ap+16},
       {28, 11, "v4{TK=8,TI=8,TJ=64,UJ=2,UI=8,PFP=0,PFQ=0}", 0x1.1e52p+16},
       {17, 4, "v5{TK=16,TJ=8,UJ=8,UI=4,PFA=2,PFB=1}", 0x1.039p+16},
       {18, 11, "v6{TK=16,TJ=8,TI=256,UJ=8,UI=4,PFB=1,PFP=0}", 0x1.259cp+16},
       {17, 4, "v7{TK=16,TJ=8,UJ=8,UI=4,PFA=2,PFP=1}", 0x1.0e3ap+16},
       {16, 11, "v8{TK=16,TJ=8,TI=256,UJ=8,UI=4,PFP=0,PFQ=0}", 0x1.3d9cp+16}});
}

TEST(SearchGolden, StagedJacobi) {
  expectStaged(makeJacobi(),
               {{20, 5, "v1{TK=2,TJ=12,UJ=6,UI=3,PFA=1}", 0x1.a6a4ep+19},
                {14, 7, "v2{TK=1,TJ=32,UK=6,UI=4,PFA=1}", 0x1.43da4p+20},
                {10, 7, "v3{TJ=4,TI=4,UK=8,UJ=4,PFA=0}", 0x1.00144p+22},
                {12, 4, "v5{TJ=16,UK=2,UJ=14,PFA=2}", 0x1.20e76p+20},
                {16, 5, "v6{TK=1,TI=32,UK=14,UJ=2,PFA=1}", 0x1.5b1b6p+20},
                {10, 4, "v8{TK=4,UK=8,UJ=3,PFA=1}", 0x1.4d434p+20}});
}

TEST(SearchGolden, StagedMatMulWarmStart) {
  // A seed with a problem-size name and an unknown name (both ignored),
  // and windows of factor 2 around each seeded tile/unroll value. v2
  // ends at its cold winner; v6 and v8 end inside the windows.
  SearchOptions Opts;
  Opts.WarmStartConfig = {{"TK", 32}, {"TI", 4}, {"UI", 2},
                          {"PFA", 4}, {"N", 7},  {"BOGUS", 3}};
  Opts.WarmStartBoundFactor = 2;
  expectStaged(
      makeMatMul(),
      {{21, 11, "v2{TK=16,TI=8,TJ=64,UJ=8,UI=4,PFA=2,PFP=1}", 0x1.39fp+16},
       {15, 14, "v6{TK=16,TJ=4,TI=8,UJ=2,UI=4,PFB=0,PFP=0}", 0x1.2168p+16},
       {14, 14, "v8{TK=16,TJ=4,TI=8,UJ=4,UI=4,PFP=0,PFQ=0}", 0x1.3234p+16}},
      Opts);
}

TEST(SearchGolden, HeuristicSearchesAtBudget40) {
  MachineDesc M = sgiScaled();
  std::vector<DerivedVariant> Vs = deriveVariants(makeMatMul(), M);
  HeuristicSearchOptions Opts;
  Opts.Budget = 40;
  // On a fresh engine every point the search costs is one backend
  // execution, so the engine's count is the search's evaluation count.
  {
    SimEvalBackend Backend(M);
    EvalEngine Engine(Backend);
    VariantSearchResult R =
        hillClimbVariant(Vs.front(), Engine, {{"N", 32}}, Opts);
    EXPECT_EQ(Engine.stats().Evaluations, 40u);
    EXPECT_EQ(R.BestCost, 0x1.1a1p+16);
  }
  {
    SimEvalBackend Backend(M);
    EvalEngine Engine(Backend);
    VariantSearchResult R =
        annealVariant(Vs.front(), Engine, {{"N", 32}}, Opts);
    EXPECT_EQ(Engine.stats().Evaluations, 40u);
    EXPECT_EQ(R.BestCost, 0x1.23f2p+16);
  }
}
