//===- core/Heuristics.cpp - AI-search alternatives ------------------------===//

#include "core/Heuristics.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>

using namespace eco;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Deterministic randomness: every heuristic search draws from this seed.
constexpr uint64_t Seed = 42;
/// Annealing: initial temperature relative to the starting cost, and its
/// geometric cooling per step.
constexpr double InitialTemperature = 0.25;
constexpr double TemperatureDecay = 0.95;

/// One heuristic walk over the variant's SearchSpace: budget accounting,
/// the current and best points, and the randomness.
class HeuristicSearch {
public:
  HeuristicSearch(const DerivedVariant &V, Evaluator &Eval, std::string Stage,
                  const ParamBindings &Problem,
                  const HeuristicSearchOptions &Opts)
      : V(V), Space(V, Opts.Bounds), Eval(Eval), Stage(std::move(Stage)),
        Budget(Opts.Budget) {
    Cur = Best = Space.initialConfig(Eval.machine(), Problem);
    CurCost = BestCost = eval(Cur);
  }

  /// Budget is counted in unique evaluations, but a search revisiting
  /// cached configurations must still terminate: cap total attempts too.
  bool budgetLeft() const {
    return Evaluations < Budget && Attempts < Budget * 20;
  }

  double eval(const Env &E) {
    ++Attempts;
    if (!Space.admits(E))
      return Inf;
    if (const double *Cost = Space.memoized(E))
      return *Cost;
    if (!budgetLeft())
      return Inf;

    // A point a transform refuses (an illegal unroll here) is
    // infeasible, not a measurement: it is not charged to the budget.
    EvalOutcome O = Eval.evaluate(V, E, Stage);
    Space.memoize(E, O.Cost);
    if (!O.Rejected)
      ++Evaluations;
    return O.Cost;
  }

  /// Moves to \p E, costing \p Cost, and keeps the best point seen.
  void moveTo(const Env &E, double Cost) {
    Cur = E;
    CurCost = Cost;
    if (CurCost < BestCost) {
      Best = Cur;
      BestCost = CurCost;
    }
  }

  /// Random neighbor of Cur: perturb one parameter (double/halve tiles,
  /// +-1 unroll, step prefetch distance).
  Env neighbor() {
    const std::vector<SymbolId> &All = Space.params();
    if (All.empty())
      return Cur;
    SymbolId P = All[R.nextInt(0, static_cast<int>(All.size()) - 1)];
    int64_t Val = Cur.get(P);
    const SearchBounds &B = Space.bounds();
    int64_t Next;
    switch (Space.kind(P)) {
    case SearchSpace::ParamKind::Tile:
      Next = R.nextBool() ? Val * 2 : std::max<int64_t>(Val / 2, 1);
      break;
    case SearchSpace::ParamKind::Prefetch:
      Next = R.nextBool() ? std::min<int64_t>(Val == 0 ? 1 : Val * 2,
                                              B.MaxPrefetchDistance)
                          : Val / 2;
      break;
    default:
      Next = std::clamp<int64_t>(Val + (R.nextBool() ? 1 : -1), 1,
                                 B.MaxUnroll);
    }
    Env Cand = Cur;
    Cand.set(P, Next);
    return Cand;
  }

  /// Uniform random feasible-ish point (used for restarts).
  Env randomPoint() {
    Env Cand = Cur;
    for (SymbolId P : Space.tileParams())
      Cand.set(P, int64_t(1) << R.nextInt(0, 8));
    for (SymbolId P : Space.unrollParams())
      Cand.set(P, int64_t(1) << R.nextInt(0, 4));
    for (SymbolId P : Space.prefetchParams())
      Cand.set(P, R.nextBool() ? R.nextInt(1, 16) : 0);
    return Cand;
  }

  VariantSearchResult result() const {
    VariantSearchResult Result;
    Result.BestConfig = Best;
    Result.BestCost = BestCost;
    Result.Trace = {Evaluations, Elapsed.seconds()};
    return Result;
  }

  Env Cur;
  double CurCost;
  Rng R{Seed};

private:
  Timer Elapsed;
  const DerivedVariant &V;
  SearchSpace Space;
  Evaluator &Eval;
  std::string Stage;
  size_t Budget;
  size_t Evaluations = 0;
  size_t Attempts = 0;
  Env Best;
  double BestCost;
};

} // namespace

VariantSearchResult
eco::hillClimbVariant(const DerivedVariant &Variant, Evaluator &Eval,
                      const ParamBindings &Problem,
                      const HeuristicSearchOptions &Opts) {
  HeuristicSearch S(Variant, Eval, "hill-climb", Problem, Opts);
  int Stuck = 0;
  while (S.budgetLeft()) {
    // Try a handful of neighbors; move to the best improving one.
    Env BestNbr = S.Cur;
    double BestNbrCost = Inf;
    for (int T = 0; T < 4 && S.budgetLeft(); ++T) {
      Env Nbr = S.neighbor();
      double Cost = S.eval(Nbr);
      if (Cost < BestNbrCost) {
        BestNbrCost = Cost;
        BestNbr = Nbr;
      }
    }
    if (BestNbrCost < S.CurCost) {
      S.moveTo(BestNbr, BestNbrCost);
      Stuck = 0;
    } else if (++Stuck >= 3) {
      // Random restart.
      Env Restart = S.randomPoint();
      S.moveTo(Restart, S.eval(Restart));
      Stuck = 0;
    }
  }
  return S.result();
}

VariantSearchResult
eco::annealVariant(const DerivedVariant &Variant, Evaluator &Eval,
                   const ParamBindings &Problem,
                   const HeuristicSearchOptions &Opts) {
  HeuristicSearch S(Variant, Eval, "anneal", Problem, Opts);
  // Temperature relative to the starting cost.
  double Temp = InitialTemperature * (S.CurCost < Inf ? S.CurCost : 1.0);
  while (S.budgetLeft()) {
    Env Nbr = S.neighbor();
    double Cost = S.eval(Nbr);
    double Delta = Cost - S.CurCost;
    if (Cost < Inf &&
        (Delta <= 0 ||
         (Temp > 0 && S.R.nextDouble() < std::exp(-Delta / Temp))))
      S.moveTo(Nbr, Cost);
    Temp *= TemperatureDecay;
  }
  return S.result();
}
