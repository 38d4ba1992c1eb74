//===- core/Heuristics.cpp - AI-search alternatives ------------------------===//

#include "core/Heuristics.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <map>

using namespace eco;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Shared evaluation plumbing over an Evaluator: cost cache, bounds and
/// feasibility checks, budget accounting, trace recording.
class HeuristicEvaluator {
public:
  HeuristicEvaluator(const DerivedVariant &V, Evaluator &Eval,
                     std::string Stage, const HeuristicSearchOptions &Opts)
      : V(V), Eval(Eval), Stage(std::move(Stage)), Opts(Opts) {
    for (const auto &[Var, Param] : V.TileParamOf)
      TileParams.push_back(Param);
    for (const UnrollSpec &U : V.Spec.Unrolls)
      UnrollParams.push_back(U.FactorParam);
    for (const PrefetchSpec &P : V.Prefetch)
      PfParams.push_back(P.DistanceParam);
  }

  /// Budget is counted in unique evaluations, but a search revisiting
  /// cached configurations must still terminate: cap total attempts too.
  bool budgetLeft() const {
    return Trace.Points.size() < Opts.Budget &&
           Attempts < Opts.Budget * 20;
  }

  double eval(const Env &E) {
    ++Attempts;
    if (!withinBounds(E) || !V.feasible(E))
      return Inf;
    std::string Key = V.configString(E);
    auto Cached = CostCache.find(Key);
    if (Cached != CostCache.end())
      return Cached->second;
    if (!budgetLeft())
      return Inf;

    // A point a transform refuses (an illegal unroll here) is
    // infeasible, not a measurement: it is neither recorded nor charged
    // to the budget.
    size_t RejectedBefore = Eval.stats().Rejected;
    double Cost = Eval.evaluate(V, E, Stage).Cost;
    CostCache[Key] = Cost;
    if (Eval.stats().Rejected == RejectedBefore)
      Trace.Points.push_back({Key, Cost});
    return Cost;
  }

  /// Random neighbor: perturb one parameter (double/halve tiles, +-1
  /// unroll, step prefetch distance).
  Env neighbor(const Env &Cur, Rng &R) {
    Env Cand = Cur;
    std::vector<SymbolId> All;
    All.insert(All.end(), TileParams.begin(), TileParams.end());
    All.insert(All.end(), UnrollParams.begin(), UnrollParams.end());
    All.insert(All.end(), PfParams.begin(), PfParams.end());
    if (All.empty())
      return Cand;
    SymbolId P = All[R.nextInt(0, static_cast<int>(All.size()) - 1)];
    int64_t Val = Cur.get(P);
    bool IsTile = std::find(TileParams.begin(), TileParams.end(), P) !=
                  TileParams.end();
    bool IsPf = std::find(PfParams.begin(), PfParams.end(), P) !=
                PfParams.end();
    int64_t Next;
    if (IsTile)
      Next = R.nextBool() ? Val * 2 : std::max<int64_t>(Val / 2, 1);
    else if (IsPf)
      Next = R.nextBool() ? std::min<int64_t>(Val == 0 ? 1 : Val * 2,
                                              Opts.MaxPrefetchDistance)
                          : Val / 2;
    else
      Next = std::clamp<int64_t>(Val + (R.nextBool() ? 1 : -1), 1,
                                 Opts.MaxUnroll);
    Cand.set(P, Next);
    return Cand;
  }

  /// Uniform random feasible-ish point (used for restarts).
  Env randomPoint(const Env &Base, Rng &R) {
    Env Cand = Base;
    for (SymbolId P : TileParams)
      Cand.set(P, int64_t(1) << R.nextInt(0, 8));
    for (SymbolId P : UnrollParams)
      Cand.set(P, int64_t(1) << R.nextInt(0, 4));
    for (SymbolId P : PfParams)
      Cand.set(P, R.nextBool() ? R.nextInt(1, 16) : 0);
    return Cand;
  }

  SearchTrace takeTrace() { return std::move(Trace); }

private:
  bool withinBounds(const Env &E) const {
    for (SymbolId P : UnrollParams)
      if (E.get(P) < 1 || E.get(P) > Opts.MaxUnroll)
        return false;
    for (SymbolId P : TileParams)
      if (E.get(P) < 1 || E.get(P) > Opts.MaxTile)
        return false;
    for (SymbolId P : PfParams)
      if (E.get(P) < 0 || E.get(P) > Opts.MaxPrefetchDistance)
        return false;
    return true;
  }

  const DerivedVariant &V;
  Evaluator &Eval;
  std::string Stage;
  HeuristicSearchOptions Opts;
  std::vector<SymbolId> TileParams, UnrollParams, PfParams;
  std::map<std::string, double> CostCache;
  SearchTrace Trace;
  size_t Attempts = 0;
};

} // namespace

VariantSearchResult
eco::hillClimbVariant(const DerivedVariant &Variant, Evaluator &Eval,
                      const ParamBindings &Problem,
                      const HeuristicSearchOptions &Opts) {
  Timer Elapsed;
  HeuristicEvaluator HE(Variant, Eval, "hill-climb", Opts);
  Rng R(Opts.Seed);

  Env Cur = initialConfig(Variant, Eval.machine(), Problem);
  double CurCost = HE.eval(Cur);
  Env Best = Cur;
  double BestCost = CurCost;

  int Stuck = 0;
  while (HE.budgetLeft()) {
    // Try a handful of neighbors; move to the best improving one.
    Env BestNbr = Cur;
    double BestNbrCost = Inf;
    for (int T = 0; T < 4 && HE.budgetLeft(); ++T) {
      Env Nbr = HE.neighbor(Cur, R);
      double Cost = HE.eval(Nbr);
      if (Cost < BestNbrCost) {
        BestNbrCost = Cost;
        BestNbr = Nbr;
      }
    }
    if (BestNbrCost < CurCost) {
      Cur = BestNbr;
      CurCost = BestNbrCost;
      Stuck = 0;
    } else if (++Stuck >= 3) {
      // Random restart.
      Cur = HE.randomPoint(Cur, R);
      CurCost = HE.eval(Cur);
      Stuck = 0;
    }
    if (CurCost < BestCost) {
      BestCost = CurCost;
      Best = Cur;
    }
  }

  VariantSearchResult Result;
  Result.BestConfig = Best;
  Result.BestCost = BestCost;
  Result.Trace = HE.takeTrace();
  Result.Trace.Seconds = Elapsed.seconds();
  return Result;
}

VariantSearchResult
eco::annealVariant(const DerivedVariant &Variant, Evaluator &Eval,
                   const ParamBindings &Problem,
                   const HeuristicSearchOptions &Opts) {
  Timer Elapsed;
  HeuristicEvaluator HE(Variant, Eval, "anneal", Opts);
  Rng R(Opts.Seed);

  Env Cur = initialConfig(Variant, Eval.machine(), Problem);
  double CurCost = HE.eval(Cur);
  Env Best = Cur;
  double BestCost = CurCost;

  // Temperature relative to the starting cost.
  double Temp = Opts.StartTemp *
                (CurCost < Inf ? CurCost : 1.0);
  while (HE.budgetLeft()) {
    Env Nbr = HE.neighbor(Cur, R);
    double Cost = HE.eval(Nbr);
    if (Cost < Inf) {
      double Delta = Cost - CurCost;
      if (Delta <= 0 ||
          (Temp > 0 && R.nextDouble() < std::exp(-Delta / Temp))) {
        Cur = Nbr;
        CurCost = Cost;
      }
    }
    if (CurCost < BestCost) {
      BestCost = CurCost;
      Best = Cur;
    }
    Temp *= Opts.Cooling;
  }

  VariantSearchResult Result;
  Result.BestConfig = Best;
  Result.BestCost = BestCost;
  Result.Trace = HE.takeTrace();
  Result.Trace.Seconds = Elapsed.seconds();
  return Result;
}
