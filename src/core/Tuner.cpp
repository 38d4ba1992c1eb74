//===- core/Tuner.cpp - The two-phase ECO facade ---------------------------===//

#include "core/Tuner.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Span.h"
#include "support/StringUtils.h"
#include "support/Timer.h"

#include <algorithm>
#include <map>

using namespace eco;

namespace {

/// Diffs the evaluator's cumulative telemetry rows against the snapshot
/// taken when the tune started, keeping only rows that changed — the
/// per-(variant, stage) activity attributable to this tune.
std::vector<StageTelemetry>
telemetryDelta(const std::vector<StageTelemetry> &Start,
               const std::vector<StageTelemetry> &End) {
  std::map<std::pair<std::string, std::string>, const StageTelemetry *>
      Base;
  for (const StageTelemetry &Row : Start)
    Base[{Row.Variant, Row.Stage}] = &Row;

  std::vector<StageTelemetry> Delta;
  for (const StageTelemetry &Row : End) {
    StageTelemetry D = Row;
    auto It = Base.find({Row.Variant, Row.Stage});
    if (It != Base.end()) {
      const StageTelemetry &B = *It->second;
      D.Evaluations -= B.Evaluations;
      D.CacheHits -= B.CacheHits;
      D.BackendSeconds -= B.BackendSeconds;
      D.HW = Row.HW.delta(B.HW);
    }
    if (D.Evaluations || D.CacheHits)
      Delta.push_back(std::move(D));
  }
  return Delta;
}

} // namespace

TuneResult eco::tune(const LoopNest &Original, Evaluator &Eval,
                     const ParamBindings &Problem, const TuneOptions &Opts) {
  Timer Total;
  obs::SpanScope TuneSpan("tune", "tune", Original.Name);
  EvalStats StartStats = Eval.stats();
  std::vector<StageTelemetry> StartTele = Eval.telemetry();
  TuneResult Result;

  // Reject unknown problem bindings before any work: every derived
  // variant's skeleton extends the original symbol table, so a name that
  // does not resolve here can never bind downstream either. Returning an
  // empty result (BestVariant = -1) keeps the failure recoverable.
  for (const auto &[Name, Value] : Problem) {
    (void)Value;
    if (Original.Syms.lookup(Name) < 0) {
      ECO_LOG(Error) << "problem binding '" << Name
                     << "' names no symbol of " << Original.Name
                     << "; cannot tune";
      return Result;
    }
  }

  // Use the actual problem size as the representative size for the
  // reuse/footprint models when the caller did not pin one explicitly.
  // (The old `== 256` sentinel only protected the first binding: any
  // later, larger binding re-entered the max() and stomped an explicit
  // caller override.)
  DeriveOptions DOpts = Opts.Derive;
  if (!DOpts.RepresentativeSizeSet) {
    bool Bound = false;
    for (const auto &[Name, Value] : Problem) {
      SymbolId Id = Original.Syms.lookup(Name);
      if (Id >= 0 && Original.Syms.kind(Id) == SymbolKind::ProblemSize) {
        DOpts.RepresentativeSize =
            Bound ? std::max(DOpts.RepresentativeSize, Value) : Value;
        Bound = true;
      }
    }
  }
  Result.RepresentativeSizeUsed = DOpts.RepresentativeSize;

  const bool Events = obs::eventsEnabled();
  if (Events) {
    Json F = Json::object();
    F.set("nest", Original.Name);
    Json P = Json::object();
    for (const auto &[Name, Value] : Problem)
      P.set(Name, Value);
    F.set("problem", std::move(P));
    F.set("representative_size", DOpts.RepresentativeSize);
    // Costs are a function of machine, problem and point: the machine
    // fingerprint lets an audit compare costs across tune windows.
    F.set("machine", strformat("%016llx", static_cast<unsigned long long>(
                                              Eval.machine().fingerprint())));
    if (!Opts.PreferVariant.empty())
      F.set("prefer_variant", Opts.PreferVariant);
    obs::publishEvent("tune.start", std::move(F));
  }

  {
    obs::SpanScope S("derive", "tune");
    Result.Variants = deriveVariants(Original, Eval.machine(), DOpts,
                                     &Result.VariantsRejected);
  }
  ECO_LOG(Info) << "derived " << Result.Variants.size()
                << " variants for " << Original.Name;
  if (Events)
    for (const DerivedVariant &V : Result.Variants) {
      Json F = Json::object();
      F.set("variant", V.Spec.Name);
      F.set("constraints", V.Constraints.size());
      obs::publishEvent("variant.derived", std::move(F));
    }

  // Rank variants by their model-heuristic initial point (one evaluation
  // each) — the models' second pruning role. The points are independent
  // across variants, so warm them as one batch before the sequential
  // ranking walk.
  struct Ranked {
    size_t Index;
    double Cost;
  };
  std::vector<Ranked> Ranking;
  Result.Summaries.resize(Result.Variants.size());

  std::vector<Env> InitConfigs(Result.Variants.size());
  {
    obs::SpanScope S("rank", "tune",
                     std::to_string(Result.Variants.size()) + " variants");
    std::vector<std::pair<const DerivedVariant *, Env>> RankBatch;
    for (size_t VI = 0; VI < Result.Variants.size(); ++VI) {
      const DerivedVariant &V = Result.Variants[VI];
      InitConfigs[VI] = initialConfig(V, Eval.machine(), Problem);
      if (V.feasible(InitConfigs[VI]))
        RankBatch.emplace_back(&V, InitConfigs[VI]);
    }
    if (RankBatch.size() > 1)
      Eval.warmMany(RankBatch, "rank");

    for (size_t VI = 0; VI < Result.Variants.size(); ++VI) {
      const DerivedVariant &V = Result.Variants[VI];
      double Cost = std::numeric_limits<double>::infinity();
      if (V.feasible(InitConfigs[VI]))
        Cost = Eval.evaluate(V, InitConfigs[VI], "rank").Cost;
      Ranking.push_back({VI, Cost});
      Result.Summaries[VI].Name = V.Spec.Name;
      Result.Summaries[VI].HeuristicCost = Cost;
      if (Events) {
        // The model-initial-point record: which configuration the models
        // proposed for this variant and what it cost.
        Json F = Json::object();
        F.set("variant", V.Spec.Name);
        F.set("config", V.configString(InitConfigs[VI]));
        F.set("cost", Cost);
        obs::publishEvent("variant.ranked", std::move(F));
      }
    }
  }
  std::stable_sort(Ranking.begin(), Ranking.end(),
                   [](const Ranked &A, const Ranked &B) {
                     return A.Cost < B.Cost;
                   });
  if (!Opts.PreferVariant.empty()) {
    for (size_t R = 0; R < Ranking.size(); ++R) {
      if (Result.Variants[Ranking[R].Index].Spec.Name != Opts.PreferVariant)
        continue;
      Ranked Preferred = Ranking[R];
      Ranking.erase(Ranking.begin() + static_cast<ptrdiff_t>(R));
      Ranking.insert(Ranking.begin(), Preferred);
      break;
    }
  }

  // Full search on the top candidates. Per-variant Points/CacheHits come
  // from the evaluator's stats deltas (not a hand-maintained count in
  // the search loop), so they stay correct under parallel evaluation.
  Result.BestCost = std::numeric_limits<double>::infinity();
  size_t ToSearch =
      std::min<size_t>(Opts.MaxVariantsToSearch, Ranking.size());
  const bool Metrics = obs::metricsEnabled();
  if (Metrics) {
    obs::metrics().gauge("tune.variants_total").set(
        static_cast<double>(ToSearch));
    obs::metrics().gauge("tune.variants_done").set(0);
  }
  // A caller-level ShouldStop also cancels inside each search: copy it
  // into the search hook when the caller did not set one explicitly.
  SearchOptions SOpts = Opts.Search;
  if (!SOpts.ShouldStop && Opts.ShouldStop)
    SOpts.ShouldStop = Opts.ShouldStop;
  for (size_t R = 0; R < ToSearch; ++R) {
    if (Opts.ShouldStop && Opts.ShouldStop()) {
      Result.Cancelled = true;
      ECO_LOG(Info) << "tune of " << Original.Name
                    << " cancelled after " << R << " of " << ToSearch
                    << " variant searches";
      break;
    }
    size_t VI = Ranking[R].Index;
    const DerivedVariant &V = Result.Variants[VI];
    VariantSummary &Sum = Result.Summaries[VI];

    VariantSearchResult SR;
    {
      obs::SpanScope S("search:" + V.Spec.Name, "tune");
      EvalStats Before = Eval.stats();
      Timer SearchTime;
      SR = searchVariant(V, Eval, Problem, SOpts);
      EvalStats After = Eval.stats();
      Sum.Points = After.Evaluations - Before.Evaluations;
      Sum.CacheHits = After.CacheHits - Before.CacheHits;
      Sum.Infeasible = SR.Infeasible;
      Sum.Seconds = SearchTime.seconds();
    }
    Sum.Searched = true;
    Sum.BestCost = SR.BestCost;
    Sum.BestConfig = V.configString(SR.BestConfig);
    if (Metrics)
      obs::metrics().gauge("tune.variants_done").set(
          static_cast<double>(R + 1));
    ECO_LOG(Debug) << "variant " << V.Spec.Name << " best cost "
                   << SR.BestCost << " after " << Sum.Points
                   << " points";

    if (SR.BestCost < Result.BestCost) {
      Result.BestCost = SR.BestCost;
      Result.BestVariant = static_cast<int>(VI);
      Result.BestConfig = SR.BestConfig;
      if (Events) {
        Json F = Json::object();
        F.set("variant", V.Spec.Name);
        F.set("config", Sum.BestConfig);
        F.set("cost", SR.BestCost);
        obs::publishEvent("winner.updated", std::move(F));
      }
    }
  }

  // A cancellation during the last variant's search never reaches the
  // loop-top check; the flag must still reach the caller.
  if (!Result.Cancelled && Opts.ShouldStop && Opts.ShouldStop())
    Result.Cancelled = true;

  if (Result.BestVariant >= 0)
    Result.BestExecutable = Result.Variants[Result.BestVariant].instantiate(
        Result.BestConfig, Eval.machine());

  EvalStats EndStats = Eval.stats();
  Result.TotalPoints = EndStats.Evaluations - StartStats.Evaluations;
  Result.TotalCacheHits = EndStats.CacheHits - StartStats.CacheHits;
  Result.ConfigsRejected = EndStats.Rejected - StartStats.Rejected;
  for (const VariantSummary &Sum : Result.Summaries)
    Result.InfeasiblePruned += Sum.Infeasible;
  Result.TotalSeconds = Total.seconds();
  Result.Telemetry = telemetryDelta(StartTele, Eval.telemetry());
  ECO_LOG(Info) << "tune complete: " << Result.TotalPoints << " points, "
                << Result.TotalCacheHits << " cache hits, best cost "
                << Result.BestCost;

  if (Events) {
    // Ranked-but-not-searched variants are the model-ranking prune.
    for (const VariantSummary &Sum : Result.Summaries)
      if (!Sum.Searched) {
        Json F = Json::object();
        F.set("variant", Sum.Name);
        F.set("heuristic_cost", Sum.HeuristicCost);
        F.set("reason", "model-ranking");
        obs::publishEvent("variant.pruned", std::move(F));
      }
    for (const StageTelemetry &Row : Result.Telemetry) {
      Json F = Json::object();
      F.set("variant", Row.Variant);
      F.set("stage", Row.Stage);
      F.set("evals", Row.Evaluations);
      F.set("cache_hits", Row.CacheHits);
      F.set("backend_s", Row.BackendSeconds);
      if (Row.HasHW) {
        F.set("loads", Row.HW.Loads);
        F.set("stores", Row.HW.Stores);
        F.set("l1_misses", Row.HW.l1Misses());
        F.set("l2_misses", Row.HW.l2Misses());
        F.set("tlb_misses", Row.HW.TlbMisses);
        F.set("cycles", Row.HW.cycles());
      }
      obs::publishEvent("stage.telemetry", std::move(F));
    }
    // The reconciliation record: every total the report and the event
    // audit check the stream against comes verbatim from TuneResult.
    Json F = Json::object();
    F.set("nest", Original.Name);
    F.set("points", Result.TotalPoints);
    F.set("cache_hits", Result.TotalCacheHits);
    F.set("variants_derived", Result.Variants.size());
    size_t Searched = 0;
    for (const VariantSummary &Sum : Result.Summaries)
      Searched += Sum.Searched;
    F.set("variants_searched", Searched);
    F.set("variants_rejected", Result.VariantsRejected);
    F.set("configs_rejected", Result.ConfigsRejected);
    F.set("infeasible_pruned", Result.InfeasiblePruned);
    F.set("best_variant",
          Result.BestVariant >= 0 ? Result.best().Spec.Name : "");
    F.set("best_config",
          Result.BestVariant >= 0
              ? Result.best().configString(Result.BestConfig)
              : "");
    F.set("best_cost", Result.BestCost);
    F.set("wall_s", Result.TotalSeconds);
    F.set("cancelled", Result.Cancelled);
    obs::publishEvent("tune.done", std::move(F));
  }
  return Result;
}

TuneResult eco::tune(const LoopNest &Original, EvalBackend &Backend,
                     const ParamBindings &Problem, const TuneOptions &Opts) {
  DirectEvaluator Eval(Backend);
  return tune(Original, Eval, Problem, Opts);
}
