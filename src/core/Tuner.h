//===- core/Tuner.h - The two-phase ECO facade -----------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The top-level entry point tying the two phases together:
///
///   phase 1  deriveVariants  — models propose few variants + constraints
///   (model pruning)          — variants ranked at their heuristic initial
///                              configuration; only the most promising get
///                              a full search
///   phase 2  searchVariant   — guided empirical search per variant
///   select                   — best measured configuration wins
///
/// Typical use:
/// \code
///   LoopNest MM = makeMatMul();
///   SimEvalBackend Backend(MachineDesc::sgiR10000().scaledBy(16));
///   TuneResult R = tune(MM, Backend, {{"N", 128}});
///   // R.BestExecutable + R.BestConfig reproduce the winning schedule.
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CORE_TUNER_H
#define ECO_CORE_TUNER_H

#include "core/DeriveVariants.h"
#include "core/Search.h"

namespace eco {

/// Per-variant reporting.
struct VariantSummary {
  std::string Name;
  double HeuristicCost = 0; ///< cost at the model's initial configuration
  bool Searched = false;
  double BestCost = 0;
  std::string BestConfig;
  size_t Points = 0;        ///< backend evaluations (from evaluator stats)
  size_t CacheHits = 0;     ///< memo hits during this variant's search
  size_t Infeasible = 0;    ///< candidates model constraints pruned unrun
};

/// Knobs for the full pipeline.
struct TuneOptions {
  DeriveOptions Derive;
  SearchOptions Search;
  /// Model pruning: how many variants (ranked by their heuristic initial
  /// point) receive a full empirical search.
  unsigned MaxVariantsToSearch = 4;

  /// Warm start: a variant name to search first, regardless of its
  /// heuristic rank. The serve layer passes the ConfigDB seed's winning
  /// variant here so a narrowed warm search (MaxVariantsToSearch = 1)
  /// cannot prune away the family the seeded configuration belongs to.
  /// Unknown names are ignored.
  std::string PreferVariant;
};

/// Outcome of a full tuning run.
struct TuneResult {
  std::vector<DerivedVariant> Variants;
  int BestVariant = -1;
  Env BestConfig;
  double BestCost = 0;
  LoopNest BestExecutable; ///< instantiated winner (tiles still symbolic)

  std::vector<VariantSummary> Summaries;
  size_t TotalPoints = 0;    ///< backend evaluations (Section 4.3)
  size_t TotalCacheHits = 0; ///< evaluator memo hits across the tune
  double TotalSeconds = 0;
  /// The pruning ledger (the per-tune Tables 3/4 story): derivation
  /// plans a transform refused, candidate configs the model constraints
  /// rejected without execution, and configs a transform refused at
  /// evaluation time. All three are "search space the models removed";
  /// the flight-recorder report reconciles against exactly these.
  size_t VariantsRejected = 0; ///< derivation-time TransformError prunes
  size_t InfeasiblePruned = 0; ///< constraint/bounds prunes, never run
  size_t ConfigsRejected = 0;  ///< evaluator-level TransformError prunes
  /// True when SearchOptions::ShouldStop fired: the result is the best
  /// configuration found before cancellation, not a completed tune.
  bool Cancelled = false;
  /// The representative size derivation actually ran with: the caller's
  /// pinned value (DeriveOptions::setRepresentativeSize) or the largest
  /// problem-size binding.
  int64_t RepresentativeSizeUsed = 0;

  /// Per-(variant, stage) telemetry for THIS tune (the evaluator's
  /// cumulative rows are diffed against a snapshot taken at entry).
  /// Empty when the evaluator does not implement telemetry(). Counts
  /// reconcile with TotalPoints/TotalCacheHits; rows with HasHW carry
  /// summed simulated hardware-counter deltas (Table 3-style data).
  std::vector<StageTelemetry> Telemetry;

  const DerivedVariant &best() const {
    assert(BestVariant >= 0 && "tuning failed");
    return Variants[BestVariant];
  }
};

/// Runs the complete two-phase optimization of \p Original through
/// \p Eval (a DirectEvaluator, or the engine's parallel EvalEngine) at
/// the given problem size(s). Point/time accounting in the result comes
/// from the evaluator's stats, so it stays correct when evaluations run
/// concurrently or are served from a persistent cache.
TuneResult tune(const LoopNest &Original, Evaluator &Eval,
                const ParamBindings &Problem, const TuneOptions &Opts = {});

/// Convenience overload: sequential tuning directly on \p Backend.
TuneResult tune(const LoopNest &Original, EvalBackend &Backend,
                const ParamBindings &Problem, const TuneOptions &Opts = {});

} // namespace eco

#endif // ECO_CORE_TUNER_H
