//===- core/Heuristics.h - AI-search alternatives --------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 5 closes: "We anticipate the kind of domain
/// knowledge used in our approach could be effectively combined with such
/// heuristic search techniques" (simulated annealing, hill climbing,
/// genetic search). This module provides those comparison searches over
/// the *same* variant/configuration space and constraints:
///
///  * hillClimbVariant — steepest-neighbor descent with random restarts;
///  * annealVariant    — simulated annealing with a geometric cooling
///                       schedule.
///
/// Both start from the model heuristic's initial point, so "models +
/// heuristic search" hybrids are exactly what these implement; with the
/// models' constraints still pruning infeasible moves, they demonstrate
/// the combination the paper anticipates. Both evaluate through an
/// Evaluator (the engine, stages "hill-climb" and "anneal"), as the
/// staged search does. bench_ablation compares them against the staged
/// guided search at equal budget.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CORE_HEURISTICS_H
#define ECO_CORE_HEURISTICS_H

#include "core/Search.h"

namespace eco {

/// Knobs shared by the heuristic searches.
struct HeuristicSearchOptions {
  size_t Budget = 100;       ///< maximum evaluations
  uint64_t Seed = 42;        ///< deterministic randomness
  double StartTemp = 0.25;   ///< annealing: initial relative temperature
  double Cooling = 0.95;     ///< annealing: geometric cooling per step
  int MaxUnroll = SearchMaxUnroll;
  int64_t MaxTile = SearchMaxTile;
  int MaxPrefetchDistance = SearchMaxPrefetchDistance;
};

/// Steepest-descent hill climbing with random restarts when stuck.
VariantSearchResult hillClimbVariant(const DerivedVariant &Variant,
                                     Evaluator &Eval,
                                     const ParamBindings &Problem,
                                     const HeuristicSearchOptions &Opts = {});

/// Simulated annealing over the same move set.
VariantSearchResult annealVariant(const DerivedVariant &Variant,
                                  Evaluator &Eval,
                                  const ParamBindings &Problem,
                                  const HeuristicSearchOptions &Opts = {});

} // namespace eco

#endif // ECO_CORE_HEURISTICS_H
