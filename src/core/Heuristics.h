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
/// the combination the paper anticipates. Both read the variant's
/// SearchSpace (the parameter split, bounds, feasibility and point memo
/// the staged search uses) and evaluate through an Evaluator (the engine,
/// stages "hill-climb" and "anneal"). bench_ablation compares them
/// against the staged guided search at equal budget.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CORE_HEURISTICS_H
#define ECO_CORE_HEURISTICS_H

#include "core/Search.h"

namespace eco {

/// Knobs shared by the heuristic searches. Both draw from one fixed seed,
/// so a search is a deterministic function of its inputs.
struct HeuristicSearchOptions {
  size_t Budget = 100; ///< maximum evaluations
  SearchBounds Bounds; ///< the space's parameter bounds
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
