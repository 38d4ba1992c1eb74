//===- core/Search.cpp - Phase 2: model-guided empirical search ----------===//

#include "core/Search.h"
#include "codegen/NativeRunner.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <set>

using namespace eco;

double SimEvalBackend::evaluate(const LoopNest &Executable,
                                const Env &Config) {
  MemHierarchySim Sim(Machine);
  Executor Exec(Executable, Config, Sim);
  Exec.run();
  Accum += Sim.counters();
  return Sim.counters().cycles();
}

NativeEvalBackend::NativeEvalBackend(MachineDesc M, int Repeats)
    : Machine(std::move(M)), Repeats(Repeats),
      Kernels(std::make_shared<NativeKernelCache>()) {}

std::unique_ptr<EvalBackend> NativeEvalBackend::clone() const {
  auto Copy = std::make_unique<NativeEvalBackend>(Machine, Repeats);
  Copy->Kernels = Kernels;
  return Copy;
}

double NativeEvalBackend::evaluate(const LoopNest &Executable,
                                   const Env &Config) {
  std::string Error;
  NativeKernel *Kernel = Kernels->get(Executable, &Error);
  if (!Kernel) {
    // An infeasible point, not a fatal error: the search skips it.
    ECO_LOG(Warn) << "native evaluation rejected a point: " << Error;
    return std::numeric_limits<double>::infinity();
  }

  std::vector<std::vector<double>> Arrays = allocateArrays(Executable, Config);
  Rng R(99);
  for (std::vector<double> &A : Arrays)
    for (double &V : A)
      V = R.nextDouble();

  double Best = std::numeric_limits<double>::infinity();
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    Timer T;
    Kernel->run(Config, Arrays);
    Best = std::min(Best, T.seconds());
  }
  return Best;
}

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// Largest power of two <= max(V, 1).
int64_t floorPow2(int64_t V) {
  int64_t P = 1;
  while (P * 2 <= std::max<int64_t>(V, 1))
    P *= 2;
  return P;
}

/// \p E with \p P set to \p Value.
Env with(const Env &E, SymbolId P, int64_t Value) {
  Env Out = E;
  Out.set(P, Value);
  return Out;
}

/// The largest of \p Params in \p E (the first listed on ties), or -1
/// when every one is already 1 or less.
SymbolId largestOf(const Env &E, const std::vector<SymbolId> &Params) {
  SymbolId Largest = -1;
  int64_t LargestVal = 1;
  for (SymbolId P : Params)
    if (E.get(P) > LargestVal) {
      LargestVal = E.get(P);
      Largest = P;
    }
  return Largest;
}

bool contains(const std::vector<SymbolId> &Params, SymbolId P) {
  return std::find(Params.begin(), Params.end(), P) != Params.end();
}

} // namespace

SearchSpace::SearchSpace(const DerivedVariant &V, SearchBounds Bounds)
    : V(V), Bounds(Bounds) {
  for (const auto &[Var, Param] : V.TileParamOf)
    Tiles.push_back(Param);
  for (const UnrollSpec &U : V.Spec.Unrolls)
    Unrolls.push_back(U.FactorParam);
  for (const PrefetchSpec &P : V.Prefetch)
    Prefetches.push_back(P.DistanceParam);
  All = Tiles;
  All.insert(All.end(), Unrolls.begin(), Unrolls.end());
  All.insert(All.end(), Prefetches.begin(), Prefetches.end());

  // A cache level searches its newly tiled loops plus every tile
  // parameter in its capacity constraint.
  for (const CacheLevelPlan &CL : V.Spec.CacheLevels) {
    std::vector<SymbolId> Params;
    auto add = [&Params](SymbolId P) {
      if (!contains(Params, P))
        Params.push_back(P);
    };
    for (SymbolId Var : CL.NewTiledLoops)
      add(V.TileParamOf.at(Var));
    if (CL.CapConstraintIdx >= 0)
      for (const ProductTerm &T : V.Constraints[CL.CapConstraintIdx].Terms)
        for (SymbolId P : T.Params)
          if (contains(Tiles, P))
            add(P);
    LevelTiles.push_back(Params);

    if (Params.empty())
      continue;
    // Merge with the first stage sharing a parameter.
    auto Shared = std::find_if(
        Stages.begin(), Stages.end(), [&](const std::vector<SymbolId> &S) {
          return std::any_of(Params.begin(), Params.end(),
                             [&](SymbolId P) { return contains(S, P); });
        });
    if (Shared == Stages.end()) {
      Stages.push_back(std::move(Params));
      continue;
    }
    for (SymbolId P : Params)
      if (!contains(*Shared, P))
        Shared->push_back(P);
  }
}

SearchSpace::ParamKind SearchSpace::kind(SymbolId P) const {
  if (contains(Tiles, P))
    return ParamKind::Tile;
  if (contains(Unrolls, P))
    return ParamKind::Unroll;
  if (contains(Prefetches, P))
    return ParamKind::Prefetch;
  return ParamKind::None;
}

bool SearchSpace::inBounds(const Env &E, const SearchWindows &Windows) const {
  auto within = [&E](const std::vector<SymbolId> &Params, int64_t Lo,
                     int64_t Hi) {
    return std::all_of(Params.begin(), Params.end(), [&](SymbolId P) {
      return E.get(P) >= Lo && E.get(P) <= Hi;
    });
  };
  if (!within(Unrolls, 1, Bounds.MaxUnroll) ||
      !within(Tiles, 1, Bounds.MaxTile) ||
      !within(Prefetches, 0, Bounds.MaxPrefetchDistance))
    return false;
  for (const auto &[P, Window] : Windows)
    if (E.get(P) < Window.first || E.get(P) > Window.second)
      return false;
  return true;
}

bool SearchSpace::halveUntilFeasible(
    Env &Cfg, const std::vector<SymbolId> &Params) const {
  for (int Guard = 0; Guard < 64 && !V.feasible(Cfg); ++Guard) {
    SymbolId Largest = largestOf(Cfg, Params);
    if (Largest < 0)
      break;
    Cfg.set(Largest, Cfg.get(Largest) / 2);
  }
  return V.feasible(Cfg);
}

Env SearchSpace::initialConfig(const MachineDesc &Machine,
                               const ParamBindings &Problem) const {
  const LoopNest &Nest = V.Skeleton;
  Env E(Nest.Syms.size());
  for (const auto &[Name, Value] : Problem) {
    SymbolId Id = Nest.Syms.lookup(Name);
    if (Id < 0) {
      // A misspelled binding must not become Env::set(-1, ...) — that is
      // UB once NDEBUG compiles the old assert out. Surface it and skip;
      // eco::tune additionally rejects such problems up front.
      ECO_LOG(Error) << "problem binding '" << Name
                     << "' names no symbol of variant " << V.Spec.Name
                     << "; ignoring it";
      continue;
    }
    E.set(Id, Value);
  }

  // Register stage: the initial register tile is the register file.
  int64_t RegLimit = V.RegConstraintIdx >= 0
                         ? V.Constraints[V.RegConstraintIdx].Limit
                         : Machine.FpRegisters;
  size_t NumUnrolls = Unrolls.size();
  if (NumUnrolls > 0) {
    // int64 arithmetic: with a large register limit (RegLimit is int64)
    // the old `1 << (Bits + 1)` overflowed int at Bits >= 30 — UB, and in
    // practice a negative value that kept the loop running forever.
    int Bits = 0;
    while ((int64_t(1) << (Bits + 1)) <= RegLimit && Bits < 62)
      ++Bits;
    for (size_t U = 0; U < NumUnrolls; ++U) {
      int Share = Bits / static_cast<int>(NumUnrolls) +
                  (U < Bits % NumUnrolls ? 1 : 0);
      int64_t Factor = std::min<int64_t>(int64_t(1) << Share, 16);
      E.set(Unrolls[U], std::max<int64_t>(Factor, 1));
    }
  }

  // Cache stages: footprint = effective capacity, split evenly in log
  // space across the level's unset parameters.
  std::set<SymbolId> Assigned;
  for (size_t L = 0; L < LevelTiles.size(); ++L) {
    const CacheLevelPlan &CL = V.Spec.CacheLevels[L];
    std::vector<SymbolId> Params;
    for (SymbolId P : LevelTiles[L])
      if (!Assigned.count(P))
        Params.push_back(P);
    if (Params.empty())
      continue;
    int64_t Limit = CL.CapConstraintIdx >= 0
                        ? V.Constraints[CL.CapConstraintIdx].Limit
                        : effectiveCapacityElems(Machine.cache(CL.Level), 8);
    // Base: the constraint's LHS with these parameters forced to 1.
    int64_t Base = 1;
    if (CL.CapConstraintIdx >= 0) {
      Env Probe = E;
      for (SymbolId P : Params)
        Probe.set(P, 1);
      Base = std::max<int64_t>(
          V.Constraints[CL.CapConstraintIdx].lhs(Probe), 1);
    }
    int64_t Residual = std::max<int64_t>(Limit / Base, 1);
    int Bits = 0;
    while ((int64_t(1) << (Bits + 1)) <= Residual)
      ++Bits;
    for (size_t P = 0; P < Params.size(); ++P) {
      int Share = Bits / static_cast<int>(Params.size()) +
                  (P < Bits % Params.size() ? 1 : 0);
      E.set(Params[P], std::max<int64_t>(int64_t(1) << Share, 1));
      Assigned.insert(Params[P]);
    }
  }

  // Any tile parameter not covered above (no constraint) gets the L1
  // heuristic size; prefetch distances start at 0 (off).
  for (SymbolId P : Tiles)
    if (!Assigned.count(P) && E.get(P) == 0)
      E.set(P, floorPow2(static_cast<int64_t>(std::sqrt(
                   effectiveCapacityElems(Machine.cache(0), 8)))));
  for (SymbolId P : Prefetches)
    E.set(P, 0);

  // Repair: halve the largest tile until every constraint holds.
  halveUntilFeasible(E, Tiles);
  return E;
}

std::vector<int64_t> SearchSpace::key(const Env &E) const {
  std::vector<int64_t> Key;
  Key.reserve(All.size());
  for (SymbolId P : All)
    Key.push_back(E.get(P));
  return Key;
}

const double *SearchSpace::memoized(const Env &E) const {
  auto It = Memo.find(key(E));
  return It == Memo.end() ? nullptr : &It->second;
}

Env eco::initialConfig(const DerivedVariant &V, const MachineDesc &Machine,
                       const ParamBindings &Problem) {
  return SearchSpace(V).initialConfig(Machine, Problem);
}

namespace {

/// Drives the Section 3.2 search for one variant. The decision loop is
/// strictly sequential; before each step that generates several
/// independent candidates (binary shape-search siblings, linear
/// refinement neighbors, per-array prefetch probes), the candidate set
/// is handed to the Evaluator as a warm batch so a parallel engine can
/// evaluate them concurrently. Decisions then replay against memoized
/// costs, keeping the chosen configuration bit-identical to a fully
/// sequential run.
class Searcher {
public:
  Searcher(const DerivedVariant &V, Evaluator &Eval,
           const ParamBindings &Problem, const SearchOptions &Opts)
      : V(V), Space(V), Eval(Eval), Opts(Opts) {
    Cur = Space.initialConfig(Eval.machine(), Problem);
    HeuristicInit = Cur;
    applyWarmStart();
  }

  VariantSearchResult run() {
    Timer Elapsed;
    {
      obs::SpanScope Span("stage:initial", "search", V.Spec.Name);
      Stage = "initial";
      CurCost = eval(Cur);
      if (WarmSeeded) {
        // Guarded warm start: the seed came from a *neighboring* problem
        // size, and across a cache cliff (e.g. a power-of-two N whose
        // conflict misses reshape the whole cost surface) it can drop
        // the greedy stages into a worse basin than the model's own
        // initial point. One extra evaluation buys the better of the two
        // starts; when the model point wins, the seed windows are
        // dropped too so the search explores at full cold width.
        double HeuristicCost = eval(HeuristicInit);
        if (HeuristicCost < CurCost) {
          ECO_LOG(Debug) << "variant " << V.Spec.Name
                         << ": warm-start seed loses to the model "
                            "initial point; reverting to a cold start";
          if (obs::eventsEnabled()) {
            Json F = Json::object();
            F.set("variant", V.Spec.Name);
            F.set("seed_cost", CurCost);
            F.set("model_cost", HeuristicCost);
            obs::publishEvent("warmstart.reverted", std::move(F));
          }
          Cur = HeuristicInit;
          CurCost = HeuristicCost;
          SeedBounds.clear();
        }
      }
    }
    // If even the heuristic point is infeasible something is off; bail
    // with what we have.
    if (CurCost >= Inf) {
      ECO_LOG(Warn) << "variant " << V.Spec.Name
                    << ": model-heuristic initial point is infeasible; "
                       "skipping its search";
    }
    if (CurCost < Inf) {
      // Stage 1: register factors.
      if (!Space.unrollParams().empty()) {
        obs::SpanScope Span("stage:register", "search", V.Spec.Name);
        Stage = "register";
        shapeSearch(Space.unrollParams());
        linearRefine(Space.unrollParams(), 1);
      }
      // Stage 2..: tile stages.
      size_t StageIdx = 0;
      for (const std::vector<SymbolId> &S : Space.tileStages()) {
        Stage = "tile" + std::to_string(StageIdx++);
        obs::SpanScope Span("stage:" + Stage, "search", V.Spec.Name);
        footprintSearch(S);
        linearRefine(S, lineElems());
      }
      // Stage 3: prefetch, one structure at a time.
      if (Opts.SearchPrefetch) {
        obs::SpanScope Span("stage:prefetch", "search", V.Spec.Name);
        Stage = "prefetch";
        prefetchSearch();
      }
      // Stage 4: post-prefetch tile adjustment.
      if (anyPrefetchOn()) {
        obs::SpanScope Span("stage:adjust", "search", V.Spec.Name);
        Stage = "adjust";
        adjustInnermostTile();
      }
    }

    VariantSearchResult R;
    R.BestConfig = Cur;
    R.BestCost = CurCost;
    R.Trace = {Evaluations, Elapsed.seconds()};
    R.Infeasible = Infeasible;
    return R;
  }

private:
  int64_t lineElems() const {
    return std::max<int64_t>(Eval.machine().cache(0).LineBytes / 8, 1);
  }

  /// Overlays SearchOptions::WarmStartConfig onto the model-heuristic
  /// initial point. Only this variant's search parameters participate
  /// (matched by name); problem sizes and unknown names pass through
  /// untouched. When WarmStartBoundFactor is set, each seeded tile or
  /// unroll parameter additionally gets a [seed/F, seed*F] stage window.
  void applyWarmStart() {
    std::vector<std::pair<std::string, SymbolId>> Seeded;
    for (const auto &[Name, Value] : Opts.WarmStartConfig) {
      SymbolId Id = V.Skeleton.Syms.lookup(Name);
      if (Id < 0 || Value < 0)
        continue;
      SearchSpace::ParamKind Kind = Space.kind(Id);
      if (Kind == SearchSpace::ParamKind::None)
        continue;
      Cur.set(Id, Value);
      Seeded.emplace_back(Name, Id);
      if (Opts.WarmStartBoundFactor > 0 && Value > 0 &&
          Kind != SearchSpace::ParamKind::Prefetch) {
        int64_t F = Opts.WarmStartBoundFactor;
        SeedBounds[Id] = {std::max<int64_t>(Value / F, 1), Value * F};
      }
    }
    if (Seeded.empty())
      return;
    WarmSeeded = true;
    // The seed came from a neighboring problem size, so it may overflow
    // a constraint here: the same repair initialConfig applies.
    Space.halveUntilFeasible(Cur, Space.tileParams());
    // Feasibility repair may have pushed a seeded parameter below its
    // window; widen so the starting point itself is always in bounds.
    for (auto &[P, Window] : SeedBounds) {
      Window.first = std::min(Window.first, Cur.get(P));
      Window.second = std::max(Window.second, Cur.get(P));
    }
    if (obs::eventsEnabled()) {
      Json Params = Json::array();
      for (const auto &[Name, Id] : Seeded) {
        Json P = Json::object();
        P.set("name", Name);
        P.set("value", Cur.get(Id)); // post-repair starting value
        Params.push(std::move(P));
      }
      Json F = Json::object();
      F.set("variant", V.Spec.Name);
      F.set("params", std::move(Params));
      obs::publishEvent("warmstart.seeded", std::move(F));
      for (const auto &[P, Window] : SeedBounds) {
        Json B = Json::object();
        B.set("variant", V.Spec.Name);
        B.set("param", V.Skeleton.Syms.name(P));
        B.set("lo", Window.first);
        B.set("hi", Window.second);
        obs::publishEvent("stage.bounds", std::move(B));
      }
    }
  }

  bool stopped() const { return Opts.ShouldStop && Opts.ShouldStop(); }

  double eval(const Env &E) {
    // Cooperative cancellation: once the caller's deadline fires, stop
    // spending evaluations — every further candidate reads as
    // infeasible, the stage loops run dry, and run() returns the best
    // configuration found so far.
    if (stopped())
      return Inf;
    if (!Space.admits(E, SeedBounds)) {
      // The models (or seed windows) pruned this candidate without
      // spending an execution — the count the paper's Tables 3/4 story
      // is about.
      ++Infeasible;
      return Inf;
    }
    if (const double *Cost = Space.memoized(E))
      return *Cost;

    double Cost = Eval.evaluate(V, E, Stage).Cost;
    Space.memoize(E, Cost);
    ++Evaluations;
    return Cost;
  }

  /// Evaluates \p Cand; adopts it when strictly better.
  bool tryAccept(const Env &Cand) {
    double Cost = eval(Cand);
    if (Cost < CurCost) {
      Cur = Cand;
      CurCost = Cost;
      return true;
    }
    return false;
  }

  /// Hands evaluable candidates this step is about to consider to the
  /// Evaluator for concurrent (speculative) evaluation. Candidates the
  /// search has already costed, or that bounds/constraints would reject
  /// without executing, are filtered exactly as eval() would.
  void warmBatch(std::vector<Env> Cands) {
    if (stopped())
      return; // cancelled: don't fan speculative work out to the lanes
    std::vector<Env> Fresh;
    Fresh.reserve(Cands.size());
    for (Env &E : Cands)
      if (Space.admits(E, SeedBounds) && !Space.memoized(E))
        Fresh.push_back(std::move(E));
    if (Fresh.size() > 1)
      Eval.warm(V, Fresh, Stage);
  }

  /// The shape move from \p From that doubles \p Up and halves \p Down,
  /// or nullopt when Down is already 1 (the footprint would grow).
  static std::optional<Env> shapeMove(const Env &From, SymbolId Up,
                                      SymbolId Down) {
    int64_t NewDown = std::max<int64_t>(From.get(Down) / 2, 1);
    if (NewDown == From.get(Down))
      return std::nullopt;
    Env Cand = with(From, Up, From.get(Up) * 2);
    Cand.set(Down, NewDown);
    return Cand;
  }

  /// Binary tile-shape search at (roughly) constant footprint.
  void shapeSearch(const std::vector<SymbolId> &Params) {
    std::vector<std::pair<SymbolId, SymbolId>> Moves;
    for (SymbolId Up : Params)
      for (SymbolId Down : Params)
        if (Up != Down)
          Moves.emplace_back(Up, Down);
    bool Improved = !Moves.empty();
    while (Improved) {
      Improved = false;
      // Every sibling of the round's starting point is independent of
      // the others; evaluate them concurrently up front. Acceptances
      // mid-round move Cur, after which later candidates may miss the
      // memo — they are then evaluated on demand, still correctly.
      std::vector<Env> Siblings;
      for (auto [Up, Down] : Moves)
        if (std::optional<Env> Cand = shapeMove(Cur, Up, Down))
          Siblings.push_back(std::move(*Cand));
      warmBatch(std::move(Siblings));
      for (auto [Up, Down] : Moves)
        if (std::optional<Env> Cand = shapeMove(Cur, Up, Down))
          Improved |= tryAccept(*Cand);
    }
  }

  /// Shape search, then halve the footprint (largest parameter) while
  /// the re-searched smaller footprint keeps winning.
  void footprintSearch(const std::vector<SymbolId> &Params) {
    shapeSearch(Params);
    while (true) {
      SymbolId Largest = largestOf(Cur, Params);
      if (Largest < 0)
        return;
      Env Shrunk = with(Cur, Largest, Cur.get(Largest) / 2);

      Env PrevBest = Cur;
      double PrevCost = CurCost;
      double ShrunkCost = eval(Shrunk);
      if (ShrunkCost >= Inf)
        return;
      Cur = Shrunk;
      CurCost = ShrunkCost;
      shapeSearch(Params);
      if (CurCost >= PrevCost) {
        Cur = PrevBest;
        CurCost = PrevCost;
        return;
      }
    }
  }

  /// Small +-step walk on each parameter.
  void linearRefine(const std::vector<SymbolId> &Params, int64_t Step) {
    auto stepped = [&](SymbolId P, int64_t Dir) {
      return with(Cur, P, Cur.get(P) + Dir * Step);
    };
    // The first +-step neighbor of every parameter is independent of the
    // others' outcomes; warm them as one batch.
    std::vector<Env> FirstSteps;
    for (SymbolId P : Params)
      for (int64_t Dir : {+1, -1})
        FirstSteps.push_back(stepped(P, Dir));
    warmBatch(std::move(FirstSteps));
    for (SymbolId P : Params)
      for (int64_t Dir : {+1, -1})
        for (int S = 0; S < Opts.LinearRefineSteps; ++S)
          if (!tryAccept(stepped(P, Dir)))
            break;
  }

  /// Try prefetching each data structure, one at a time: distance 1,
  /// then climb while improving; keep or drop (Section 3.2).
  void prefetchSearch() {
    // The per-array distance-1 probes are independent candidates off the
    // post-tiling configuration (most arrays keep prefetch off, so the
    // probes usually are exactly what the sequential walk evaluates).
    std::vector<Env> Probes;
    for (SymbolId P : Space.prefetchParams())
      Probes.push_back(with(Cur, P, 1));
    warmBatch(std::move(Probes));
    for (SymbolId P : Space.prefetchParams()) {
      if (!tryAccept(with(Cur, P, 1)))
        continue; // no benefit: leave off
      for (int64_t D = 2; D <= Space.bounds().MaxPrefetchDistance; D *= 2)
        if (!tryAccept(with(Cur, P, D)))
          break;
    }
  }

  bool anyPrefetchOn() const {
    const std::vector<SymbolId> &Pf = Space.prefetchParams();
    return std::any_of(Pf.begin(), Pf.end(),
                       [this](SymbolId P) { return Cur.get(P) > 0; });
  }

  /// Grow the innermost loop's tile (prefetch works better with longer
  /// inner streams), shrinking other tiles to stay feasible.
  void adjustInnermostTile() {
    auto It = V.TileParamOf.find(V.Spec.RegLoop);
    if (It == V.TileParamOf.end())
      return;
    SymbolId Inner = It->second;
    std::vector<SymbolId> Others;
    for (SymbolId P : Space.tileParams())
      if (P != Inner)
        Others.push_back(P);
    while (true) {
      Env Cand = with(Cur, Inner, Cur.get(Inner) * 2);
      Space.halveUntilFeasible(Cand, Others);
      if (!tryAccept(Cand))
        return;
    }
  }

  const DerivedVariant &V;
  SearchSpace Space;
  Evaluator &Eval;
  SearchOptions Opts;

  Env Cur;
  double CurCost = Inf;
  std::string Stage;
  /// The model-heuristic initial point, kept for the guarded warm start.
  Env HeuristicInit;
  /// True when applyWarmStart() actually overlaid at least one value.
  bool WarmSeeded = false;
  /// Warm-start stage windows: seeded param -> [lo, hi].
  SearchWindows SeedBounds;
  /// Unique points costed through the Evaluator.
  size_t Evaluations = 0;
  /// Candidates rejected by bounds/constraints without execution.
  size_t Infeasible = 0;
};

} // namespace

std::string eco::instantiationKey(const DerivedVariant &V,
                                  const Env &Config) {
  // Instantiation depends only on unroll factors and prefetch
  // distances; tiles stay symbolic.
  std::string Key;
  for (const UnrollSpec &U : V.Spec.Unrolls)
    Key += std::to_string(Config.get(U.FactorParam)) + ",";
  for (const PrefetchSpec &P : V.Prefetch)
    Key += std::to_string(Config.get(P.DistanceParam)) + ",";
  return Key;
}

VariantSearchResult eco::searchVariant(const DerivedVariant &Variant,
                                       Evaluator &Eval,
                                       const ParamBindings &Problem,
                                       const SearchOptions &Opts) {
  return Searcher(Variant, Eval, Problem, Opts).run();
}
