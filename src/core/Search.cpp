//===- core/Search.cpp - Phase 2: model-guided empirical search ----------===//

#include "core/Search.h"
#include "codegen/CEmitter.h"
#include "codegen/NativeRunner.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "support/Rng.h"
#include "support/Timer.h"

#include "support/Sync.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
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

/// Compiled kernels cached by emitted source text: tile-size changes
/// reuse the binary (tiles are runtime parameters of the emitted
/// function). Shared by every clone in a chain and locked around lookup
/// and insert; entries are never erased, so a kernel pointer stays valid
/// after the lock drops (NativeKernel::run is const and reentrant —
/// callers pass their own parameter/array storage).
struct NativeEvalBackend::KernelCache {
  Mutex Mu{"exec.kernels"};
  std::map<std::string, std::unique_ptr<NativeKernel>> BySource
      ECO_GUARDED_BY(Mu);
};

NativeEvalBackend::NativeEvalBackend(MachineDesc M, int Repeats)
    : Machine(std::move(M)), Repeats(Repeats),
      Kernels(std::make_shared<KernelCache>()) {}

NativeEvalBackend::NativeEvalBackend(MachineDesc M, int Repeats,
                                     std::shared_ptr<KernelCache> Cache)
    : Machine(std::move(M)), Repeats(Repeats), Kernels(std::move(Cache)) {}

std::unique_ptr<EvalBackend> NativeEvalBackend::clone() const {
  return std::unique_ptr<EvalBackend>(
      new NativeEvalBackend(Machine, Repeats, Kernels));
}

double NativeEvalBackend::evaluate(const LoopNest &Executable,
                                   const Env &Config) {
  std::string Src = emitC(Executable, "eco_kernel");
  NativeKernel *Kernel = nullptr;
  {
    MutexLock Lock(Kernels->Mu);
    auto It = Kernels->BySource.find(Src);
    if (It == Kernels->BySource.end()) {
      // Compile under the lock: serializing the (rare, expensive) cc
      // invocations also guarantees each distinct source compiles once.
      std::string Error;
      std::unique_ptr<NativeKernel> Fresh =
          NativeKernel::compile(Executable, &Error);
      if (!Fresh) {
        // An infeasible point, not a fatal error: the search skips it.
        ECO_LOG(Warn) << "native evaluation rejected a point: " << Error;
        return std::numeric_limits<double>::infinity();
      }
      It = Kernels->BySource.emplace(std::move(Src), std::move(Fresh)).first;
    }
    Kernel = It->second.get();
  }

  std::vector<long> Params(Executable.Syms.size(), 0);
  for (size_t S = 0; S < Params.size(); ++S)
    if (S < Config.size())
      Params[S] = static_cast<long>(Config.get(static_cast<SymbolId>(S)));

  std::vector<std::vector<double>> Storage;
  std::vector<double *> Arrays;
  Rng R(99);
  for (size_t A = 0; A < Executable.Arrays.size(); ++A) {
    int64_t Elems = Executable.Arrays[A].numElements(Config);
    Storage.emplace_back(static_cast<size_t>(Elems));
    for (double &V : Storage.back())
      V = R.nextDouble();
    Arrays.push_back(Storage.back().data());
  }

  double Best = std::numeric_limits<double>::infinity();
  for (int Rep = 0; Rep < Repeats; ++Rep) {
    Timer T;
    Kernel->run(Params.data(), Arrays.data());
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

/// The tile parameters a cache level's stage searches: its newly tiled
/// loops plus every tile parameter in its capacity constraint.
std::vector<SymbolId> stageTileParams(const DerivedVariant &V,
                                      const CacheLevelPlan &CL) {
  std::vector<SymbolId> Params;
  auto add = [&Params](SymbolId P) {
    if (std::find(Params.begin(), Params.end(), P) == Params.end())
      Params.push_back(P);
  };
  for (SymbolId Var : CL.NewTiledLoops)
    add(V.TileParamOf.at(Var));
  if (CL.CapConstraintIdx >= 0) {
    std::set<SymbolId> TileParams;
    for (const auto &[Var, Param] : V.TileParamOf)
      TileParams.insert(Param);
    for (const ProductTerm &T :
         V.Constraints[CL.CapConstraintIdx].Terms)
      for (SymbolId P : T.Params)
        if (TileParams.count(P))
          add(P);
  }
  return Params;
}

} // namespace

std::vector<std::vector<SymbolId>>
eco::searchStages(const DerivedVariant &V) {
  std::vector<std::vector<SymbolId>> Stages;
  for (const CacheLevelPlan &CL : V.Spec.CacheLevels) {
    std::vector<SymbolId> Params = stageTileParams(V, CL);
    if (Params.empty())
      continue;
    // Merge with any existing stage sharing a parameter.
    bool Merged = false;
    for (std::vector<SymbolId> &Stage : Stages) {
      bool Shares = false;
      for (SymbolId P : Params)
        if (std::find(Stage.begin(), Stage.end(), P) != Stage.end())
          Shares = true;
      if (!Shares)
        continue;
      for (SymbolId P : Params)
        if (std::find(Stage.begin(), Stage.end(), P) == Stage.end())
          Stage.push_back(P);
      Merged = true;
      break;
    }
    if (!Merged)
      Stages.push_back(std::move(Params));
  }
  return Stages;
}

Env eco::initialConfig(const DerivedVariant &V, const MachineDesc &Machine,
                       const ParamBindings &Problem) {
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
  size_t NumUnrolls = V.Spec.Unrolls.size();
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
      E.set(V.Spec.Unrolls[U].FactorParam, std::max<int64_t>(Factor, 1));
    }
  }

  // Cache stages: footprint = effective capacity, split evenly in log
  // space across the stage's unset parameters.
  std::set<SymbolId> Assigned;
  for (const CacheLevelPlan &CL : V.Spec.CacheLevels) {
    std::vector<SymbolId> Params;
    for (SymbolId P : stageTileParams(V, CL))
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
  for (const auto &[Var, Param] : V.TileParamOf)
    if (!Assigned.count(Param) && E.get(Param) == 0)
      E.set(Param, floorPow2(static_cast<int64_t>(std::sqrt(
                       effectiveCapacityElems(Machine.cache(0), 8)))));
  for (const PrefetchSpec &P : V.Prefetch)
    E.set(P.DistanceParam, 0);

  // Repair: halve the largest tile until every constraint holds.
  for (int Guard = 0; Guard < 64 && !V.feasible(E); ++Guard) {
    SymbolId Largest = -1;
    int64_t LargestVal = 1;
    for (const auto &[Var, Param] : V.TileParamOf)
      if (E.get(Param) > LargestVal) {
        LargestVal = E.get(Param);
        Largest = Param;
      }
    if (Largest < 0)
      break;
    E.set(Largest, LargestVal / 2);
  }
  return E;
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
      : V(V), Eval(Eval), Opts(Opts) {
    Cur = initialConfig(V, Eval.machine(), Problem);
    HeuristicInit = Cur;
    for (const auto &[Var, Param] : V.TileParamOf)
      TileParams.push_back(Param);
    for (const UnrollSpec &U : V.Spec.Unrolls)
      UnrollParams.push_back(U.FactorParam);
    for (const PrefetchSpec &P : V.Prefetch)
      PfParams.push_back(P.DistanceParam);
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
      if (!UnrollParams.empty()) {
        obs::SpanScope Span("stage:register", "search", V.Spec.Name);
        Stage = "register";
        shapeSearch(UnrollParams);
        linearRefine(UnrollParams, 1);
      }
      // Stage 2..: tile stages.
      size_t StageIdx = 0;
      for (const std::vector<SymbolId> &S : searchStages(V)) {
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
      if (Opts.AdjustAfterPrefetch && anyPrefetchOn()) {
        obs::SpanScope Span("stage:adjust", "search", V.Spec.Name);
        Stage = "adjust";
        adjustInnermostTile();
      }
    }

    VariantSearchResult R;
    R.BestConfig = Cur;
    R.BestCost = CurCost;
    R.Trace = std::move(Trace);
    R.Trace.Seconds = Elapsed.seconds();
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
  /// unroll parameter additionally gets a [seed/F, seed*F] stage bound.
  void applyWarmStart() {
    if (Opts.WarmStartConfig.empty())
      return;
    std::set<SymbolId> SearchParams;
    for (SymbolId P : TileParams)
      SearchParams.insert(P);
    for (SymbolId P : UnrollParams)
      SearchParams.insert(P);
    for (SymbolId P : PfParams)
      SearchParams.insert(P);
    bool Seeded = false;
    for (const auto &[Name, Value] : Opts.WarmStartConfig) {
      SymbolId Id = V.Skeleton.Syms.lookup(Name);
      if (Id < 0 || !SearchParams.count(Id) || Value < 0)
        continue;
      Cur.set(Id, Value);
      Seeded = true;
      if (Opts.WarmStartBoundFactor > 0 && Value > 0 &&
          !std::count(PfParams.begin(), PfParams.end(), Id)) {
        int64_t F = Opts.WarmStartBoundFactor;
        SeedBounds[Id] = {std::max<int64_t>(Value / F, 1), Value * F};
      }
    }
    if (!Seeded)
      return;
    WarmSeeded = true;
    // Repair: the seed came from a neighboring problem size, so it may
    // overflow a constraint here; halve the largest tile until feasible
    // (the same repair rule initialConfig applies to the heuristic).
    for (int Guard = 0; Guard < 64 && !V.feasible(Cur); ++Guard) {
      SymbolId Largest = -1;
      int64_t LargestVal = 1;
      for (SymbolId P : TileParams)
        if (Cur.get(P) > LargestVal) {
          LargestVal = Cur.get(P);
          Largest = P;
        }
      if (Largest < 0)
        break;
      Cur.set(Largest, LargestVal / 2);
    }
    // Feasibility repair may have pushed a seeded parameter below its
    // window; widen so the starting point itself is always in bounds.
    for (auto &[P, Window] : SeedBounds) {
      Window.first = std::min(Window.first, Cur.get(P));
      Window.second = std::max(Window.second, Cur.get(P));
    }
    if (obs::eventsEnabled()) {
      Json Params = Json::array();
      for (const auto &[Name, Value] : Opts.WarmStartConfig) {
        SymbolId Id = V.Skeleton.Syms.lookup(Name);
        if (Id < 0 || !SearchParams.count(Id) || Value < 0)
          continue;
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

  bool withinBounds(const Env &E) const {
    for (SymbolId P : UnrollParams) {
      int64_t F = E.get(P);
      if (F < 1 || F > SearchMaxUnroll)
        return false;
    }
    for (SymbolId P : TileParams) {
      int64_t T = E.get(P);
      if (T < 1 || T > SearchMaxTile)
        return false;
    }
    for (SymbolId P : PfParams) {
      int64_t D = E.get(P);
      if (D < 0 || D > SearchMaxPrefetchDistance)
        return false;
    }
    for (const auto &[P, Window] : SeedBounds) {
      int64_t T = E.get(P);
      if (T < Window.first || T > Window.second)
        return false;
    }
    return true;
  }

  double eval(const Env &E) {
    // Cooperative cancellation: once the caller's deadline fires, stop
    // spending evaluations — every further candidate reads as
    // infeasible, the stage loops run dry, and run() returns the best
    // configuration found so far.
    if (Opts.ShouldStop && Opts.ShouldStop())
      return Inf;
    if (!withinBounds(E) || !V.feasible(E)) {
      // The models (or seed windows) pruned this candidate without
      // spending an execution — the count the paper's Tables 3/4 story
      // is about.
      ++Infeasible;
      return Inf;
    }
    std::string Key = V.configString(E);
    auto Cached = CostCache.find(Key);
    if (Cached != CostCache.end())
      return Cached->second;

    EvalOutcome O = Eval.evaluate(V, E, Stage);
    CostCache[Key] = O.Cost;
    Trace.Points.push_back({Key, O.Cost});
    return O.Cost;
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
    if (Opts.ShouldStop && Opts.ShouldStop())
      return; // cancelled: don't fan speculative work out to the lanes
    std::vector<Env> Fresh;
    Fresh.reserve(Cands.size());
    for (Env &E : Cands) {
      if (!withinBounds(E) || !V.feasible(E))
        continue;
      if (CostCache.count(V.configString(E)))
        continue;
      Fresh.push_back(std::move(E));
    }
    if (Fresh.size() > 1)
      Eval.warm(V, Fresh, Stage);
  }

  /// All (double Up, halve Down) siblings reachable from \p From in one
  /// shape-search round — the independent candidate set a round scans.
  std::vector<Env> shapeSiblings(const Env &From,
                                 const std::vector<SymbolId> &Params) {
    std::vector<Env> Cands;
    for (SymbolId Up : Params) {
      for (SymbolId Down : Params) {
        if (Up == Down)
          continue;
        int64_t NewDown = std::max<int64_t>(From.get(Down) / 2, 1);
        if (NewDown == From.get(Down))
          continue;
        Env Cand = From;
        Cand.set(Up, From.get(Up) * 2);
        Cand.set(Down, NewDown);
        Cands.push_back(std::move(Cand));
      }
    }
    return Cands;
  }

  /// Binary tile-shape search at (roughly) constant footprint.
  void shapeSearch(const std::vector<SymbolId> &Params) {
    if (Params.size() < 2)
      return;
    bool Improved = true;
    while (Improved) {
      Improved = false;
      // Every sibling of the round's starting point is independent of
      // the others; evaluate them concurrently up front. Acceptances
      // mid-round move Cur, after which later candidates may miss the
      // memo — they are then evaluated on demand, still correctly.
      warmBatch(shapeSiblings(Cur, Params));
      for (SymbolId Up : Params) {
        for (SymbolId Down : Params) {
          if (Up == Down)
            continue;
          Env Cand = Cur;
          int64_t NewDown = std::max<int64_t>(Cur.get(Down) / 2, 1);
          if (NewDown == Cur.get(Down))
            continue;
          Cand.set(Up, Cur.get(Up) * 2);
          Cand.set(Down, NewDown);
          if (tryAccept(Cand))
            Improved = true;
        }
      }
    }
  }

  /// Shape search, then halve the footprint (largest parameter) while
  /// the re-searched smaller footprint keeps winning.
  void footprintSearch(const std::vector<SymbolId> &Params) {
    shapeSearch(Params);
    while (true) {
      // Halve the largest parameter.
      SymbolId Largest = -1;
      int64_t LargestVal = 1;
      for (SymbolId P : Params)
        if (Cur.get(P) > LargestVal) {
          LargestVal = Cur.get(P);
          Largest = P;
        }
      if (Largest < 0)
        return;
      Env Shrunk = Cur;
      Shrunk.set(Largest, LargestVal / 2);

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
    // The first +-step neighbor of every parameter is independent of the
    // others' outcomes; warm them as one batch.
    std::vector<Env> FirstSteps;
    for (SymbolId P : Params) {
      for (int64_t Dir : {+1, -1}) {
        Env Cand = Cur;
        Cand.set(P, Cur.get(P) + Dir * Step);
        FirstSteps.push_back(std::move(Cand));
      }
    }
    warmBatch(std::move(FirstSteps));
    for (SymbolId P : Params) {
      for (int64_t Dir : {+1, -1}) {
        for (int S = 0; S < Opts.LinearRefineSteps; ++S) {
          Env Cand = Cur;
          Cand.set(P, Cur.get(P) + Dir * Step);
          if (!tryAccept(Cand))
            break;
        }
      }
    }
  }

  /// Try prefetching each data structure, one at a time: distance 1,
  /// then climb while improving; keep or drop (Section 3.2).
  void prefetchSearch() {
    // The per-array distance-1 probes are independent candidates off the
    // post-tiling configuration (most arrays keep prefetch off, so the
    // probes usually are exactly what the sequential walk evaluates).
    std::vector<Env> Probes;
    for (SymbolId P : PfParams) {
      Env Cand = Cur;
      Cand.set(P, 1);
      Probes.push_back(std::move(Cand));
    }
    warmBatch(std::move(Probes));
    for (SymbolId P : PfParams) {
      Env Cand = Cur;
      Cand.set(P, 1);
      if (!tryAccept(Cand))
        continue; // no benefit: leave off
      for (int64_t D = 2; D <= SearchMaxPrefetchDistance; D *= 2) {
        Env Climb = Cur;
        Climb.set(P, D);
        if (!tryAccept(Climb))
          break;
      }
    }
  }

  bool anyPrefetchOn() const {
    for (SymbolId P : PfParams)
      if (Cur.get(P) > 0)
        return true;
    return false;
  }

  /// Grow the innermost loop's tile (prefetch works better with longer
  /// inner streams), shrinking other tiles to stay feasible.
  void adjustInnermostTile() {
    auto It = V.TileParamOf.find(V.Spec.RegLoop);
    if (It == V.TileParamOf.end())
      return;
    SymbolId Inner = It->second;
    while (true) {
      Env Cand = Cur;
      Cand.set(Inner, Cur.get(Inner) * 2);
      // Restore feasibility by halving the largest other tile.
      for (int Guard = 0; Guard < 32 && !V.feasible(Cand); ++Guard) {
        SymbolId Largest = -1;
        int64_t LargestVal = 1;
        for (SymbolId P : TileParams)
          if (P != Inner && Cand.get(P) > LargestVal) {
            LargestVal = Cand.get(P);
            Largest = P;
          }
        if (Largest < 0)
          break;
        Cand.set(Largest, LargestVal / 2);
      }
      if (!tryAccept(Cand))
        return;
    }
  }

  const DerivedVariant &V;
  Evaluator &Eval;
  SearchOptions Opts;

  Env Cur;
  double CurCost = Inf;
  std::string Stage;
  SearchTrace Trace;
  std::map<std::string, double> CostCache;
  std::vector<SymbolId> TileParams, UnrollParams, PfParams;
  /// The model-heuristic initial point, kept for the guarded warm start.
  Env HeuristicInit;
  /// True when applyWarmStart() actually overlaid at least one value.
  bool WarmSeeded = false;
  /// Warm-start stage bounds: seeded param -> [lo, hi] window.
  std::map<SymbolId, std::pair<int64_t, int64_t>> SeedBounds;
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
