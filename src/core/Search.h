//===- core/Search.h - Phase 2: model-guided empirical search --*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 3.2 search, per variant:
///
///  1. staged tiling search — stages follow the memory levels (register
///     factors first, then each cache level's tile parameters; parameters
///     shared between levels merge their stages). Each stage starts from
///     the model heuristic (footprint = effective capacity, register tile
///     = register file), then runs a binary tile-shape search (double one
///     dimension, halve another at constant footprint), halves the
///     footprint while that helps, and finishes with a small linear
///     refinement;
///  2. prefetch search — one data structure at a time: try distance 1,
///     climb while improving, keep or drop;
///  3. post-prefetch tile adjustment — grow the innermost loop's tile
///     (shrinking others to stay within constraints) while it helps.
///
/// Every evaluation goes through an Evaluator (the engine), which
/// instantiates the variant for the configuration's unroll/prefetch
/// values (cached), binds the tile parameters, and runs it on an
/// EvalBackend: the memory-hierarchy simulator (cycles) or the
/// native compile-and-run backend (seconds). Infeasible configurations
/// (violating any model constraint) are rejected without execution —
/// that is how the models prune the search space.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CORE_SEARCH_H
#define ECO_CORE_SEARCH_H

#include "core/Variant.h"
#include "exec/Run.h"

#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace eco {

/// Where variants get executed and measured.
class EvalBackend {
public:
  virtual ~EvalBackend() = default;

  /// Executes \p Executable under \p Config (which binds problem sizes
  /// and tile parameters) and returns a cost — lower is better.
  virtual double evaluate(const LoopNest &Executable, const Env &Config) = 0;

  virtual const MachineDesc &machine() const = 0;

  /// Returns an independent instance for another worker thread, or
  /// nullptr when this backend cannot be parallelized (the engine then
  /// degrades to sequential evaluation). Clones must produce bit-equal
  /// costs for equal inputs.
  virtual std::unique_ptr<EvalBackend> clone() const { return nullptr; }

  /// Extra text mixed into persistent cache keys. Backends whose cost
  /// for (nest, machine, config) depends on additional internal state
  /// (e.g. a multi-size wrapper's size set, or seconds vs. cycles units)
  /// must return a string identifying that state, so cached results are
  /// never served across incompatible backends.
  virtual std::string cacheSalt() const { return {}; }

  /// Hardware counters this backend accumulates across evaluations, or
  /// nullptr when it has none (the native backend measures wall time
  /// only). The engine snapshots the counters around each evaluation and
  /// attributes the delta to the evaluation's (variant, stage) bucket —
  /// the PAPI-per-configuration measurement of the paper's Table 3.
  /// Callers may only diff snapshots taken on the thread running this
  /// backend instance.
  virtual const HWCounters *hwCounters() const { return nullptr; }
};

/// Runs variants on the memory-hierarchy simulator; cost = cycles.
class SimEvalBackend : public EvalBackend {
public:
  explicit SimEvalBackend(MachineDesc M) : Machine(std::move(M)) {}

  double evaluate(const LoopNest &Executable, const Env &Config) override;
  const MachineDesc &machine() const override { return Machine; }

  /// The simulator is a deterministic pure function of (nest, config);
  /// a clone is just another instance over the same machine. (Clones do
  /// not share the accumulated counters.)
  std::unique_ptr<EvalBackend> clone() const override {
    return std::make_unique<SimEvalBackend>(Machine);
  }

  /// Counters summed over every evaluation this instance has run —
  /// benchmarks divide the access totals by backend wall time to report
  /// simulated accesses per second.
  const HWCounters &accumulatedCounters() const { return Accum; }

  const HWCounters *hwCounters() const override { return &Accum; }

private:
  MachineDesc Machine;
  HWCounters Accum;
};

/// Wraps another backend to evaluate each configuration at several
/// problem sizes and sum the costs. The paper executes variants "with
/// representative input data sets" (plural); summing over a small size
/// set keeps the search from overfitting one size's cache-aliasing
/// accidents — important on the scaled machines, where many sizes are
/// near-pathological.
class MultiSizeEvalBackend : public EvalBackend {
public:
  /// \p SizeName names the problem-size symbol (e.g. "N").
  MultiSizeEvalBackend(EvalBackend &Inner, std::string SizeName,
                       std::vector<int64_t> Sizes)
      : Inner(Inner), SizeName(std::move(SizeName)),
        Sizes(std::move(Sizes)) {
    assert(!this->Sizes.empty() && "need at least one size");
  }

  double evaluate(const LoopNest &Executable, const Env &Config) override {
    SymbolId Id = Executable.Syms.lookup(SizeName);
    assert(Id >= 0 && "size symbol not found");
    double Total = 0;
    for (int64_t N : Sizes) {
      Env E = Config;
      E.set(Id, N);
      Total += Inner.evaluate(Executable, E);
    }
    return Total;
  }

  const MachineDesc &machine() const override { return Inner.machine(); }

  /// Clonable iff the wrapped backend is; the clone owns its inner copy.
  std::unique_ptr<EvalBackend> clone() const override {
    std::unique_ptr<EvalBackend> InnerClone = Inner.clone();
    if (!InnerClone)
      return nullptr;
    auto Copy = std::make_unique<MultiSizeEvalBackend>(*InnerClone,
                                                       SizeName, Sizes);
    Copy->OwnedInner = std::move(InnerClone);
    return Copy;
  }

  std::string cacheSalt() const override {
    std::string Salt = "multisize:" + SizeName + "=";
    for (int64_t N : Sizes)
      Salt += std::to_string(N) + ",";
    return Salt + Inner.cacheSalt();
  }

  /// Counter deltas across a multi-size evaluation naturally sum over
  /// the size set, matching the summed cost.
  const HWCounters *hwCounters() const override {
    return Inner.hwCounters();
  }

private:
  EvalBackend &Inner;
  std::unique_ptr<EvalBackend> OwnedInner; ///< set on clones only
  std::string SizeName;
  std::vector<int64_t> Sizes;
};

/// Runs variants natively (emit C + cc + dlopen); cost = seconds.
/// Requires a working host C compiler.
class NativeEvalBackend : public EvalBackend {
public:
  /// \p Machine describes the host (used for line sizes / heuristics).
  /// \p Repeats: best-of timing repetitions.
  NativeEvalBackend(MachineDesc M, int Repeats = 3);

  double evaluate(const LoopNest &Executable, const Env &Config) override;
  const MachineDesc &machine() const override { return Machine; }

  /// Clones share this instance's compiled-kernel cache (mutex-guarded),
  /// so concurrent lanes compile each distinct source exactly once. The
  /// cache used to be a function-local static — unsynchronized mutable
  /// state shared by *every* backend in the process, a data race the
  /// moment the engine ran native evaluations on more than one lane.
  std::unique_ptr<EvalBackend> clone() const override;

  /// Native costs are wall seconds, not simulated cycles; never share
  /// cache entries with the simulator.
  std::string cacheSalt() const override {
    return "native:r" + std::to_string(Repeats);
  }

private:
  struct KernelCache; ///< defined in Search.cpp (needs NativeRunner.h)
  NativeEvalBackend(MachineDesc M, int Repeats,
                    std::shared_ptr<KernelCache> Cache);

  MachineDesc Machine;
  int Repeats;
  std::shared_ptr<KernelCache> Kernels; ///< shared across the clone chain
};

/// The search's fixed parameter bounds (unroll, tile, prefetch distance).
inline constexpr int SearchMaxUnroll = 16;
inline constexpr int64_t SearchMaxTile = int64_t(1) << 16;
inline constexpr int SearchMaxPrefetchDistance = 64;

/// Search knobs.
struct SearchOptions {
  bool SearchPrefetch = true;
  bool AdjustAfterPrefetch = true;
  int LinearRefineSteps = 2; ///< +-step attempts per parameter

  /// Warm start (the serve layer's cross-request reuse): (name, value)
  /// pairs from a previously tuned configuration. Search parameters
  /// named here (tile sizes, unroll factors, prefetch distances — looked
  /// up by name in the variant's skeleton) replace the model-heuristic
  /// initial point; names a variant does not declare, and non-search
  /// symbols such as problem sizes, are ignored. The seeded point is
  /// repaired back to feasibility exactly like the heuristic one.
  ParamBindings WarmStartConfig;
  /// When > 0 and WarmStartConfig seeded at least one parameter, each
  /// seeded tile/unroll parameter's stage search is bounded to
  /// [seed/Factor, seed*Factor] — the stored optimum anchors the window,
  /// so a re-tune near a known configuration converges in a fraction of
  /// the cold evaluation count. 0 keeps the global bounds.
  int WarmStartBoundFactor = 0;

  /// Cooperative cancellation (deadlines, shutdown): polled before every
  /// evaluation, and by eco::tune before each variant search. Once it
  /// returns true the search stops exploring — remaining candidates read
  /// as infeasible — and returns the best configuration found so far;
  /// the tune searches no further variant. Empty = never cancel.
  std::function<bool()> ShouldStop;
};

/// One evaluated point: the configuration and its cost. How the point
/// was obtained (stage, cache hit, backend time, lane) is recorded once,
/// in its `config.evaluated` flight-recorder event.
struct SearchPoint {
  std::string Config;
  double Cost = 0;
};

/// The paper reports search cost as points visited and wall time (4.3).
struct SearchTrace {
  std::vector<SearchPoint> Points; ///< unique evaluations, in order
  double Seconds = 0;
  size_t numEvaluations() const { return Points.size(); }
};

/// Outcome of searching one variant.
struct VariantSearchResult {
  Env BestConfig;
  double BestCost = std::numeric_limits<double>::infinity();
  SearchTrace Trace;
  /// Candidates the model constraints (or stage bounds) rejected without
  /// executing — the per-variant share of the paper's pruning story.
  /// Counted per rejection decision; a candidate revisited after an
  /// earlier rejection counts again (infeasible points are not memoized).
  size_t Infeasible = 0;
};

/// Outcome of one evaluation through an Evaluator.
struct EvalOutcome {
  double Cost = std::numeric_limits<double>::infinity();
  bool CacheHit = false;
  double Millis = 0; ///< backend wall time (0 for cache hits)
  int Lane = 0;      ///< lane that ran the backend (0 = caller thread)
};

/// Monotonic evaluator counters; callers diff snapshots to attribute
/// work to a search phase (the Tuner's per-variant Points accounting).
struct EvalStats {
  size_t Evaluations = 0;   ///< real backend executions
  size_t CacheHits = 0;     ///< evaluate() calls served from the memo
  size_t Rejected = 0;      ///< configs refused by a transform (inf cost)
  double BackendSeconds = 0;///< summed backend wall time (CPU seconds)
};

/// One (variant, stage) row of the evaluator's telemetry ledger: how many
/// points that stage of that variant's search evaluated, and the summed
/// hardware-counter deltas of those evaluations when the backend exposes
/// counters (Table 3 of the paper, per search stage instead of per final
/// configuration). Counts are cumulative over the evaluator's lifetime;
/// the Tuner diffs snapshots to report one tune.
struct StageTelemetry {
  std::string Variant;
  std::string Stage;
  size_t Evaluations = 0;
  size_t CacheHits = 0;
  double BackendSeconds = 0;
  HWCounters HW;     ///< summed deltas over real (non-cached) evaluations
  bool HasHW = false;///< backend exposed hwCounters()
};

/// How the search evaluates candidate configurations. The search's
/// decision loop stays strictly sequential; an Evaluator may additionally
/// accept *warm* batches — independent candidates a search step is about
/// to consider — and evaluate them concurrently so the subsequent
/// sequential decisions hit its memo table. Because every decision is
/// replayed in the original order against bit-identical costs, the chosen
/// configuration cannot depend on the degree of parallelism.
///
/// The one implementation is EvalEngine (engine/Engine.h); the interface
/// keeps core free of the engine and lets a caller decorate the engine.
class Evaluator {
public:
  virtual ~Evaluator() = default;

  virtual const MachineDesc &machine() const = 0;

  /// Evaluates \p V at \p Config (instantiating as needed). The caller
  /// has already checked bounds and feasibility. \p Stage names the
  /// search phase for tracing.
  virtual EvalOutcome evaluate(const DerivedVariant &V, const Env &Config,
                               const std::string &Stage) = 0;

  /// Hint that each (variant, config) in \p Points is likely to be
  /// evaluated soon; implementations may evaluate them concurrently and
  /// memoize. Correctness never depends on warming.
  virtual void
  warmMany(const std::vector<std::pair<const DerivedVariant *, Env>> &Points,
           const std::string &Stage) = 0;

  /// Convenience: warm several configs of a single variant.
  void warm(const DerivedVariant &V, const std::vector<Env> &Configs,
            const std::string &Stage) {
    std::vector<std::pair<const DerivedVariant *, Env>> Points;
    Points.reserve(Configs.size());
    for (const Env &E : Configs)
      Points.emplace_back(&V, E);
    warmMany(Points, Stage);
  }

  virtual EvalStats stats() const = 0;

  /// Cumulative per-(variant, stage) telemetry rows, sorted by (variant,
  /// stage).
  virtual std::vector<StageTelemetry> telemetry() const = 0;
};

/// The unroll/prefetch portion of \p Config that determines instantiation
/// (tiles stay symbolic); the engine keys its instantiation memo on it.
std::string instantiationKey(const DerivedVariant &V, const Env &Config);

/// The model heuristic's initial configuration for \p Variant (stage
/// initial values; prefetch off). Public so the Tuner can rank variants
/// by their heuristic point before committing to full searches.
Env initialConfig(const DerivedVariant &Variant, const MachineDesc &Machine,
                  const ParamBindings &Problem);

/// The tile-parameter stages the search will walk, in order: one stage
/// per cache level, with stages merged when they share a parameter (the
/// paper's rule for parameters like TK that affect both L1 and L2 — "the
/// search of tiling parameters for both levels is performed in the same
/// stage"). Exposed for diagnostics and tests.
std::vector<std::vector<SymbolId>> searchStages(const DerivedVariant &V);

/// Runs the full Section 3.2 search for one variant through \p Eval.
/// The decision sequence is identical for every Evaluator; a parallel
/// engine only changes how fast the costs materialize.
VariantSearchResult searchVariant(const DerivedVariant &Variant,
                                  Evaluator &Eval,
                                  const ParamBindings &Problem,
                                  const SearchOptions &Opts = {});

} // namespace eco

#endif // ECO_CORE_SEARCH_H
