//===- engine/Engine.h - Parallel evaluation engine ------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// EvalEngine is the one Evaluator: every in-process search (the staged
/// search, the heuristic hybrids, the tuner's rank step), the fleet
/// worker and the DB audit evaluate through it. It combines
///
///  * a ThreadPool of per-lane EvalBackend clones — warm batches (the
///    independent candidates each search step generates) evaluate
///    concurrently, one simulator instance per lane;
///  * an EvalCache memoizing every completed evaluation under a stable
///    (variant fingerprint, machine, config) key, optionally persisted to
///    JSON so repeated points are free within a tune and across re-runs.
///    The key is computed from declarative inputs alone, so a cached
///    point is answered before anything is instantiated; instantiation
///    (memoized per fingerprint and unroll/prefetch values) runs only on
///    a miss;
///  * one per-(variant, stage) ledger of evaluations, cache hits, backend
///    time and hardware-counter deltas, from which stats() and
///    telemetry() are read. The per-point record is the flight
///    recorder's `config.evaluated` event (obs/Event.h), published only
///    while events are enabled.
///
/// Determinism: the search's accept/reject decisions happen on the
/// calling thread in the original sequential order; parallelism only
/// pre-computes costs into the cache. Backend clones are required to be
/// bit-deterministic (the simulator is a pure function), so the chosen
/// best configuration is identical to a sequential run — demonstrated by
/// tests/test_engine.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_ENGINE_ENGINE_H
#define ECO_ENGINE_ENGINE_H

#include "core/Search.h"
#include "core/Tuner.h"
#include "engine/EvalCache.h"
#include "engine/ThreadPool.h"
// Unused by the engine: perfbench/src/TuneWorkloads.cpp gets TraceLog here.
#include "engine/TraceLog.h"
#include "exec/Run.h"

#include "support/Sync.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace eco {

/// One warm-batch point exported for evaluation outside this process:
/// enough to rebuild the evaluation elsewhere (variant derivation is
/// stable, so the variant name + the portable symbol bindings pin the
/// exact point) plus the cache key the remote cost lands under. The
/// simulated cost is a pure function of (nest, machine, config), so a
/// remote evaluation is bit-identical to a local one.
struct RemotePoint {
  std::string Variant; ///< DerivedVariant::Spec.Name ("v1", "v2", ...)
  ParamBindings Config; ///< non-loop symbol bindings (envToBindings form)
  EvalKey Key;          ///< where the remote cost is inserted
};

/// Engine construction knobs (the eco_cli flags map onto these).
struct EngineOptions {
  /// Total parallelism; 1 = sequential (still memoizing).
  int Jobs = 1;
  /// When set, the cache loads from this JSON file at construction and
  /// saves to it on flush()/destruction and, every CacheSaveInterval
  /// inserts, from the calling thread while running.
  std::string CacheFile;
  /// When set, this engine memoizes into the given cache instead of a
  /// private one — the serve layer hands every worker's engine the same
  /// cache so concurrent tuning jobs share each other's evaluations
  /// (EvalCache is fully thread-safe). CacheFile load/save still apply,
  /// against the shared instance.
  std::shared_ptr<EvalCache> SharedCache;
  /// When set, warmMany() first offers each (deduplicated, not yet
  /// cached) batch to this hook — the serve layer's remote worker
  /// fleet. The hook blocks until the batch resolves (bounded by the
  /// fleet's deadlines) and inserts completed costs into the engine's
  /// cache under each point's Key; points that fail remotely are simply
  /// left uncached and the sequential decision loop re-evaluates them
  /// locally, so the tuned winner is bit-identical either way.
  std::function<void(const std::vector<RemotePoint> &,
                     const std::string &Stage)>
      RemoteWarm;
  /// Optional fast gate for RemoteWarm: when set and returning false,
  /// warmMany skips building RemotePoints entirely (the fleet has no
  /// live workers, so serializing a batch would be pure overhead).
  std::function<bool()> RemoteWarmGate;
};

/// The parallel, memoizing Evaluator.
class EvalEngine : public Evaluator {
public:
  /// Inserts between periodic cache saves when CacheFile is set. Small
  /// because a guided tune evaluates only tens of points: a
  /// rarely-reached interval means a killed tune saves nothing and
  /// resume re-evaluates from scratch.
  static constexpr size_t CacheSaveInterval = 16;

  /// \p Backend must outlive the engine. With Jobs > 1 the backend
  /// should be clonable; when clone() returns nullptr the engine
  /// degrades to sequential evaluation (jobs() reports 1).
  explicit EvalEngine(EvalBackend &Backend, EngineOptions Opts = {});
  ~EvalEngine() override;

  const MachineDesc &machine() const override { return Base.machine(); }

  EvalOutcome evaluate(const DerivedVariant &V, const Env &Config,
                       const std::string &Stage) override;

  void
  warmMany(const std::vector<std::pair<const DerivedVariant *, Env>> &Points,
           const std::string &Stage) override;

  /// The telemetry() rows summed, plus the rejected-config count.
  EvalStats stats() const override;

  /// Per-(variant, stage) telemetry: evaluation/cache-hit counts, summed
  /// backend wall time, and — when the backend exposes hwCounters() —
  /// the summed hardware-counter deltas of every real evaluation in that
  /// bucket. Stage is the string the search passes to evaluate()
  /// ("initial", "register", "tile0", ..., "prefetch", "adjust", and the
  /// Tuner's "rank"). Rows are sorted by (variant, stage).
  std::vector<StageTelemetry> telemetry() const override;

  /// Effective parallelism after backend-clonability degradation.
  int jobs() const { return Pool->jobs(); }

  /// How many times this engine has run DerivedVariant::instantiate()
  /// (including attempts a TransformError rejected). Cache hits never
  /// instantiate.
  size_t instantiations() const {
    MutexLock Lock(InstMutex);
    return Instantiations;
  }

  EvalCache &cache() { return *CachePtr; }

  /// Saves the cache file (when configured). Called from the destructor;
  /// call earlier for durability. Like evaluate() and warmMany(), call
  /// it only from the thread that drives the search: that thread is the
  /// file's only writer.
  void flush();

private:
  /// Returns (building if needed) the instantiation of \p V under
  /// \p Config's unroll/prefetch values. Thread-safe; the returned
  /// reference stays valid for the engine's lifetime.
  const LoopNest &instantiated(const DerivedVariant &V, const Env &Config);

  EvalKey keyFor(const DerivedVariant &V, const Env &Config) const;

  /// Cache-or-evaluate one point on \p Lane; returns the outcome and
  /// records it in the ledger. \p Warm marks speculative batch work.
  EvalOutcome evalOne(const DerivedVariant &V, const Env &Config,
                      const std::string &Stage, int Lane, bool Warm);

  /// Saves the cache file once CacheSaveInterval inserts have built up
  /// since the last periodic save. Runs on the search thread only.
  void saveIfDue();

  EvalBackend &Base;
  EngineOptions Opts;
  std::unique_ptr<ThreadPool> Pool;
  /// Lane -> backend. Lane 0 is the caller's thread and uses Base;
  /// lanes >= 1 own clones.
  std::vector<std::unique_ptr<EvalBackend>> LaneBackends;

  std::shared_ptr<EvalCache> CachePtr; ///< Opts.SharedCache or private
  uint64_t MachineHash = 0;

  mutable Mutex InstMutex{"engine.inst"};
  /// (variant fingerprint, instantiationKey) -> instantiated nest. Keyed
  /// by content so an engine that outlives one tune cannot hand a
  /// variant allocated at a reused address another variant's nest.
  /// Node-based so references stay stable while the map grows.
  std::map<std::pair<uint64_t, std::string>, LoopNest> InstMemo
      ECO_GUARDED_BY(InstMutex);
  size_t Instantiations ECO_GUARDED_BY(InstMutex) = 0;

  mutable Mutex StatsMutex{"engine.stats"};
  /// Configs a TransformError rejected; never cached, so never in a row.
  size_t Rejected ECO_GUARDED_BY(StatsMutex) = 0;
  /// (variant, stage) -> telemetry row.
  std::map<std::pair<std::string, std::string>, StageTelemetry>
      VariantStages ECO_GUARDED_BY(StatsMutex);
  /// Lanes count their inserts here; saveIfDue() reads and resets it.
  size_t InsertsSinceSave ECO_GUARDED_BY(StatsMutex) = 0;
};

// Unused by the program: perfbench/src/TuneWorkloads.cpp still names the
// deleted sequential evaluator; the alias goes with it (ROADMAP.md).
using DirectEvaluator = EvalEngine;

/// Convenience overload: tunes through a one-lane EvalEngine with a
/// private cache over \p Backend.
TuneResult tune(const LoopNest &Original, EvalBackend &Backend,
                const ParamBindings &Problem, const TuneOptions &Opts = {});

} // namespace eco

#endif // ECO_ENGINE_ENGINE_H
