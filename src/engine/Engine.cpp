//===- engine/Engine.cpp - Parallel evaluation engine ---------------------===//

#include "engine/Engine.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "support/NestHash.h"
#include "support/Timer.h"
#include "transform/TransformError.h"

#include <limits>
#include <set>

using namespace eco;

namespace {

/// Publishes the `config.evaluated` flight-recorder event for one
/// completed evaluation. Call only under obs::eventsEnabled().
void publishEvaluated(const DerivedVariant &V, const Env &Config,
                      const std::string &Stage, const EvalOutcome &O,
                      bool Warm) {
  Json F = Json::object();
  F.set("variant", V.Spec.Name);
  F.set("stage", Stage);
  F.set("config", V.configString(Config));
  F.set("cost", O.Cost);
  F.set("cache_hit", O.CacheHit);
  if (Warm)
    F.set("warm", true);
  F.set("ms", O.Millis);
  F.set("lane", O.Lane);
  obs::publishEvent("config.evaluated", std::move(F));
}

} // namespace

EvalEngine::EvalEngine(EvalBackend &Backend, EngineOptions EOpts)
    : Base(Backend), Opts(std::move(EOpts)) {
  MachineHash = Base.machine().fingerprint();
  MachineHash = hashString(Base.cacheSalt(), MachineHash);
  CachePtr = Opts.SharedCache ? Opts.SharedCache
                              : std::make_shared<EvalCache>();

  int Jobs = std::max(Opts.Jobs, 1);
  LaneBackends.resize(1); // lane 0 runs on Base
  for (int Lane = 1; Lane < Jobs; ++Lane) {
    std::unique_ptr<EvalBackend> Clone = Base.clone();
    if (!Clone) {
      // Backend cannot be parallelized; degrade to sequential rather
      // than share one instance across threads.
      ECO_LOG(Warn) << "backend is not clonable; degrading --jobs "
                    << Jobs << " to sequential evaluation";
      LaneBackends.resize(1);
      Jobs = 1;
      break;
    }
    LaneBackends.push_back(std::move(Clone));
  }
  Pool = std::make_unique<ThreadPool>(Jobs);

  if (!Opts.CacheFile.empty())
    CachePtr->load(Opts.CacheFile, MachineHash);
  ECO_LOG(Info) << "engine ready: jobs=" << Jobs << " cache="
                << (Opts.CacheFile.empty() ? "<none>" : Opts.CacheFile);
}

EvalEngine::~EvalEngine() { flush(); }

void EvalEngine::flush() {
  if (!Opts.CacheFile.empty()) {
    obs::SpanScope S("cache.save", "io", Opts.CacheFile);
    MutexLock SaveLock(SaveMutex);
    CachePtr->save(Opts.CacheFile);
  }
}

const LoopNest &EvalEngine::instantiated(const DerivedVariant &V,
                                         const Env &Config) {
  std::pair<uint64_t, std::string> Key{V.fingerprint(),
                                       instantiationKey(V, Config)};
  {
    MutexLock Lock(InstMutex);
    auto It = InstMemo.find(Key);
    if (It != InstMemo.end())
      return It->second;
    ++Instantiations;
  }
  // Build outside the lock: instantiation walks the whole nest, and
  // warm batches instantiate distinct unroll/prefetch shapes in
  // parallel. Losing the emplace race just discards a duplicate.
  LoopNest Fresh = V.instantiate(Config, Base.machine());
  MutexLock Lock(InstMutex);
  return InstMemo.emplace(std::move(Key), std::move(Fresh)).first->second;
}

EvalKey EvalEngine::keyFor(const DerivedVariant &V, const Env &Config) const {
  EvalKey Key;
  Key.NestHash = V.fingerprint();
  Key.MachineHash = MachineHash;
  Key.EnvHash = hashEnv(Config, V.Skeleton.Syms);
  return Key;
}

EvalOutcome EvalEngine::evalOne(const DerivedVariant &V, const Env &Config,
                                const std::string &Stage, int Lane,
                                bool Warm) {
  EvalKey Key = keyFor(V, Config);

  EvalOutcome O;
  if (std::optional<double> Hit = CachePtr->lookup(Key)) {
    if (Warm)
      return O; // speculative work already done — nothing to record
    O.Cost = *Hit;
    O.CacheHit = true;
    {
      MutexLock Lock(StatsMutex);
      StageTelemetry &Row = VariantStages[{V.Spec.Name, Stage}];
      Row.Variant = V.Spec.Name;
      Row.Stage = Stage;
      ++Row.CacheHits;
    }
    if (obs::eventsEnabled())
      publishEvaluated(V, Config, Stage, O, Warm);
    return O;
  }

  // Miss: only now is the nest needed. Rejections are never cached, so an
  // illegal point always reaches this and is recorded on every request.
  const LoopNest *Nest = nullptr;
  try {
    Nest = &instantiated(V, Config);
  } catch (const TransformError &E) {
    // Illegal unroll/prefetch request for this config: infinite cost,
    // never an escaping exception (evalOne runs on lane threads).
    ECO_LOG(Warn) << "config rejected (illegal transform): " << E.what();
    {
      MutexLock Lock(StatsMutex);
      ++Rejected;
    }
    if (obs::eventsEnabled()) {
      // The registry folds this into the transform.rejected counter.
      Json F = Json::object();
      F.set("variant", V.Spec.Name);
      F.set("stage", Stage);
      F.set("config", V.configString(Config));
      F.set("reason", std::string(E.what()));
      obs::publishEvent("config.rejected", std::move(F));
    }
    O.Cost = std::numeric_limits<double>::infinity();
    O.Lane = Lane;
    return O;
  }

  EvalBackend &Backend =
      Lane == 0 ? Base : *LaneBackends[static_cast<size_t>(Lane)];
  // The backend's accumulating HW counters are only touched by this
  // lane's thread (lane exclusivity), so an unsynchronized snapshot /
  // diff around the evaluation is race-free.
  const HWCounters *LiveHW = Backend.hwCounters();
  HWCounters Before;
  if (LiveHW)
    Before = *LiveHW;
  Timer T;
  O.Cost = Backend.evaluate(*Nest, Config);
  O.Millis = T.millis();
  O.Lane = Lane;
  HWCounters Delta;
  if (LiveHW)
    Delta = LiveHW->delta(Before);
  CachePtr->insert(Key, O.Cost);

  bool SaveNow = false;
  {
    MutexLock Lock(StatsMutex);
    StageTelemetry &Row = VariantStages[{V.Spec.Name, Stage}];
    Row.Variant = V.Spec.Name;
    Row.Stage = Stage;
    ++Row.Evaluations;
    Row.BackendSeconds += O.Millis / 1e3;
    if (LiveHW) {
      Row.HW += Delta;
      Row.HasHW = true;
    }
    if (!Opts.CacheFile.empty() && Opts.CacheSaveInterval > 0 &&
        ++InsertsSinceSave >= Opts.CacheSaveInterval) {
      InsertsSinceSave = 0;
      SaveNow = true;
    }
  }
  if (obs::eventsEnabled())
    publishEvaluated(V, Config, Stage, O, Warm);
  if (SaveNow) {
    // Periodic durability for kill/resume. Saves are serialized: when
    // another lane is already writing the snapshot, skip rather than
    // race it — this lane's insert lands in the next save or in flush().
    if (SaveMutex.try_lock()) {
      CachePtr->save(Opts.CacheFile);
      SaveMutex.unlock();
    }
  }
  return O;
}

EvalOutcome EvalEngine::evaluate(const DerivedVariant &V, const Env &Config,
                                 const std::string &Stage) {
  return evalOne(V, Config, Stage, /*Lane=*/0, /*Warm=*/false);
}

void EvalEngine::warmMany(
    const std::vector<std::pair<const DerivedVariant *, Env>> &Points,
    const std::string &Stage) {
  bool WantRemote =
      Opts.RemoteWarm && (!Opts.RemoteWarmGate || Opts.RemoteWarmGate());
  if ((Pool->jobs() <= 1 && !WantRemote) || Points.size() < 2)
    return; // sequential: the decision loop will evaluate on demand

  // Drop duplicates within the batch so two lanes never race to run the
  // same point (results would agree, but the work would be wasted).
  std::set<std::string> Seen;
  std::vector<std::pair<const DerivedVariant *, const Env *>> Unique;
  Unique.reserve(Points.size());
  for (const auto &[V, Config] : Points) {
    if (!Seen.insert(V->Spec.Name + "|" + V->configString(Config)).second)
      continue;
    Unique.push_back({V, &Config});
  }

  if (WantRemote) {
    // Export every not-yet-cached point in portable form and block on
    // the fleet. Completed costs land in the shared cache; anything the
    // fleet drops (worker death, exhausted retries) stays uncached and
    // is evaluated locally by the decision loop — same winner, just
    // slower, which is the graceful-degradation contract. Keys need no
    // instantiation, so a point whose transform is illegal ships too:
    // the worker answers null for it and the decision loop's own evalOne
    // records the rejection exactly once.
    std::vector<RemotePoint> Remote;
    Remote.reserve(Unique.size());
    for (const auto &[V, Config] : Unique) {
      EvalKey Key = keyFor(*V, *Config);
      if (CachePtr->lookup(Key))
        continue; // already known — nothing to ship
      RemotePoint P;
      P.Variant = V->Spec.Name;
      P.Config = envToBindings(V->Skeleton, *Config);
      P.Key = Key;
      Remote.push_back(std::move(P));
    }
    if (!Remote.empty()) {
      obs::SpanScope S("warm-remote:" + Stage, "engine",
                       std::to_string(Remote.size()) + " points");
      Opts.RemoteWarm(Remote, Stage);
    }
  }

  if (Pool->jobs() <= 1)
    return; // no local lanes to warm with

  // Lane threads publish their points under the caller's serve job, so a
  // daemon stream attributes every point to the tune that asked for it.
  uint64_t Job = obs::currentJobId();
  std::vector<std::function<void(int)>> Tasks;
  Tasks.reserve(Unique.size());
  for (const auto &[V, Config] : Unique) {
    const DerivedVariant *Variant = V;
    const Env &Bound = *Config;
    Tasks.push_back([this, Variant, Bound, Stage, Job](int Lane) {
      obs::ScopedJobId Attribution(Job);
      evalOne(*Variant, Bound, Stage, Lane, /*Warm=*/true);
    });
  }
  obs::SpanScope S("warm:" + Stage, "engine",
                   std::to_string(Tasks.size()) + " points");
  Pool->runBatch(Tasks);
}

EvalStats EvalEngine::stats() const {
  MutexLock Lock(StatsMutex);
  EvalStats S;
  S.Rejected = Rejected;
  for (const auto &[Key, Row] : VariantStages) {
    S.Evaluations += Row.Evaluations;
    S.CacheHits += Row.CacheHits;
    S.BackendSeconds += Row.BackendSeconds;
  }
  return S;
}

std::vector<StageTelemetry> EvalEngine::telemetry() const {
  MutexLock Lock(StatsMutex);
  std::vector<StageTelemetry> Rows;
  Rows.reserve(VariantStages.size());
  for (const auto &[Key, Row] : VariantStages)
    Rows.push_back(Row); // map order = sorted by (variant, stage)
  return Rows;
}

TuneResult eco::tune(const LoopNest &Original, EvalBackend &Backend,
                     const ParamBindings &Problem, const TuneOptions &Opts) {
  EvalEngine Engine(Backend);
  return tune(Original, Engine, Problem, Opts);
}

VariantSearchResult eco::searchVariant(const DerivedVariant &Variant,
                                       EvalBackend &Backend,
                                       const ParamBindings &Problem,
                                       const SearchOptions &Opts) {
  EvalEngine Engine(Backend);
  return searchVariant(Variant, Engine, Problem, Opts);
}
