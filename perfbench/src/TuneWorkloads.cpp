//===- perfbench/src/TuneWorkloads.cpp - tune_cold and retune_cached ------===//
//
// Both workloads tune the seed's problem set with tune() through an
// EvalEngine over a SimEvalBackend, one fresh engine per tune, single
// lane, in a closed loop (one caller; the next tune starts when the last
// returns). They differ only in the cache behind the engine:
//
//  * tune_cold: a private, empty EvalCache per tune. Nearly all the time
//    is in the backend (Executor + MemHierarchySim).
//  * retune_cached: one EvalCache shared by every engine and filled by
//    cold tunes of the same problems during set-up. Every point is a
//    cache hit and the backend never runs, so the time is in the engine
//    (instantiation, keying, bookkeeping) and the search itself.
//
// The timed wall of one tune runs from constructing its backend to
// tune() returning; the engine's destruction and every check happen
// outside it.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "serve/Server.h"
#include "support/Hash.h"
#include "support/NestHash.h"
#include "transform/TransformError.h"

#include <cstdio>
#include <map>
#include <stdexcept>

using namespace perfbench;
using namespace eco;

void Outcome::fail(const std::string &Why) {
  ++Failed;
  if (Failed <= 20)
    std::fprintf(stderr, "perfbench: FAILED %s\n", Why.c_str());
}

double perfbench::secondsSince(uint64_t StartNs) {
  return static_cast<double>(nowNs() - StartNs) / 1e9;
}

Case perfbench::buildCase(const Problem &P) {
  Case C;
  C.P = P;
  if (!serve::buildKernel(P.Kernel, C.Nest) ||
      !serve::buildMachine(P.Machine, P.Scale, C.Machine))
    throw std::runtime_error("unknown problem " + P.label());
  return C;
}

HWCounters perfbench::resimulate(const LoopNest &Executable,
                                 const Env &Config,
                                 const MachineDesc &Machine) {
  MemHierarchySim Sim(Machine);
  Executor Exec(Executable, Config, Sim);
  Exec.run();
  return Sim.counters();
}

double perfbench::replayAccessesPerSecond() {
  MachineDesc M;
  serve::buildMachine("sgi", 16, M);
  const uint64_t N = 64, A = 1 << 20, B = A + N * N * 8, C = B + N * N * 8;
  std::vector<double> Rates;
  for (int Rep = 0; Rep < 3; ++Rep) {
    MemHierarchySim Sim(M);
    double Now = 0;
    uint64_t Start = nowNs();
    for (uint64_t I = 0; I < N; ++I)
      for (uint64_t J = 0; J < N; ++J) {
        for (uint64_t K = 0; K < N; ++K) {
          Now += 1 + Sim.access(A + (I * N + K) * 8, false, Now);
          Now += 1 + Sim.access(B + (K * N + J) * 8, false, Now);
        }
        Now += 1 + Sim.access(C + (I * N + J) * 8, true, Now);
      }
    double Accesses =
        static_cast<double>(Sim.counters().Loads + Sim.counters().Stores);
    Rates.push_back(Accesses / secondsSince(Start));
  }
  return median(Rates);
}

namespace {

/// The facts of one tune that the checks and metrics use.
struct TuneRecord {
  double Wall = 0;
  bool Found = false;
  std::string Variant;
  std::string Config;
  double Cost = 0;
  size_t Evals = 0;
  size_t Hits = 0;

  size_t points() const { return Evals + Hits; }
  bool sameWinner(const TuneRecord &O) const {
    return Found && O.Found && Variant == O.Variant && Config == O.Config &&
           Cost == O.Cost; // bitwise: the simulator is a pure function
  }
};

TuneRecord recordOf(const TuneResult &TR, double Wall) {
  TuneRecord R;
  R.Wall = Wall;
  R.Evals = TR.TotalPoints;
  R.Hits = TR.TotalCacheHits;
  if (TR.BestVariant >= 0) {
    R.Found = true;
    R.Variant = TR.best().Spec.Name;
    R.Config = TR.best().configString(TR.BestConfig);
    R.Cost = TR.BestCost;
  }
  return R;
}

ParamBindings problemOf(const Case &C) { return {{"N", C.P.N}}; }

/// One tune on a fresh backend and engine; \p Shared = nullptr gives the
/// engine a private cache.
TuneRecord tuneOnce(const Case &C, const std::shared_ptr<EvalCache> &Shared,
                    TuneResult *Out = nullptr) {
  EngineOptions EO;
  EO.SharedCache = Shared;
  uint64_t Start = nowNs();
  SimEvalBackend Backend(C.Machine);
  EvalEngine Engine(Backend, EO);
  TuneResult TR = tune(C.Nest, Engine, problemOf(C));
  TuneRecord R = recordOf(TR, secondsSince(Start));
  if (Out)
    *Out = std::move(TR);
  return R;
}

/// Checks that \p TR's winner re-simulated on a fresh simulator costs
/// exactly what the search recorded; returns its cycles per flop (0 on a
/// mismatch).
double checkResimulated(const Case &C, const TuneResult &TR, Outcome &O) {
  ++O.Attempted;
  if (TR.BestVariant < 0) {
    O.fail(C.P.label() + ": tune found no winner");
    return 0;
  }
  HWCounters HW = resimulate(TR.BestExecutable, TR.BestConfig, C.Machine);
  if (HW.cycles() != TR.BestCost || HW.Flops == 0) {
    O.fail(C.P.label() + ": winner re-simulated to a different cost");
    return 0;
  }
  return HW.cycles() / static_cast<double>(HW.Flops);
}

struct LayerSums;

class TuneWorkload {
public:
  TuneWorkload(const RunOptions &Opts, bool Cached)
      : Opts(Opts), Cached(Cached), Problems(tuneProblems(Opts.Seed)) {}

  Outcome run();

private:
  /// Builds the cases and, for retune_cached, fills the shared cache
  /// with cold tunes (kept in RefResults); for tune_cold, one small
  /// untimed warm-up tune. Returns its wall seconds.
  double setUp();
  /// Verifies the set-up cold winners (retune_cached).
  void checkReferences(Outcome &O);
  /// Checks one measured tune of case \p I against the reference winner
  /// (recording the first one as reference on tune_cold).
  void checkSample(size_t I, const TuneRecord &R, Outcome &O);
  std::shared_ptr<EvalCache> cacheFor() const {
    return Cached ? Cache : nullptr;
  }

  /// One untraced tune of case \p I, checked; on tune_cold the first
  /// pass's tune becomes the case's reference winner.
  TuneRecord measuredTune(size_t I, bool FirstPass, Outcome &O);
  void measure(Outcome &O);
  void traced(Outcome &O);
  /// One traced tune of case \p I, re-timed and replayed right after;
  /// returns its wall seconds.
  double traceOne(size_t I, uint64_t Id, double DeriveS, SpanLog &Log,
                  LayerSums &S, Outcome &O);

  const RunOptions &Opts;
  const bool Cached;
  std::vector<Problem> Problems;
  std::vector<Case> Cases;
  std::shared_ptr<EvalCache> Cache;
  std::vector<TuneResult> RefResults;  ///< retune_cached set-up tunes
  std::vector<TuneRecord> Reference;   ///< winner each case must return
  std::vector<double> Cpf;             ///< reference winner cycles/flop
  HostSpeed Speed;
};

double TuneWorkload::setUp() {
  uint64_t Start = nowNs();
  Cases.clear();
  for (const Problem &P : Problems)
    Cases.push_back(buildCase(P));
  if (Cached) {
    Cache = std::make_shared<EvalCache>();
    RefResults.clear();
    RefResults.resize(Cases.size());
    for (size_t I = 0; I < Cases.size(); ++I)
      tuneOnce(Cases[I], Cache, &RefResults[I]);
  } else {
    // Warm-up: first-touch and allocator growth are paid here, not by
    // the first timed tune.
    Problem Small;
    Small.Kernel = "matmul";
    Small.Machine = "sgi";
    Small.N = 32;
    tuneOnce(buildCase(Small), nullptr);
  }
  return secondsSince(Start);
}

void TuneWorkload::checkReferences(Outcome &O) {
  Reference.assign(Cases.size(), TuneRecord());
  Cpf.assign(Cases.size(), 0);
  if (!Cached)
    return; // tune_cold takes each case's first measured tune
  for (size_t I = 0; I < Cases.size(); ++I) {
    Cpf[I] = checkResimulated(Cases[I], RefResults[I], O);
    Reference[I] = recordOf(RefResults[I], 0);
  }
}

void TuneWorkload::checkSample(size_t I, const TuneRecord &R, Outcome &O) {
  const std::string Label = Cases[I].P.label();
  if (!R.Found) {
    O.fail(Label + ": tune found no winner");
    return;
  }
  if (Cached && R.Evals != 0)
    O.fail(Label + ": cached re-tune ran " + std::to_string(R.Evals) +
           " backend evaluations");
  else if (!R.sameWinner(Reference[I]))
    O.fail(Label + ": winner " + R.Variant + R.Config + " differs from " +
           Reference[I].Variant + Reference[I].Config);
}

TuneRecord TuneWorkload::measuredTune(size_t I, bool FirstPass,
                                      Outcome &O) {
  bool First = !Cached && FirstPass;
  TuneResult TR;
  TuneRecord R = tuneOnce(Cases[I], cacheFor(), First ? &TR : nullptr);
  ++O.Attempted;
  if (First) {
    Cpf[I] = checkResimulated(Cases[I], TR, O);
    Reference[I] = R;
  }
  checkSample(I, R, O);
  return R;
}

Outcome TuneWorkload::run() {
  Outcome O;
  if (Opts.Trace) {
    setUp();
    checkReferences(O);
    traced(O);
  } else {
    // Set-up is repeated and reported as a median, scaled by the host
    // speed sampled around the repetitions; the last set-up stays.
    std::vector<double> Setups;
    HostSpeed SetupSpeed;
    for (int Rep = 0; Rep < 3; ++Rep) {
      SetupSpeed.sample();
      Setups.push_back(setUp());
    }
    SetupSpeed.sample();
    O.Metrics["setup_s"] = median(Setups) * SetupSpeed.medianScale();
    checkReferences(O);
    measure(O);
  }
  O.Metrics["peak_rss_mb"] = peakRssMb();
  return O;
}

void TuneWorkload::measure(Outcome &O) {
  std::vector<std::vector<double>> Walls(Cases.size());
  std::vector<double> Points(Cases.size(), 0);
  double TotalWall = 0, TotalPoints = 0;
  // Round-robin over the cases until the time is up, after at least one
  // full pass.
  // Timings are scaled by the host speed sampled at most 0.2 s earlier.
  const size_t N = Cases.size();
  uint64_t Start = nowNs(), Sampled = 0;
  for (size_t K = 0; K < N || secondsSince(Start) < Opts.Seconds; ++K) {
    if (secondsSince(Sampled) >= 0.2) {
      Speed.sample();
      Sampled = nowNs();
    }
    size_t I = K % N;
    TuneRecord R = measuredTune(I, K < N, O);
    double Wall = R.Wall * Speed.scale();
    Walls[I].push_back(Wall);
    Points[I] = static_cast<double>(R.points());
    TotalWall += Wall;
    TotalPoints += static_cast<double>(R.points());
  }
  std::printf("host speed scale: median %.3f\n", Speed.medianScale());
  std::vector<double> Medians;
  for (const std::vector<double> &W : Walls)
    Medians.push_back(median(W));
  O.Metrics["tune_s_geomean"] = geomean(Medians);
  O.Metrics["points_per_s"] = TotalWall > 0 ? TotalPoints / TotalWall : 0;
  O.Metrics["search_points_geomean"] = geomean(Points);
  O.Metrics["winner_cpf_geomean"] = geomean(Cpf);
}

std::string stageClass(const std::string &Stage) {
  return Stage.rfind("tile", 0) == 0 ? "tile" : Stage;
}

/// Per-layer sums over every traced tune of a run.
struct LayerSums {
  double Wall = 0, EvalBusy = 0, BackendBusy = 0, SearchSelf = 0;
  double Points = 0, Hits = 0;
  std::map<std::string, double> StagePoints;
  double VariantsDerived = 0, VariantsSearched = 0;
  double Infeasible = 0, ConfigsRejected = 0;
  // Engine self time, re-timed piecewise.
  double InstKeyS = 0, InstS = 0, HashNestS = 0, HashEnvS = 0;
  double LookupS = 0, ConfigS = 0, TraceS = 0, Instantiations = 0;
  // Backend time, replayed piecewise.
  double ConstructS = 0, PlanS = 0, RunS = 0, Evals = 0;
  HWCounters HW;

  double engineSelf() const { return EvalBusy - BackendBusy; }
  double engineSplit() const {
    return InstKeyS + InstS + HashNestS + HashEnvS + LookupS + ConfigS +
           TraceS;
  }
  double backendSplit() const { return ConstructS + PlanS + RunS; }
};

/// Re-times what the engine did for one tune's recorded points, as a
/// fresh engine does it: its instantiation memo starts empty; its cache
/// is \p Cache (the real shared one for retune_cached, a fresh one for
/// tune_cold).
void retimeEngine(const Case &C, const std::vector<DerivedVariant> &Vs,
                  const std::vector<PointCall> &Points, EvalCache &Cache,
                  LayerSums &S, Outcome &O) {
  uint64_t MachineHash = hashString(SimEvalBackend(C.Machine).cacheSalt(),
                                    C.Machine.fingerprint());
  std::map<std::pair<std::string, std::string>, uint64_t> NestHashes;
  TraceLog ScratchTrace;
  for (const PointCall &P : Points) {
    const DerivedVariant *V = nullptr;
    for (const DerivedVariant &Cand : Vs)
      if (Cand.Spec.Name == P.Variant)
        V = &Cand;
    if (!V) {
      O.fail(C.P.label() + ": recorded point names unknown variant " +
             P.Variant);
      continue;
    }
    uint64_t T0 = nowNs();
    std::pair<std::string, std::string> Key{P.Variant,
                                            instantiationKey(*V, P.Config)};
    auto It = NestHashes.find(Key);
    S.InstKeyS += secondsSince(T0);
    if (It == NestHashes.end()) {
      uint64_t T1 = nowNs();
      LoopNest Inst;
      try {
        Inst = V->instantiate(P.Config, C.Machine);
      } catch (const TransformError &) {
        continue; // rejected configs cost the engine no keying
      }
      uint64_t T2 = nowNs();
      uint64_t H = hashNest(Inst);
      S.InstS += static_cast<double>(T2 - T1) / 1e9;
      S.HashNestS += secondsSince(T2);
      S.Instantiations += 1;
      It = NestHashes.emplace(Key, H).first;
    }
    uint64_t T3 = nowNs();
    EvalKey K;
    K.NestHash = It->second;
    K.MachineHash = MachineHash;
    K.EnvHash = hashEnv(P.Config, V->Skeleton.Syms);
    uint64_t T4 = nowNs();
    if (!Cache.lookup(K))
      Cache.insert(K, 0);
    uint64_t T5 = nowNs();
    std::string Cfg = V->configString(P.Config);
    uint64_t T6 = nowNs();
    ScratchTrace.append({0, 0, P.Variant, P.Stage, std::move(Cfg), 0,
                         P.CacheHit, false, 0, 0});
    S.HashEnvS += static_cast<double>(T4 - T3) / 1e9;
    S.LookupS += static_cast<double>(T5 - T4) / 1e9;
    S.ConfigS += static_cast<double>(T6 - T5) / 1e9;
    S.TraceS += secondsSince(T6);
  }
}

/// Replays one tune's backend evaluations piecewise (simulator
/// construction, Executor plan build, walk), checking every replayed
/// cost bitwise against the one the search saw.
void replayBackend(const Case &C, TracedBackend &TB, LayerSums &S,
                   Outcome &O) {
  for (const BackendCall &Call : TB.calls()) {
    uint64_t T0 = nowNs();
    MemHierarchySim Sim(C.Machine);
    uint64_t T1 = nowNs();
    Executor Exec(TB.nests()[Call.NestIdx], Call.Config, Sim);
    uint64_t T2 = nowNs();
    Exec.run();
    uint64_t T3 = nowNs();
    S.ConstructS += static_cast<double>(T1 - T0) / 1e9;
    S.PlanS += static_cast<double>(T2 - T1) / 1e9;
    S.RunS += static_cast<double>(T3 - T2) / 1e9;
    S.Evals += 1;
    ++O.Attempted;
    if (Sim.counters().cycles() != Call.Cost)
      O.fail(C.P.label() + ": replayed evaluation cost differs");
    S.HW += Sim.counters();
  }
}

double TuneWorkload::traceOne(size_t I, uint64_t Id, double DeriveS,
                              SpanLog &Log, LayerSums &S, Outcome &O) {
  const Case &C = Cases[I];
  EngineOptions EO;
  EO.SharedCache = cacheFor();
  TuneResult TR;
  std::vector<PointCall> Points;
  double Wall = 0, EvalBusy = 0;
  int Root = Log.open("tune", Id, C.P.label());
  uint64_t Start = nowNs();
  SimEvalBackend Sim(C.Machine);
  TracedBackend TB(Sim, Log);
  {
    EvalEngine Engine(TB, EO);
    TracedEvaluator TE(Engine, Log, Id, &TB);
    TR = tune(C.Nest, TE, problemOf(C));
    Wall = secondsSince(Start);
    Log.close(Root);
    EvalBusy = TE.busySeconds();
    Points = TE.points();
    TB.snapshotNests();
  }
  ++O.Attempted;
  checkSample(I, recordOf(TR, Wall), O); // decorated == undecorated winner

  S.Wall += Wall;
  S.EvalBusy += EvalBusy;
  S.BackendBusy += TB.busySeconds();
  S.SearchSelf += Wall - EvalBusy - DeriveS;
  S.VariantsDerived += static_cast<double>(TR.Variants.size());
  for (const VariantSummary &V : TR.Summaries)
    S.VariantsSearched += V.Searched ? 1 : 0;
  S.Infeasible += static_cast<double>(TR.InfeasiblePruned);
  S.ConfigsRejected += static_cast<double>(TR.ConfigsRejected);
  for (const PointCall &P : Points) {
    S.Points += 1;
    S.Hits += P.CacheHit ? 1 : 0;
    S.StagePoints[stageClass(P.Stage)] += 1;
  }
  // Re-time right away, so the host's speed has little time to drift
  // between the measured tune and its split.
  EvalCache Fresh;
  retimeEngine(C, TR.Variants, Points, Cached ? *Cache : Fresh, S, O);
  replayBackend(C, TB, S, O);
  return Wall;
}

void TuneWorkload::traced(Outcome &O) {
  const size_t NCases = Cases.size();
  std::vector<double> DeriveS(NCases);
  for (size_t I = 0; I < NCases; ++I) {
    DeriveOptions D;
    D.setRepresentativeSize(Cases[I].P.N);
    DeriveS[I] = timeMedian(5, [&] {
      std::vector<DerivedVariant> V =
          deriveVariants(Cases[I].Nest, Cases[I].Machine, D);
      (void)V;
    });
  }

  // Each case is tuned untraced and then traced, back to back, so host
  // speed drift hits both sides of the overhead comparison alike.
  SpanLog Log;
  LayerSums S;
  std::vector<std::vector<double>> UWalls(NCases), TWalls(NCases);
  size_t Passes = 0;
  uint64_t Start = nowNs();
  for (; Passes == 0 || secondsSince(Start) < Opts.Seconds; ++Passes)
    for (size_t I = 0; I < NCases; ++I) {
      Speed.sample();
      UWalls[I].push_back(measuredTune(I, Passes == 0, O).Wall);
      TWalls[I].push_back(
          traceOne(I, Passes * NCases + I, DeriveS[I], Log, S, O));
    }
  std::string SpanPath = Opts.OutDir + "/spans-" + Opts.Workload + ".jsonl";
  std::remove(SpanPath.c_str());
  if (!Log.writeJsonl(SpanPath, Opts.Workload))
    std::fprintf(stderr, "perfbench: could not write %s\n", SpanPath.c_str());

  // Sums are reported per pass: one tune of every case.
  std::map<std::string, double> &M = O.Metrics;
  const double PerPass = 1.0 / static_cast<double>(Passes);
  double DeriveTotal = 0;
  for (double D : DeriveS)
    DeriveTotal += D;
  M["core.derive_s"] = DeriveTotal;
  M["core.search_self_s"] = S.SearchSelf * PerPass;
  M["core.variants_derived"] = S.VariantsDerived * PerPass;
  M["core.variants_searched"] = S.VariantsSearched * PerPass;
  M["core.infeasible_pruned"] = S.Infeasible * PerPass;
  M["core.configs_rejected"] = S.ConfigsRejected * PerPass;
  for (const char *Stage :
       {"rank", "initial", "register", "tile", "prefetch", "adjust"})
    M[std::string("core.points.") + Stage] = S.StagePoints[Stage] * PerPass;

  double Self = S.engineSelf(), Split = S.engineSplit();
  M["engine.points"] = S.Points * PerPass;
  M["engine.cache_hits"] = S.Hits * PerPass;
  M["engine.hit_ratio"] = S.Points > 0 ? S.Hits / S.Points : 0;
  M["engine.busy_s"] = S.EvalBusy * PerPass;
  M["engine.self_s"] = Self * PerPass;
  M["engine.self_us_per_point"] = S.Points > 0 ? Self / S.Points * 1e6 : 0;
  M["transform.instantiations"] = S.Instantiations * PerPass;
  M["transform.instantiate_s"] = S.InstS * PerPass;
  M["engine.instkey_s"] = S.InstKeyS * PerPass;
  M["engine.hashnest_s"] = S.HashNestS * PerPass;
  M["engine.hashenv_s"] = S.HashEnvS * PerPass;
  M["engine.cache_lookup_s"] = S.LookupS * PerPass;
  M["engine.configstring_s"] = S.ConfigS * PerPass;
  M["engine.tracelog_s"] = S.TraceS * PerPass;
  M["engine.residual_s"] = (Self - Split) * PerPass;
  double EngineErr = Self > 0 ? (Split - Self) / Self * 100 : 0;
  M["engine.recon_err_pct"] = EngineErr;

  double Busy = S.BackendBusy, BSplit = S.backendSplit();
  double Accesses = static_cast<double>(S.HW.Loads + S.HW.Stores);
  M["backend.evals"] = S.Evals * PerPass;
  M["backend.busy_s"] = Busy * PerPass;
  M["backend.ms_per_eval"] = S.Evals > 0 ? Busy / S.Evals * 1e3 : 0;
  M["sim.accesses"] = Accesses * PerPass;
  M["sim.accesses_per_s"] = Busy > 0 ? Accesses / Busy : 0;
  M["sim.l1_misses"] = static_cast<double>(S.HW.l1Misses()) * PerPass;
  M["sim.l2_misses"] = static_cast<double>(S.HW.l2Misses()) * PerPass;
  M["sim.tlb_misses"] = static_cast<double>(S.HW.TlbMisses) * PerPass;
  M["sim.construct_s"] = S.ConstructS * PerPass;
  M["exec.plan_s"] = S.PlanS * PerPass;
  M["exec.run_s"] = S.RunS * PerPass;
  M["exec.ns_per_access"] = Accesses > 0 ? S.RunS / Accesses * 1e9 : 0;
  double BackendErr = Busy > 0 ? (BSplit - Busy) / Busy * 100 : 0;
  M["backend.recon_err_pct"] = BackendErr;
  M["evaluations"] = S.Evals * PerPass;
  M["evals_per_s"] = S.Wall > 0 ? S.Evals / S.Wall : 0;

  std::printf("reconciliation: engine self %.4fs vs split %.4fs (%+.1f%%) "
              "%s; backend busy %.4fs vs split %.4fs (%+.1f%%) %s\n",
              Self * PerPass, Split * PerPass, EngineErr,
              std::abs(EngineErr) <= 5 ? "HOLDS" : "MISSED", Busy * PerPass,
              BSplit * PerPass, BackendErr,
              std::abs(BackendErr) <= 5 ? "HOLDS" : "MISSED");
  std::printf("shares of tune wall: backend %.1f%%, engine self %.1f%%, "
              "search self %.1f%%, derive %.1f%%\n",
              S.Wall > 0 ? Busy / S.Wall * 100 : 0,
              S.Wall > 0 ? Self / S.Wall * 100 : 0,
              S.Wall > 0 ? S.SearchSelf / S.Wall * 100 : 0,
              S.Wall > 0 ? DeriveTotal * static_cast<double>(Passes) /
                               S.Wall * 100
                         : 0);

  // The sequential reference evaluator must pick the same winners.
  if (!Cached)
    for (size_t I = 0; I < NCases; ++I) {
      SimEvalBackend B(Cases[I].Machine);
      DirectEvaluator D(B);
      TuneRecord R = recordOf(tune(Cases[I].Nest, D, problemOf(Cases[I])), 0);
      ++O.Attempted;
      if (!R.sameWinner(Reference[I]))
        O.fail(Cases[I].P.label() + ": DirectEvaluator winner " + R.Variant +
               R.Config + " differs from the engine's");
      else
        M["core.winners_match_direct"] += 1;
    }

  double U = 0, T = 0;
  for (size_t I = 0; I < NCases; ++I) {
    U += median(UWalls[I]);
    T += median(TWalls[I]);
  }
  M["trace_overhead_pct"] = U > 0 ? (T - U) / U * 100 : 0;
  M["host.speed_scale"] = Speed.medianScale();
}

} // namespace

Outcome perfbench::runTuneCold(const RunOptions &Opts) {
  return TuneWorkload(Opts, /*Cached=*/false).run();
}

Outcome perfbench::runRetuneCached(const RunOptions &Opts) {
  return TuneWorkload(Opts, /*Cached=*/true).run();
}
