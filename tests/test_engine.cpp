//===- tests/test_engine.cpp - Parallel evaluation engine tests -----------===//
//
// Covers the eco::engine subsystem: ThreadPool batch semantics, EvalCache
// memoization + JSON persistence, the determinism contract (a --jobs N
// tune returns the bit-identical winner of a sequential tune), the
// TraceLog record class, kill/resume from the cache file, and the
// stats-based accounting the Tuner reports. Runs under ThreadSanitizer
// via -DECO_SANITIZE=thread (ctest -L engine).
//
//===----------------------------------------------------------------------===//

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "engine/EvalCache.h"
#include "engine/ThreadPool.h"
#include "kernels/Kernels.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Span.h"
#include "support/Json.h"
#include "support/NestHash.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>

using namespace eco;

namespace {

MachineDesc sgiScaled() { return MachineDesc::sgiR10000().scaledBy(16); }

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

/// The three fields that define a tune's outcome, as comparable text.
std::string winnerOf(const TuneResult &R) {
  return R.best().Spec.Name + "|" + R.best().configString(R.BestConfig) +
         "|" +
         strformat("%.17g", R.BestCost);
}

} // namespace

// ---- ThreadPool ---------------------------------------------------------

TEST(ThreadPoolTest, RunsEveryTaskWithValidLanes) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.jobs(), 4);

  std::atomic<int> Ran{0};
  std::atomic<bool> LaneOk{true};
  std::vector<std::function<void(int)>> Tasks;
  for (int T = 0; T < 100; ++T)
    Tasks.push_back([&](int Lane) {
      if (Lane < 0 || Lane >= 4)
        LaneOk = false;
      Ran.fetch_add(1, std::memory_order_relaxed);
    });
  Pool.runBatch(Tasks);
  EXPECT_EQ(Ran.load(), 100);
  EXPECT_TRUE(LaneOk.load());
}

TEST(ThreadPoolTest, SupportsRepeatedBatches) {
  ThreadPool Pool(3);
  std::atomic<int> Ran{0};
  for (int Round = 0; Round < 50; ++Round) {
    std::vector<std::function<void(int)>> Tasks(
        5, [&](int) { Ran.fetch_add(1, std::memory_order_relaxed); });
    Pool.runBatch(Tasks);
  }
  EXPECT_EQ(Ran.load(), 250);
}

TEST(ThreadPoolTest, SingleJobRunsInlineOnLaneZero) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.jobs(), 1);
  std::vector<int> Lanes;
  std::vector<std::function<void(int)>> Tasks(
      4, [&](int Lane) { Lanes.push_back(Lane); }); // no lock: inline
  Pool.runBatch(Tasks);
  EXPECT_EQ(Lanes, std::vector<int>({0, 0, 0, 0}));
}

TEST(ThreadPoolTest, EmptyBatchReturnsImmediately) {
  ThreadPool Pool(4);
  Pool.runBatch({});
}

// ---- EvalCache ----------------------------------------------------------

TEST(EvalCacheTest, LookupInsertAndCounters) {
  EvalCache Cache;
  EvalKey Key{1, 2, 3};
  EXPECT_FALSE(Cache.lookup(Key).has_value());
  Cache.insert(Key, 42.5);
  auto Hit = Cache.lookup(Key);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, 42.5);
  EXPECT_EQ(Cache.hits(), 1u);
  EXPECT_EQ(Cache.misses(), 1u);
  EXPECT_EQ(Cache.hitRate(), 0.5);
  EXPECT_EQ(Cache.size(), 1u);
}

TEST(EvalCacheTest, KeyTextIsStable) {
  EvalKey Key{0x1a, 0x2b, 0x3c};
  EXPECT_EQ(Key.str(), "000000000000001a-000000000000002b-000000000000003c");
}

TEST(EvalCacheTest, JsonRoundTrip) {
  std::string Path = tempPath("eco_cache_roundtrip.json");
  EvalCache Cache;
  for (uint64_t I = 0; I < 40; ++I)
    Cache.insert(EvalKey{I, I * 7, I * 13}, static_cast<double>(I) * 1.5);
  ASSERT_TRUE(Cache.save(Path));

  EvalCache Loaded;
  EXPECT_EQ(Loaded.load(Path), 40u);
  EXPECT_EQ(Loaded.size(), 40u);
  for (uint64_t I = 0; I < 40; ++I) {
    auto Hit = Loaded.lookup(EvalKey{I, I * 7, I * 13});
    ASSERT_TRUE(Hit.has_value());
    EXPECT_EQ(*Hit, static_cast<double>(I) * 1.5);
  }
  std::remove(Path.c_str());
}

TEST(EvalCacheTest, MissingFileLoadsNothing) {
  EvalCache Cache;
  EXPECT_EQ(Cache.load(tempPath("eco_cache_does_not_exist.json")), 0u);
}

// ---- Determinism: parallel == sequential --------------------------------

TEST(EngineTest, ParallelTuneMatchesSequentialBitExactly) {
  LoopNest MM = makeMatMul();
  const ParamBindings Problem = {{"N", 96}};
  MachineDesc M = sgiScaled();

  SimEvalBackend SeqBackend(M);
  TuneResult Seq = tune(MM, SeqBackend, Problem); // DirectEvaluator

  SimEvalBackend ParBackend(M);
  EngineOptions Opts;
  Opts.Jobs = 4;
  EvalEngine Engine(ParBackend, Opts);
  ASSERT_EQ(Engine.jobs(), 4);
  TuneResult Par = tune(MM, Engine, Problem);

  ASSERT_GE(Seq.BestVariant, 0);
  EXPECT_EQ(Par.BestVariant, Seq.BestVariant);
  EXPECT_EQ(winnerOf(Par), winnerOf(Seq)); // config + bit-identical cost
  ASSERT_EQ(Par.Summaries.size(), Seq.Summaries.size());
  for (size_t I = 0; I < Seq.Summaries.size(); ++I) {
    EXPECT_EQ(Par.Summaries[I].Searched, Seq.Summaries[I].Searched);
    EXPECT_EQ(Par.Summaries[I].BestConfig, Seq.Summaries[I].BestConfig);
    EXPECT_EQ(Par.Summaries[I].BestCost, Seq.Summaries[I].BestCost);
  }
}

TEST(EngineTest, ParallelSearchVariantMatchesSequential) {
  LoopNest Jac = makeJacobi();
  const ParamBindings Problem = {{"N", 48}};
  MachineDesc M = sgiScaled();

  SimEvalBackend B1(M), B2(M);
  std::vector<DerivedVariant> Vs = deriveVariants(Jac, M);
  ASSERT_FALSE(Vs.empty());

  VariantSearchResult Seq = searchVariant(Vs.front(), B1, Problem);
  EngineOptions Opts;
  Opts.Jobs = 4;
  EvalEngine Engine(B2, Opts);
  VariantSearchResult Par = searchVariant(Vs.front(), Engine, Problem);

  EXPECT_EQ(Par.BestCost, Seq.BestCost);
  EXPECT_EQ(Vs.front().configString(Par.BestConfig),
            Vs.front().configString(Seq.BestConfig));
}

namespace {

/// A backend that opts out of parallelism (clone() keeps the default
/// nullptr), for exercising the engine's degradation path.
class NonClonableBackend : public EvalBackend {
public:
  explicit NonClonableBackend(MachineDesc M) : Machine(std::move(M)) {}
  double evaluate(const LoopNest &, const Env &) override { return 1.0; }
  const MachineDesc &machine() const override { return Machine; }

private:
  MachineDesc Machine;
};

} // namespace

TEST(EngineTest, NonClonableBackendDegradesToOneJob) {
  MachineDesc M = sgiScaled();
  NonClonableBackend Backend(M);
  EngineOptions Opts;
  Opts.Jobs = 8;
  EvalEngine Engine(Backend, Opts);
  EXPECT_EQ(Engine.jobs(), 1);
}

TEST(EngineTest, NativeBackendClonesShareKernelCacheWithoutRaces) {
  // Regression for a data race: the native backend's compiled-kernel
  // cache was a function-local static map, mutated without a lock by
  // every backend in the process. It is now a mutex-guarded cache shared
  // across the clone chain. Three threads (base + two clones) evaluating
  // the same source concurrently must produce finite timings — under
  // ThreadSanitizer (-DECO_SANITIZE=thread) the old code reports here.
  LoopNest MM = makeMatMul();
  Env Config = makeEnv(MM, {{"N", 24}});

  NativeEvalBackend Base(MachineDesc::genericHost(), /*Repeats=*/1);
  std::unique_ptr<EvalBackend> C1 = Base.clone();
  std::unique_ptr<EvalBackend> C2 = Base.clone();
  ASSERT_NE(C1, nullptr);
  ASSERT_NE(C2, nullptr);

  EvalBackend *Backends[3] = {&Base, C1.get(), C2.get()};
  std::atomic<int> Finite{0};
  std::vector<std::thread> Threads;
  for (EvalBackend *B : Backends)
    Threads.emplace_back([&, B] {
      for (int Rep = 0; Rep < 2; ++Rep)
        if (B->evaluate(MM, Config) < std::numeric_limits<double>::infinity())
          ++Finite;
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Finite.load(), 6);
}

TEST(EngineTest, EngineParallelizesCloneableNativeBackend) {
  MachineDesc M = MachineDesc::genericHost();
  NativeEvalBackend Backend(M, 1);
  EngineOptions Opts;
  Opts.Jobs = 3;
  EvalEngine Engine(Backend, Opts);
  EXPECT_EQ(Engine.jobs(), 3);
}

TEST(EngineTest, FourLaneTuneUsesEveryLaneAndMatchesOneLane) {
  // Determinism only: whether four lanes are also faster depends on the
  // host's effective parallelism, which belongs in a benchmark.
  LoopNest MM = makeMatMul();
  const ParamBindings Problem = {{"N", 96}};
  MachineDesc M = sgiScaled();

  SimEvalBackend B1(M);
  EvalEngine Seq(B1);
  TuneResult RSeq = tune(MM, Seq, Problem);

  SimEvalBackend B2(M);
  EngineOptions Opts;
  Opts.Jobs = 4;
  EvalEngine Par(B2, Opts);
  ASSERT_EQ(Par.jobs(), 4);
  // The lanes come from the per-point record: the flight recorder's
  // config.evaluated events, captured in the bus's in-memory ring. The
  // tune runs as a serve job would, and every lane must carry its id.
  obs::EventBus &Bus = obs::EventBus::global();
  Bus.clear();
  obs::setEventsEnabled(true);
  TuneResult RPar;
  {
    obs::ScopedJobId Job(7);
    RPar = tune(MM, Par, Problem);
  }
  obs::setEventsEnabled(false);
  std::vector<obs::Event> Events = Bus.snapshot();
  EXPECT_EQ(Bus.dropped(), 0u);
  Bus.clear();

  EXPECT_EQ(winnerOf(RPar), winnerOf(RSeq));
  std::set<int> Lanes;
  size_t Points = 0;
  for (const obs::Event &E : Events)
    if (E.Type == "config.evaluated" &&
        !E.Fields.get("cache_hit").asBool()) {
      EXPECT_EQ(E.Job, 7u);
      ++Points;
      Lanes.insert(static_cast<int>(E.Fields.get("lane").asInt()));
    }
  EXPECT_EQ(Points, RPar.TotalPoints);
  EXPECT_EQ(Lanes, std::set<int>({0, 1, 2, 3}));
}

// ---- Cache persistence across runs --------------------------------------

TEST(EngineTest, SecondRunFromCacheFileIsNearlyAllHits) {
  std::string Path = tempPath("eco_engine_cache.json");
  std::remove(Path.c_str());
  LoopNest MM = makeMatMul();
  const ParamBindings Problem = {{"N", 64}};
  MachineDesc M = sgiScaled();

  double FirstBest;
  {
    SimEvalBackend Backend(M);
    EngineOptions Opts;
    Opts.CacheFile = Path;
    EvalEngine Engine(Backend, Opts);
    FirstBest = tune(MM, Engine, Problem).BestCost;
    EXPECT_GT(Engine.stats().Evaluations, 0u);
  } // destructor saves

  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.CacheFile = Path;
  EvalEngine Engine(Backend, Opts);
  EXPECT_GT(Engine.cache().size(), 0u);
  TuneResult Second = tune(MM, Engine, Problem);

  EXPECT_EQ(Second.BestCost, FirstBest);
  EvalStats S = Engine.stats();
  size_t Served = S.CacheHits + S.Evaluations;
  ASSERT_GT(Served, 0u);
  // The acceptance bar: >90% of the second run served from the file.
  EXPECT_GT(static_cast<double>(S.CacheHits) / Served, 0.9);

  // Keys embed the problem size: an N=96 tune over the N=64 file is
  // served nothing from it, so it counts exactly a cold run's hits.
  TuneOptions One;
  One.MaxVariantsToSearch = 1;
  SimEvalBackend ColdBackend(M);
  EvalEngine ColdEngine(ColdBackend);
  TuneResult Cold = tune(MM, ColdEngine, {{"N", 96}}, One);
  EvalEngine Other(Backend, Opts);
  TuneResult Over = tune(MM, Other, {{"N", 96}}, One);
  EXPECT_EQ(Over.TotalCacheHits, Cold.TotalCacheHits);
  EXPECT_EQ(Over.TotalPoints, Cold.TotalPoints);
  std::remove(Path.c_str());
}

TEST(EngineTest, CacheSaltSeparatesBackends) {
  // Multi-size and plain backends over the same machine must not share
  // cache entries: their costs mean different things.
  MachineDesc M = sgiScaled();
  SimEvalBackend Plain(M);
  MultiSizeEvalBackend Multi(Plain, "N", {64, 96});
  EXPECT_NE(Plain.cacheSalt(), Multi.cacheSalt());
}

// ---- Trace logging ------------------------------------------------------

TEST(TraceLogTest, ExplicitTimeMsIsPreserved) {
  TraceLog Log;
  Log.append({0, 1234.5, "v1", "register", "TI=8", 10.0, false, false,
              2.0, 1});
  Log.append({0, 0, "v1", "register", "TI=16", 11.0, false, false, 2.0,
              1}); // 0 means "stamp now"
  std::vector<TraceRecord> Recs = Log.records();
  ASSERT_EQ(Recs.size(), 2u);
  EXPECT_DOUBLE_EQ(Recs[0].TimeMs, 1234.5);
  EXPECT_GT(Recs[1].TimeMs, 0.0);

  std::string Err;
  Json J = Json::parse(traceRecordJson(Recs[0]), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_DOUBLE_EQ(J.get("t_ms").asNumber(), 1234.5);
}

TEST(TraceLogTest, AppendModeKeepsExistingRecords) {
  std::string Path = tempPath("eco_trace_append.jsonl");
  std::remove(Path.c_str());
  {
    TraceLog First;
    ASSERT_TRUE(First.openFile(Path));
    First.append({0, 0, "v1", "initial", "TI=8", 1.0, false, false, 1.0,
                  0});
    First.flush();
  } // killed run's stream closes here
  {
    TraceLog Resumed;
    ASSERT_TRUE(Resumed.openFile(Path, /*Append=*/true));
    Resumed.append({0, 0, "v2", "register", "TI=16", 2.0, false, false,
                    1.0, 0});
    Resumed.flush();
  }

  std::ifstream In(Path);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty())
      Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 2u); // pre-kill record survived
  std::string Err;
  EXPECT_EQ(Json::parse(Lines[0], &Err).get("variant").asString(), "v1");
  EXPECT_EQ(Json::parse(Lines[1], &Err).get("variant").asString(), "v2");
  std::remove(Path.c_str());
}

// ---- Telemetry ----------------------------------------------------------

TEST(EngineTest, StatsSumTelemetryRowsAndCountRejections) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.Jobs = 2;
  EvalEngine Engine(Backend, Opts);
  TuneResult R = tune(MM, Engine, {{"N", 64}});

  std::vector<StageTelemetry> Rows = Engine.telemetry();
  ASSERT_FALSE(Rows.empty());

  // stats() is the telemetry rows summed, in row order (so bitwise).
  EvalStats Total = Engine.stats();
  size_t Evals = 0, Hits = 0;
  double Seconds = 0;
  std::set<std::string> Stages;
  for (const StageTelemetry &Row : Rows) {
    Evals += Row.Evaluations;
    Hits += Row.CacheHits;
    Seconds += Row.BackendSeconds;
    Stages.insert(Row.Stage);
  }
  EXPECT_EQ(Evals, Total.Evaluations);
  EXPECT_EQ(Hits, Total.CacheHits);
  EXPECT_EQ(Seconds, Total.BackendSeconds);
  // The Tuner's accounting reads the same ledger.
  EXPECT_EQ(Total.Evaluations, R.TotalPoints);
  EXPECT_EQ(Total.CacheHits, R.TotalCacheHits);
  size_t SummedPoints = 0;
  for (const VariantSummary &Sum : R.Summaries)
    SummedPoints += Sum.Points;
  // Per-variant points plus the ranking pass account for every point.
  EXPECT_LE(SummedPoints, R.TotalPoints);
  EXPECT_GT(SummedPoints, 0u);
  // The Tuner's ranking pass and the search's opening stage appear.
  EXPECT_TRUE(Stages.count("rank"));
  EXPECT_TRUE(Stages.count("initial"));

  // Rejections are counted apart from the rows: never cached, so every
  // request counts once more, and none of them is a point.
  EXPECT_EQ(Total.Rejected, R.ConfigsRejected);
  const DerivedVariant *Prefetching = nullptr;
  for (const DerivedVariant &V : R.Variants)
    if (!V.Prefetch.empty())
      Prefetching = &V;
  ASSERT_NE(Prefetching, nullptr);
  Env Illegal = initialConfig(*Prefetching, M, {{"N", 64}});
  // No int holds this distance, so instantiate() rejects it.
  Illegal.set(Prefetching->Prefetch.front().DistanceParam,
              int64_t(1) << 40);
  for (int I = 0; I < 2; ++I)
    EXPECT_TRUE(std::isinf(Engine.evaluate(*Prefetching, Illegal,
                                           "prefetch").Cost));
  EvalStats After = Engine.stats();
  EXPECT_EQ(After.Rejected, Total.Rejected + 2);
  EXPECT_EQ(After.Evaluations, Total.Evaluations);
  EXPECT_EQ(After.CacheHits, Total.CacheHits);

  // The sim backend exposes hwCounters(), so every row with real
  // evaluations carries HW deltas, and simulated work costs cycles.
  for (const StageTelemetry &Row : Rows)
    if (Row.Evaluations > 0) {
      EXPECT_TRUE(Row.HasHW) << Row.Variant << "/" << Row.Stage;
      EXPECT_GT(Row.HW.cycles(), 0.0) << Row.Variant << "/" << Row.Stage;
      EXPECT_GT(Row.HW.Loads, 0u) << Row.Variant << "/" << Row.Stage;
    }

  // Rows arrive sorted by (variant, stage).
  for (size_t I = 1; I < Rows.size(); ++I)
    EXPECT_LT(std::tie(Rows[I - 1].Variant, Rows[I - 1].Stage),
              std::tie(Rows[I].Variant, Rows[I].Stage));
}

TEST(EngineTest, TuneResultTelemetryMatchesTotals) {
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EvalEngine Engine(Backend);

  // Two tunes through one engine: each TuneResult must report only its
  // own slice of the cumulative telemetry (the second is all cache hits).
  TuneResult First = tune(MM, Engine, {{"N", 64}});
  TuneResult Second = tune(MM, Engine, {{"N", 64}});
  for (const TuneResult *R : {&First, &Second}) {
    size_t Evals = 0, Hits = 0;
    for (const StageTelemetry &Row : R->Telemetry) {
      Evals += Row.Evaluations;
      Hits += Row.CacheHits;
    }
    EXPECT_EQ(Evals, R->TotalPoints);
    EXPECT_EQ(Hits, R->TotalCacheHits);
  }
  EXPECT_GT(First.TotalPoints, 0u);
  EXPECT_EQ(Second.TotalPoints, 0u); // fully memoized replay
  EXPECT_GT(Second.TotalCacheHits, 0u);
}

TEST(EngineTest, MetricsRegistryReconcilesWithTune) {
  // With metrics enabled, the registry's eval counters must agree
  // exactly with the tune's own accounting.
  obs::metrics().resetValues();
  obs::setMetricsEnabled(true);
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.Jobs = 2;
  EvalEngine Engine(Backend, Opts);
  TuneResult R = tune(MM, Engine, {{"N", 64}});
  obs::setMetricsEnabled(false);

  obs::MetricsRegistry &Reg = obs::metrics();
  EXPECT_EQ(Reg.counter("eval.evaluations").value(), R.TotalPoints);
  EXPECT_EQ(Reg.counter("eval.cache_hits").value(), R.TotalCacheHits);
  EXPECT_EQ(Reg.sumCounters("eval.points."), R.TotalPoints);
  EXPECT_EQ(Reg.sumCounters("eval.hits."), R.TotalCacheHits);
  EXPECT_EQ(Reg.histogram("eval.latency_ms").count(), R.TotalPoints);
  EXPECT_GT(Reg.counter("hw.loads").value(), 0u);
  EXPECT_GT(Reg.gauge("hw.stall_cycles").value(), 0.0);
  EXPECT_DOUBLE_EQ(Reg.gauge("tune.variants_done").value(),
                   Reg.gauge("tune.variants_total").value());
  obs::metrics().resetValues();
}

TEST(EngineTest, ChromeTraceCoversEvaluationsWithLaneAttribution) {
  obs::SpanCollector &C = obs::SpanCollector::global();
  C.clear();
  C.setEnabled(true);
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.Jobs = 2;
  EvalEngine Engine(Backend, Opts);
  TuneResult R = tune(MM, Engine, {{"N", 64}});
  C.setEnabled(false);

  std::vector<obs::SpanRecord> Spans = C.records();
  size_t EvalSpans = 0;
  bool SawNonZeroLane = false;
  uint64_t TuneDur = 0, ChildMax = 0;
  for (const obs::SpanRecord &S : Spans) {
    if (S.Cat == "eval") {
      ++EvalSpans;
      EXPECT_GE(S.Tid, 0);
      EXPECT_LT(S.Tid, 2);
      SawNonZeroLane |= S.Tid != 0;
    }
    if (S.Name == "tune")
      TuneDur = S.DurUs;
    else
      ChildMax = std::max(ChildMax, S.StartUs + S.DurUs);
  }
  // One eval span per real backend evaluation.
  EXPECT_EQ(EvalSpans, R.TotalPoints);
  EXPECT_TRUE(SawNonZeroLane); // warm batches really ran on lane 1
  ASSERT_GT(TuneDur, 0u);
  // The stage/search spans nest inside the tune span's interval.
  for (const obs::SpanRecord &S : Spans)
    if (S.Name != "tune") {
      EXPECT_LE(S.DurUs, TuneDur);
    }

  std::string Err;
  Json Root = Json::parse(C.chromeTraceJson().dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_GT(Root.get("traceEvents").size(), EvalSpans);
  C.clear();
}

// ---- Kill / resume from the cache file ----------------------------------

TEST(EngineTest, KilledTuneResumesFromItsCacheFile) {
  // A kill leaves the cache file as of its last save. Model that two
  // ways: the first K entries of an uninterrupted run's file, and the
  // flush of a tune ShouldStop cancelled partway. The search is a
  // deterministic function of the costs it sees, so a fresh engine over
  // either file must make every decision again: the uninterrupted
  // winner bitwise, and as many lookups (points + hits).
  const std::string Full = tempPath("eco_resume_full.json");
  const std::string Partial = tempPath("eco_resume_partial.json");
  std::remove(Full.c_str());
  LoopNest MM = makeMatMul();
  const ParamBindings Problem = {{"N", 64}};
  MachineDesc M = sgiScaled();
  auto TuneOver = [&](const std::string &CacheFile, TuneOptions TO) {
    SimEvalBackend Backend(M);
    EngineOptions EO;
    EO.CacheFile = CacheFile;
    EvalEngine Engine(Backend, EO);
    return tune(MM, Engine, Problem, TO);
  }; // the engine's destructor saves the file

  TuneResult Uninterrupted = TuneOver(Full, {});
  ASSERT_GE(Uninterrupted.BestVariant, 0);
  const size_t Lookups =
      Uninterrupted.TotalPoints + Uninterrupted.TotalCacheHits;

  for (const char *Kill : {"first-entries", "cancelled"}) {
    SCOPED_TRACE(Kill);
    std::remove(Partial.c_str());
    if (std::string(Kill) == "first-entries") {
      Json Root = Json::loadFile(Full);
      Json Kept = Json::object();
      for (const auto &[Key, Cost] : Root.get("entries").fields())
        if (Kept.size() < Uninterrupted.TotalPoints / 2)
          Kept.set(Key, Cost);
      Root.set("entries", std::move(Kept));
      ASSERT_TRUE(Root.saveFile(Partial));
    } else {
      size_t Polls = 0;
      TuneOptions Stopping;
      Stopping.ShouldStop = [&Polls] { return ++Polls > 40; };
      ASSERT_TRUE(TuneOver(Partial, Stopping).Cancelled);
    }
    EvalCache Saved;
    size_t Kept = Saved.load(Partial);
    ASSERT_GT(Kept, 0u);
    ASSERT_LT(Kept, Uninterrupted.TotalPoints);

    TuneResult Resumed = TuneOver(Partial, {});
    EXPECT_EQ(winnerOf(Resumed), winnerOf(Uninterrupted));
    EXPECT_EQ(Resumed.TotalPoints + Resumed.TotalCacheHits, Lookups);
    EXPECT_LT(Resumed.TotalPoints, Uninterrupted.TotalPoints);
  }
  std::remove(Full.c_str());
  std::remove(Partial.c_str());
}

// ---- persistence robustness ---------------------------------------------

TEST(EngineTest, PeriodicSavesFromWarmBatchesNeverPublishTornFiles) {
  // CacheSaveInterval=1 + jobs=4 makes every lane trip the periodic-save
  // threshold inside the same warm batch — the exact overlap that used
  // to let two lanes write the cache file concurrently (and, with the
  // old fixed ".tmp" staging name, interleave into one temp file and
  // rename torn JSON into place). A reader polls the file for the whole
  // tune: it must never observe an unparseable document.
  std::string Path = tempPath("eco_engine_save_hammer.json");
  std::remove(Path.c_str());
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();

  std::atomic<bool> Stop{false};
  std::atomic<size_t> Torn{0}, Good{0};
  std::thread Reader([&] {
    while (!Stop.load(std::memory_order_relaxed)) {
      std::ifstream Probe(Path);
      if (!Probe)
        continue; // not yet published
      std::string Error;
      if (Json::loadFile(Path, &Error).isObject())
        Good.fetch_add(1, std::memory_order_relaxed);
      else
        Torn.fetch_add(1, std::memory_order_relaxed);
    }
  });

  double Best;
  {
    SimEvalBackend Backend(M);
    EngineOptions Opts;
    Opts.CacheFile = Path;
    Opts.CacheSaveInterval = 1;
    Opts.Jobs = 4;
    EvalEngine Engine(Backend, Opts);
    Best = tune(MM, Engine, {{"N", 64}}).BestCost;
  }
  Stop.store(true);
  Reader.join();

  EXPECT_EQ(Torn.load(), 0u)
      << Torn.load() << " torn observation(s), " << Good.load()
      << " clean";
  EXPECT_GT(Good.load(), 0u);

  // And the final snapshot replays the whole tune.
  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.CacheFile = Path;
  EvalEngine Engine(Backend, Opts);
  EXPECT_GT(Engine.cache().size(), 0u);
  EXPECT_EQ(tune(MM, Engine, {{"N", 64}}).BestCost, Best);
  std::remove(Path.c_str());
}

TEST(EngineTest, TruncatedCacheFileRecoversToColdRunAnswer) {
  // A kill mid-write used to leave half a JSON document at the cache
  // path. Loading must warn and start empty — never crash, never serve
  // entries the file no longer proves — and the next tune must rebuild
  // both the answer and a healthy file.
  std::string Path = tempPath("eco_engine_truncated_cache.json");
  std::remove(Path.c_str());
  LoopNest MM = makeMatMul();
  MachineDesc M = sgiScaled();
  const ParamBindings Problem = {{"N", 64}};

  double ColdBest;
  {
    SimEvalBackend Backend(M);
    EngineOptions Opts;
    Opts.CacheFile = Path;
    EvalEngine Engine(Backend, Opts);
    ColdBest = tune(MM, Engine, Problem).BestCost;
  } // destructor saves a healthy file

  // Truncate it to half, as a kill between write and rename would.
  {
    std::ifstream In(Path, std::ios::binary);
    std::stringstream SS;
    SS << In.rdbuf();
    std::string Half = SS.str().substr(0, SS.str().size() / 2);
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << Half;
  }

  SimEvalBackend Backend(M);
  EngineOptions Opts;
  Opts.CacheFile = Path;
  EvalEngine Engine(Backend, Opts); // must not crash
  EXPECT_EQ(Engine.cache().size(), 0u) << "entries from a torn file";
  TuneResult R = tune(MM, Engine, Problem);
  EXPECT_EQ(R.BestCost, ColdBest);
  EXPECT_GT(Engine.stats().Evaluations, 0u); // really re-evaluated
  Engine.flush();
  std::string Error;
  EXPECT_TRUE(Json::loadFile(Path, &Error).isObject()) << Error;
  std::remove(Path.c_str());
}

// ---- Cache machine filtering -------------------------------------------

TEST(EvalCacheTest, ForeignMachineEntriesAreRejectedOnLoad) {
  std::string Path = tempPath("eco_cache_foreign.json");
  std::string Resaved = tempPath("eco_cache_foreign_resave.json");
  std::remove(Path.c_str());
  std::remove(Resaved.c_str());

  // Four entries for machine 0xAAAA, three for 0xBBBB, in one file —
  // the state a --cache-file pointed at another target's cache has.
  EvalCache Mixed;
  for (uint64_t I = 1; I <= 4; ++I)
    Mixed.insert(EvalKey{I, 0xAAAA, I * 3}, static_cast<double>(I));
  for (uint64_t I = 1; I <= 3; ++I)
    Mixed.insert(EvalKey{I, 0xBBBB, I * 3}, 100.0 + static_cast<double>(I));
  ASSERT_TRUE(Mixed.save(Path));

  bool MetricsWere = obs::metricsEnabled();
  obs::setMetricsEnabled(true);
  uint64_t Before =
      obs::metrics().counter("cache.foreign_rejected").value();

  EvalCache Filtered;
  EXPECT_EQ(Filtered.load(Path, 0xAAAA), 4u);
  EXPECT_EQ(Filtered.size(), 4u);
  EXPECT_TRUE(Filtered.lookup(EvalKey{1, 0xAAAA, 3}).has_value());
  EXPECT_FALSE(Filtered.lookup(EvalKey{1, 0xBBBB, 3}).has_value());
  EXPECT_EQ(obs::metrics().counter("cache.foreign_rejected").value(),
            Before + 3);
  obs::setMetricsEnabled(MetricsWere);

  // The rejected entries are gone for good: a re-save no longer carries
  // them forward (the silent-poisoning mode the filter exists to stop).
  ASSERT_TRUE(Filtered.save(Resaved));
  EvalCache Reloaded;
  EXPECT_EQ(Reloaded.load(Resaved), 4u);

  // A filter-less load still takes everything (merge tooling relies on
  // it), and a matching filter is a no-op.
  EvalCache All;
  EXPECT_EQ(All.load(Path), 7u);
  std::remove(Path.c_str());
  std::remove(Resaved.c_str());
}

// ---- Cache keys: variant fingerprints -----------------------------------

namespace {

struct KernelCase {
  const char *Name;
  LoopNest (*Build)();
};

const KernelCase BundledKernels[] = {
    {"matmul", [] { return makeMatMul(); }},
    {"jacobi", [] { return makeJacobi(); }},
    {"matvec", [] { return makeMatVec(); }},
};

/// \p V's model-initial point with every unroll factor set to 2 and
/// prefetching off, so variants with equally many unroll and prefetch
/// parameters share one instantiationKey().
Env pinnedConfig(const DerivedVariant &V, const MachineDesc &M,
                 const ParamBindings &Problem) {
  Env E = initialConfig(V, M, Problem);
  for (const UnrollSpec &U : V.Spec.Unrolls)
    E.set(U.FactorParam, 2);
  for (const PrefetchSpec &P : V.Prefetch)
    E.set(P.DistanceParam, 0);
  return E;
}

/// A hand-built variant holding copies of everything instantiate() reads
/// from \p V (DerivedVariant itself is move-only).
DerivedVariant instantiateInputsOf(const DerivedVariant &V) {
  DerivedVariant C;
  C.Spec = V.Spec;
  C.Skeleton = V.Skeleton.clone();
  C.Prefetch = V.Prefetch;
  return C;
}

} // namespace

TEST(VariantFingerprintTest, IndependentDerivationsAgree) {
  // The daemon and every eco_worker derive variants on their own; the
  // cache keys they exchange agree only if fingerprints do.
  for (const MachineDesc &M :
       {MachineDesc::sgiR10000().scaledBy(16),
        MachineDesc::ultraSparcIIe().scaledBy(16)})
    for (const KernelCase &K : BundledKernels) {
      std::vector<DerivedVariant> A = deriveVariants(K.Build(), M);
      std::vector<DerivedVariant> B = deriveVariants(K.Build(), M);
      ASSERT_EQ(A.size(), B.size()) << K.Name;
      for (size_t I = 0; I < A.size(); ++I) {
        EXPECT_EQ(A[I].Spec.Name, B[I].Spec.Name) << K.Name;
        EXPECT_NE(A[I].fingerprint(), 0u) << K.Name << " " << A[I].Spec.Name;
        EXPECT_EQ(A[I].fingerprint(), B[I].fingerprint())
            << K.Name << " " << A[I].Spec.Name;
        EXPECT_EQ(A[I].fingerprint(), variantFingerprint(A[I]))
            << K.Name << " " << A[I].Spec.Name << ": stored value is stale";
      }
    }
}

TEST(VariantFingerprintTest, EveryInstantiateInputChangesIt) {
  MachineDesc M = sgiScaled();
  std::vector<DerivedVariant> Vs = deriveVariants(makeMatMul(), M);
  const DerivedVariant *Base = nullptr, *Other = nullptr;
  for (const DerivedVariant &V : Vs)
    if (!Base && V.Spec.Unrolls.size() >= 2 && !V.Prefetch.empty())
      Base = &V;
  ASSERT_NE(Base, nullptr);
  for (const DerivedVariant &V : Vs)
    if (&V != Base && hashNest(V.Skeleton) != hashNest(Base->Skeleton))
      Other = &V;
  ASSERT_NE(Other, nullptr);
  const uint64_t Original = variantFingerprint(*Base);
  const SymbolTable &Syms = Base->Skeleton.Syms;

  DerivedVariant Unroll = instantiateInputsOf(*Base); // another loop
  Unroll.Spec.Unrolls[0].Loop = Base->Spec.Unrolls[1].Loop;
  EXPECT_NE(variantFingerprint(Unroll), Original);

  DerivedVariant Factor = instantiateInputsOf(*Base); // another factor
  Factor.Spec.Unrolls[0].FactorParam = Base->Spec.Unrolls[1].FactorParam;
  EXPECT_NE(variantFingerprint(Factor), Original);

  DerivedVariant Prefetch = instantiateInputsOf(*Base); // another array
  ArrayId Arr = Base->Prefetch[0].Array;
  Prefetch.Prefetch[0].Array = Arr == 0 ? 1 : 0;
  ASSERT_NE(Base->Skeleton.array(Prefetch.Prefetch[0].Array).Name,
            Base->Skeleton.array(Arr).Name);
  EXPECT_NE(variantFingerprint(Prefetch), Original);

  DerivedVariant Dropped = instantiateInputsOf(*Base); // one array fewer
  Dropped.Prefetch.pop_back();
  EXPECT_NE(variantFingerprint(Dropped), Original);

  DerivedVariant Reg = instantiateInputsOf(*Base); // another register loop
  Reg.Spec.RegLoop = Base->Spec.Unrolls[0].Loop;
  ASSERT_NE(Syms.name(Reg.Spec.RegLoop), Syms.name(Base->Spec.RegLoop));
  EXPECT_NE(variantFingerprint(Reg), Original);

  DerivedVariant Skeleton = instantiateInputsOf(*Base); // another skeleton
  Skeleton.Skeleton = Other->Skeleton.clone();
  EXPECT_NE(variantFingerprint(Skeleton), Original);

  // A hand-built variant computes its fingerprint on first use and keeps
  // it until refreshFingerprint().
  DerivedVariant Hand = instantiateInputsOf(*Base);
  EXPECT_EQ(Hand.fingerprint(), Original);
  Hand.Spec.RegLoop = Base->Spec.Unrolls[0].Loop;
  EXPECT_EQ(Hand.fingerprint(), Original);
  Hand.refreshFingerprint();
  EXPECT_EQ(Hand.fingerprint(), variantFingerprint(Reg));
}

TEST(EngineTest, MemosAreKeyedByContentNotAddress) {
  // Regression: the engine's and the DirectEvaluator's instantiation
  // memos were keyed by the variant's address. A reused engine served a
  // freed variant's nest to a different variant built at the same
  // address. std::optional reuses one address on purpose.
  MachineDesc M = sgiScaled();
  const ParamBindings Problem = {{"N", 64}};
  std::vector<DerivedVariant> Vs = deriveVariants(makeMatMul(), M);

  auto freshCost = [&](const DerivedVariant &V) {
    SimEvalBackend B(M);
    EvalEngine E(B);
    return E.evaluate(V, pinnedConfig(V, M, Problem), "test").Cost;
  };
  // Two variants with equal instantiationKey()s but different costs.
  size_t First = Vs.size(), Second = Vs.size();
  double FirstCost = 0, SecondCost = 0;
  for (size_t I = 0; I < Vs.size() && Second == Vs.size(); ++I)
    for (size_t J = I + 1; J < Vs.size() && Second == Vs.size(); ++J) {
      if (Vs[I].Spec.Unrolls.size() != Vs[J].Spec.Unrolls.size() ||
          Vs[I].Prefetch.size() != Vs[J].Prefetch.size())
        continue;
      FirstCost = freshCost(Vs[I]);
      SecondCost = freshCost(Vs[J]);
      if (FirstCost != SecondCost) {
        First = I;
        Second = J;
      }
    }
  ASSERT_LT(Second, Vs.size());
  ASSERT_EQ(instantiationKey(Vs[First], pinnedConfig(Vs[First], M, Problem)),
            instantiationKey(Vs[Second],
                             pinnedConfig(Vs[Second], M, Problem)));

  SimEvalBackend EngineBackend(M), DirectBackend(M);
  EvalEngine Engine(EngineBackend);
  DirectEvaluator Direct(DirectBackend);
  std::optional<DerivedVariant> Slot;
  Slot.emplace(std::move(Vs[First]));
  const DerivedVariant *Address = &*Slot;
  Env Config = pinnedConfig(*Slot, M, Problem);
  EXPECT_EQ(Engine.evaluate(*Slot, Config, "test").Cost, FirstCost);
  EXPECT_EQ(Direct.evaluate(*Slot, Config, "test").Cost, FirstCost);

  Slot.reset();
  Slot.emplace(std::move(Vs[Second]));
  ASSERT_EQ(&*Slot, Address);
  Config = pinnedConfig(*Slot, M, Problem);
  EXPECT_EQ(Engine.evaluate(*Slot, Config, "test").Cost, SecondCost);
  EXPECT_EQ(Direct.evaluate(*Slot, Config, "test").Cost, SecondCost);
  EXPECT_EQ(Engine.instantiations(), 2u);
}

TEST(EngineTest, RetuneOverFilledSharedCacheNeverInstantiates) {
  MachineDesc M = sgiScaled();
  const ParamBindings Problem = {{"N", 64}};
  EngineOptions Opts;
  Opts.SharedCache = std::make_shared<EvalCache>();

  TuneResult Cold;
  {
    SimEvalBackend B(M);
    EvalEngine E(B, Opts);
    Cold = tune(makeMatMul(), E, Problem);
    EXPECT_GT(E.instantiations(), 0u);
    EXPECT_GT(E.stats().Evaluations, 0u);
  }

  SimEvalBackend B(M);
  EvalEngine E(B, Opts);
  TuneResult Again = tune(makeMatMul(), E, Problem);
  EXPECT_EQ(E.instantiations(), 0u);
  EXPECT_EQ(E.stats().Evaluations, 0u);
  EXPECT_GT(E.stats().CacheHits, 0u);
  EXPECT_EQ(winnerOf(Again), winnerOf(Cold));
}

TEST(EvalCacheTest, VersionOneFileLoadsNothingAndIsRewrittenAsVersionTwo) {
  // Version-1 keys hashed the instantiated nest, so none can hit now:
  // loading one must warn once and start empty, like a foreign machine.
  std::string Path = tempPath("eco_cache_v1.json");
  std::remove(Path.c_str());
  EvalCache Old;
  for (uint64_t I = 1; I <= 3; ++I)
    Old.insert(EvalKey{I, 0xAAAA, I}, static_cast<double>(I));
  ASSERT_TRUE(Old.save(Path));
  Json Root = Json::loadFile(Path);
  EXPECT_EQ(Root.get("version").asInt(), EvalCache::FormatVersion);
  Root.set("version", 1);
  ASSERT_TRUE(Root.saveFile(Path));

  obs::LogLevel WasLevel = obs::logLevel();
  obs::setLogLevel(obs::LogLevel::Warn);
  ::testing::internal::CaptureStderr();
  EvalCache Loaded;
  size_t N = Loaded.load(Path);
  std::string Err = ::testing::internal::GetCapturedStderr();
  obs::setLogLevel(WasLevel);
  EXPECT_EQ(N, 0u);
  EXPECT_EQ(Loaded.size(), 0u);
  size_t Warnings = 0;
  for (size_t At = Err.find("format version 1"); At != std::string::npos;
       At = Err.find("format version 1", At + 1))
    ++Warnings;
  EXPECT_EQ(Warnings, 1u) << Err;

  // An engine pointed at the file starts empty and saves version 2.
  MachineDesc M = sgiScaled();
  {
    SimEvalBackend B(M);
    EngineOptions Opts;
    Opts.CacheFile = Path;
    EvalEngine E(B, Opts);
    EXPECT_EQ(E.cache().size(), 0u);
    tune(makeMatMul(), E, {{"N", 32}});
  }
  Json Saved = Json::loadFile(Path);
  EXPECT_EQ(Saved.get("version").asInt(), 2);
  EXPECT_GT(Saved.get("entries").size(), 0u);
  EvalCache Reloaded;
  EXPECT_GT(Reloaded.load(Path), 0u);
  std::remove(Path.c_str());
}
