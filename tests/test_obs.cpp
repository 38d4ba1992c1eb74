//===- tests/test_obs.cpp - obs/ unit tests -------------------------------===//
//
// Covers the observability subsystem: metric semantics (histogram bucket
// boundaries and quantiles, concurrent updates under the engine's
// ThreadPool), JSON escaping of hostile names, the leveled logger's
// zero-evaluation guarantee when disabled, and the flight recorder
// (obs/Event.h): publication stamping, job attribution, JSONL
// round-trips, appending past a torn final line, the event -> metrics
// fold, span events and the Chrome timeline rendered from them,
// concurrent publishers (the "obs" ctest label runs this under TSan),
// and real tunes whose event streams must reconcile with their
// TuneResult.
//
//===----------------------------------------------------------------------===//

#include "EventCapture.h"

#include "check/EventAudit.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "engine/ThreadPool.h"
#include "kernels/Kernels.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Report.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace eco;

namespace {

/// Fresh registry per test so suites don't see each other's metrics (the
/// global obs::metrics() is shared process state).
obs::MetricsRegistry makeRegistry() { return obs::MetricsRegistry(); }

} // namespace

//===----------------------------------------------------------------------===//
// Counter / Gauge
//===----------------------------------------------------------------------===//

TEST(ObsCounter, IncAndReset) {
  obs::Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.inc(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(ObsGauge, SetAndAdd) {
  obs::Gauge G;
  G.set(2.5);
  EXPECT_DOUBLE_EQ(G.value(), 2.5);
  G.add(1.5);
  EXPECT_DOUBLE_EQ(G.value(), 4.0);
  G.reset();
  EXPECT_DOUBLE_EQ(G.value(), 0.0);
}

//===----------------------------------------------------------------------===//
// Histogram bucket boundaries
//===----------------------------------------------------------------------===//

TEST(ObsHistogram, BucketBoundsDouble) {
  obs::Histogram H(/*FirstBound=*/1.0, /*NumBuckets=*/8);
  ASSERT_EQ(H.numBuckets(), 8u);
  for (unsigned I = 0; I < H.numBuckets(); ++I)
    EXPECT_DOUBLE_EQ(H.bucketBound(I), static_cast<double>(1u << I));
}

TEST(ObsHistogram, BoundaryValuesLandInclusive) {
  // Bucket I holds (bound(I-1), bound(I)]: a value exactly at a bound
  // belongs to that bucket, one ulp above belongs to the next.
  obs::Histogram H(1.0, 8);
  H.record(1.0); // == bound(0) -> bucket 0
  H.record(2.0); // == bound(1) -> bucket 1
  H.record(2.0000001); // just above bound(1) -> bucket 2
  H.record(0.001);     // far below FirstBound -> bucket 0
  H.record(-5.0);      // non-positive clamps into bucket 0
  EXPECT_EQ(H.bucketCount(0), 3u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.count(), 5u);
}

TEST(ObsHistogram, OverflowBucket) {
  obs::Histogram H(1.0, 4); // bounds 1,2,4,8
  H.record(8.0);  // == last bound -> last bounded bucket
  H.record(8.1);  // past every bound -> overflow
  H.record(1e9);
  EXPECT_EQ(H.bucketCount(3), 1u);
  EXPECT_EQ(H.bucketCount(H.numBuckets()), 2u); // overflow slot
  EXPECT_EQ(H.count(), 3u);
}

TEST(ObsHistogram, SumMinMax) {
  obs::Histogram H(1e-3, 10);
  EXPECT_DOUBLE_EQ(H.minValue(), 0.0); // empty
  EXPECT_DOUBLE_EQ(H.maxValue(), 0.0);
  H.record(3.0);
  H.record(1.0);
  H.record(2.0);
  EXPECT_DOUBLE_EQ(H.sum(), 6.0);
  EXPECT_DOUBLE_EQ(H.minValue(), 1.0);
  EXPECT_DOUBLE_EQ(H.maxValue(), 3.0);
}

TEST(ObsHistogram, QuantileExactAtBucketBounds) {
  // When every sample sits exactly on a bucket bound the quantile is the
  // bound itself — no bucket uncertainty at all.
  obs::Histogram H(1.0, 8);
  for (int I = 0; I < 5; ++I)
    H.record(1.0);
  for (int I = 0; I < 4; ++I)
    H.record(4.0);
  H.record(100.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(H.quantile(0.50), 1.0); // rank 5 of 10
  EXPECT_DOUBLE_EQ(H.quantile(0.90), 4.0); // rank 9
  // Rank 10 lands in the 100.0 sample's bucket (bound 128), clamped to
  // the observed max.
  EXPECT_DOUBLE_EQ(H.quantile(0.95), 100.0);
  EXPECT_DOUBLE_EQ(H.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(obs::Histogram(1.0, 4).quantile(0.5), 0.0); // empty
}

TEST(ObsHistogram, QuantileNeverBelowTruthAtMostTwice) {
  // Off-bound samples: the reported quantile is the enclosing log2
  // bucket's upper bound — >= the true order statistic, <= 2x it.
  obs::Histogram H(1e-3, 24);
  std::vector<double> Samples;
  for (int I = 1; I <= 200; ++I) {
    double V = 0.017 * I * I; // spread over many buckets
    Samples.push_back(V);
    H.record(V);
  }
  std::sort(Samples.begin(), Samples.end());
  for (double Q : {0.50, 0.95, 0.99}) {
    double Exact =
        Samples[static_cast<size_t>(Q * (Samples.size() - 1))];
    double Approx = H.quantile(Q);
    EXPECT_GE(Approx, Exact) << "q=" << Q;
    EXPECT_LE(Approx, Exact * 2.0) << "q=" << Q;
  }
}

TEST(ObsHistogram, JsonRoundTrip) {
  obs::Histogram H(1.0, 6);
  H.record(0.5);
  H.record(3.0);
  H.record(100.0); // overflow
  Json J = H.toJson();
  std::string Err;
  Json Back = Json::parse(J.dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Back.get("count").asInt(), 3);
  EXPECT_DOUBLE_EQ(Back.get("sum").asNumber(), 103.5);
  EXPECT_EQ(Back.get("overflow").asInt(), 1);
}

//===----------------------------------------------------------------------===//
// Concurrency: metric updates from engine ThreadPool lanes
//===----------------------------------------------------------------------===//

TEST(ObsConcurrency, CountersExactUnderThreadPool) {
  obs::MetricsRegistry Reg = makeRegistry();
  constexpr int NumTasks = 64;
  constexpr int IncsPerTask = 1000;

  ThreadPool Pool(4);
  std::vector<std::function<void(int)>> Tasks;
  for (int T = 0; T < NumTasks; ++T)
    Tasks.push_back([&Reg](int Lane) {
      for (int I = 0; I < IncsPerTask; ++I) {
        Reg.counter("shared").inc();
        Reg.counter("lane." + std::to_string(Lane)).inc();
        Reg.gauge("acc").add(1.0);
        Reg.histogram("h", 1.0, 8).record(static_cast<double>(I % 10));
      }
    });
  Pool.runBatch(Tasks);

  EXPECT_EQ(Reg.counter("shared").value(),
            static_cast<uint64_t>(NumTasks) * IncsPerTask);
  EXPECT_DOUBLE_EQ(Reg.gauge("acc").value(),
                   static_cast<double>(NumTasks) * IncsPerTask);
  EXPECT_EQ(Reg.histogram("h").count(),
            static_cast<uint64_t>(NumTasks) * IncsPerTask);
  uint64_t PerLane = Reg.sumCounters("lane.");
  EXPECT_EQ(PerLane, static_cast<uint64_t>(NumTasks) * IncsPerTask);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(ObsRegistry, StableReferencesAndReset) {
  obs::MetricsRegistry Reg = makeRegistry();
  obs::Counter &C = Reg.counter("a");
  C.inc(7);
  EXPECT_EQ(&Reg.counter("a"), &C); // lookup returns the same object
  Reg.resetValues();
  EXPECT_EQ(C.value(), 0u); // zeroed in place, reference still valid
}

TEST(ObsRegistry, JsonSnapshotParsesBack) {
  obs::MetricsRegistry Reg = makeRegistry();
  Reg.counter("evals").inc(12);
  Reg.gauge("temp").set(3.5);
  Reg.histogram("lat", 1e-3, 16).record(0.25);

  std::string Err;
  Json Back = Json::parse(Reg.toJson().dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Back.get("counters").get("evals").asInt(), 12);
  EXPECT_DOUBLE_EQ(Back.get("gauges").get("temp").asNumber(), 3.5);
  EXPECT_EQ(Back.get("histograms").get("lat").get("count").asInt(), 1);
}

TEST(ObsRegistry, HostileMetricNamesEscapeCleanly) {
  // Metric (and config/span) names flow user-controlled strings into
  // JSON; quotes, backslashes, and control characters must survive a
  // dump -> parse round trip unmangled.
  obs::MetricsRegistry Reg = makeRegistry();
  std::string Nasty = "ev\"al\\path\nwith\tctrl\x01chars";
  Reg.counter(Nasty).inc(5);

  std::string Err;
  Json Back = Json::parse(Reg.toJson().dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  const Json &Counters = Back.get("counters");
  ASSERT_EQ(Counters.fields().size(), 1u);
  EXPECT_EQ(Counters.fields()[0].first, Nasty);
  EXPECT_EQ(Counters.fields()[0].second.asInt(), 5);
}

TEST(ObsRegistry, GlobalDisabledByDefault) {
  // The registry is folded from published events, and events default
  // off: a tune with no observability asked for leaves it at zero.
  ASSERT_FALSE(obs::eventsEnabled());
  obs::metrics().resetValues();
  const std::string Zero = obs::metrics().toJson().dump();
  SimEvalBackend Backend(MachineDesc::sgiR10000().scaledBy(16));
  ASSERT_GT(tune(makeMatMul(), Backend, {{"N", 16}}).TotalPoints, 0u);
  EXPECT_EQ(obs::metrics().toJson().dump(), Zero);
}

//===----------------------------------------------------------------------===//
// Logger
//===----------------------------------------------------------------------===//

namespace {
int SideEffects = 0;
int touch() {
  ++SideEffects;
  return 0;
}
} // namespace

TEST(ObsLog, DisabledLevelsSkipArgumentEvaluation) {
  obs::LogLevel Saved = obs::logLevel();
  obs::setLogLevel(obs::LogLevel::Error);
  SideEffects = 0;
  ECO_LOG(Debug) << "never evaluated: " << touch();
  ECO_LOG(Info) << touch();
  ECO_LOG(Warn) << touch();
  EXPECT_EQ(SideEffects, 0);
  obs::setLogLevel(obs::LogLevel::Off);
  ECO_LOG(Error) << touch();
  EXPECT_EQ(SideEffects, 0);
  obs::setLogLevel(Saved);
}

TEST(ObsLog, EnabledLevelEvaluatesOnce) {
  obs::LogLevel Saved = obs::logLevel();
  obs::setLogLevel(obs::LogLevel::Debug);
  SideEffects = 0;
  ECO_LOG(Debug) << "evaluated: " << touch();
  EXPECT_EQ(SideEffects, 1);
  obs::setLogLevel(Saved);
}

TEST(ObsLog, LevelNameParsing) {
  obs::LogLevel Saved = obs::logLevel();
  EXPECT_TRUE(obs::setLogLevelByName("debug"));
  EXPECT_EQ(obs::logLevel(), obs::LogLevel::Debug);
  EXPECT_TRUE(obs::setLogLevelByName("off"));
  EXPECT_EQ(obs::logLevel(), obs::LogLevel::Off);
  EXPECT_FALSE(obs::setLogLevelByName("verbose")); // unknown: unchanged
  EXPECT_EQ(obs::logLevel(), obs::LogLevel::Off);
  obs::setLogLevel(Saved);
}

TEST(ObsLog, MacroIsStatementSafe) {
  // The dangling-else form must compose with unbraced if/else.
  obs::LogLevel Saved = obs::logLevel();
  obs::setLogLevel(obs::LogLevel::Off);
  bool Taken = false;
  if (true)
    ECO_LOG(Error) << "then-branch";
  else
    Taken = true;
  EXPECT_FALSE(Taken);
  obs::setLogLevel(Saved);
}

TEST(ObsClock, MonotonicMicrosNeverGoesBackward) {
  uint64_t A = obs::monotonicMicros();
  uint64_t B = obs::monotonicMicros();
  EXPECT_LE(A, B);
}

//===----------------------------------------------------------------------===//
// Event bus (the flight recorder)
//===----------------------------------------------------------------------===//

namespace {

Json fields(const char *Key, int64_t Value) {
  Json F = Json::object();
  F.set(Key, Value);
  return F;
}

} // namespace

TEST(ObsEventBus, DisabledBusDropsPublishes) {
  // Library default: events off, publish is a no-op.
  EventCapture Cap;
  obs::setEventsEnabled(false);
  obs::EventBus::global().publish("test.noop", fields("k", 1));
  EXPECT_TRUE(Cap.events().empty());
}

TEST(ObsEventBus, StampsDenseSeqAndMonotonicTime) {
  EventCapture Cap;
  for (int I = 0; I < 3; ++I)
    obs::publishEvent("test.stamp", fields("i", I));

  std::vector<obs::Event> Events = Cap.events();
  ASSERT_EQ(Events.size(), 3u);
  for (size_t I = 0; I < Events.size(); ++I) {
    EXPECT_EQ(Events[I].Type, "test.stamp");
    EXPECT_EQ(Events[I].Fields.get("i").asInt(), static_cast<int64_t>(I));
    EXPECT_EQ(Events[I].Job, 0u); // not inside a serve job
    if (I) {
      EXPECT_EQ(Events[I].Seq, Events[I - 1].Seq + 1); // dense
      EXPECT_GE(Events[I].TimeUs, Events[I - 1].TimeUs);
    }
  }
}

TEST(ObsEventBus, ScopedJobIdAttributesEvents) {
  EventCapture Cap;
  EXPECT_EQ(obs::currentJobId(), 0u);
  {
    obs::ScopedJobId Outer(7);
    EXPECT_EQ(obs::currentJobId(), 7u);
    obs::publishEvent("test.job", fields("k", 1));
    {
      obs::ScopedJobId Inner(9); // nesting restores, not resets
      EXPECT_EQ(obs::currentJobId(), 9u);
      obs::publishEvent("test.job", fields("k", 2));
    }
    EXPECT_EQ(obs::currentJobId(), 7u);
  }
  EXPECT_EQ(obs::currentJobId(), 0u);

  std::vector<obs::Event> Events = Cap.events();
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Job, 7u);
  EXPECT_EQ(Events[1].Job, 9u);
}

TEST(ObsEventBus, JsonlRoundTripAndRejectsMalformed) {
  obs::Event E;
  E.Seq = 41;
  E.TimeUs = 123456789;
  E.Job = 5;
  E.Type = "config.evaluated";
  Json F = Json::object();
  F.set("variant", "v1\"quoted\"");
  F.set("cost", 2690098.0);
  E.Fields = std::move(F);

  std::string Err;
  Json Line = Json::parse(eventToJson(E).dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  obs::Event Back;
  ASSERT_TRUE(eventFromJson(Line, Back, &Err)) << Err;
  EXPECT_EQ(Back.Seq, 41u);
  EXPECT_EQ(Back.TimeUs, 123456789u);
  EXPECT_EQ(Back.Job, 5u);
  EXPECT_EQ(Back.Type, "config.evaluated");
  EXPECT_EQ(Back.Fields.get("variant").asString(), "v1\"quoted\"");
  EXPECT_EQ(Back.Fields.get("cost").asNumber(), 2690098.0); // bitwise

  // Job = 0 is elided from the wire form and restored as 0.
  E.Job = 0;
  ASSERT_TRUE(eventFromJson(eventToJson(E), Back, &Err)) << Err;
  EXPECT_EQ(Back.Job, 0u);

  obs::Event Bad;
  EXPECT_FALSE(eventFromJson(Json("not an object"), Bad, &Err));
  EXPECT_FALSE(Err.empty());
  Json NoType = eventToJson(E);
  NoType.set("type", Json());
  EXPECT_FALSE(eventFromJson(NoType, Bad, &Err));
}

TEST(ObsEventBusConcurrency, ParallelPublishersAndReaders) {
  EventCapture Cap;
  constexpr int Publishers = 24, PerPublisher = 200;

  // Publishers race each other into the file sink (and the metrics
  // fold) while readers parse it back; the "obs" ctest label replays
  // this under ThreadSanitizer.
  ThreadPool Pool(4);
  std::vector<std::function<void(int)>> Tasks;
  for (int T = 0; T < Publishers; ++T)
    Tasks.push_back([](int) {
      for (int I = 0; I < PerPublisher; ++I)
        obs::publishEvent("test.race", fields("i", I));
    });
  for (int T = 0; T < 4; ++T)
    Tasks.push_back([&Cap](int) {
      for (int I = 0; I < 5; ++I) {
        std::vector<obs::Event> Read = Cap.events();
        for (size_t S = 1; S < Read.size(); ++S)
          EXPECT_EQ(Read[S].Seq, Read[S - 1].Seq + 1);
      }
    });
  Pool.runBatch(Tasks);

  // Every publish is one whole line, dense and in Seq/time order.
  std::vector<obs::Event> Events = Cap.events();
  ASSERT_EQ(Events.size(), static_cast<size_t>(Publishers) * PerPublisher);
  for (size_t I = 1; I < Events.size(); ++I) {
    EXPECT_EQ(Events[I].Type, "test.race");
    EXPECT_EQ(Events[I].Seq, Events[I - 1].Seq + 1);
    EXPECT_GE(Events[I].TimeUs, Events[I - 1].TimeUs);
  }
}

TEST(ObsEventBus, AppendPastATornTailStartsACleanSegment) {
  // A killed writer leaves a partial final line; appending must cut it
  // back to the last complete event, not glue a new segment onto it.
  std::string Path = ::testing::TempDir() + "eco_torn_tail.jsonl";
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << "{\"seq\":7,\"t_us\":5,\"type\":\"test.before\","
           "\"fields\":{}}\n"
        << "{\"seq\":8,\"t_us\":6,\"type\":\"config.evalu";
  }
  obs::EventBus Bus; // a fresh process's bus: seq restarts at 0
  obs::setEventsEnabled(true);
  ASSERT_TRUE(Bus.openFile(Path, /*Append=*/true));
  Bus.publish("test.after", fields("k", 1));
  Bus.closeFile();
  obs::setEventsEnabled(false);

  std::vector<obs::Event> Events;
  std::vector<std::string> LineErrors;
  std::string Err;
  ASSERT_TRUE(obs::loadEventsFile(Path, Events, &Err, &LineErrors)) << Err;
  EXPECT_TRUE(LineErrors.empty()) << LineErrors[0];
  ASSERT_EQ(Events.size(), 2u);
  EXPECT_EQ(Events[0].Type, "test.before");
  EXPECT_EQ(Events[1].Type, "test.after");
  EXPECT_EQ(Events[1].Seq, 0u);

  check::EventAuditReport Audit = check::auditEventsFile(Path);
  EXPECT_EQ(Audit.Segments, 2u);
  for (const check::EventIssue &I : Audit.Issues)
    EXPECT_TRUE(I.Kind != "parse" && I.Kind != "seq" && I.Kind != "time")
        << Audit.summary();
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// The event -> metrics fold
//===----------------------------------------------------------------------===//

TEST(ObsMetricsFold, EachMappedEventUpdatesItsMetric) {
  // One row per fold rule, published in order through the real bus.
  // Each check is "<kind> <metric> <want>": a counter ('c') or histogram
  // count ('h') delta over the row, or a gauge ('g') value after it.
  const std::vector<std::array<const char *, 3>> Rows = {
      {"config.evaluated", R"({"variant":"v","stage":"s","ms":0.5})",
       "c eval.evaluations 1 c eval.points.v.s 1 h eval.latency_ms 1"},
      {"config.evaluated", R"({"variant":"v","stage":"s","cache_hit":true})",
       "c eval.cache_hits 1 c eval.hits.v.s 1 c eval.evaluations 0"},
      {"config.rejected", "{}", "c transform.rejected 1"},
      {"variant.rejected", "{}", "c transform.rejected 1"},
      {"stage.telemetry",
       R"({"loads":9,"stores":4,"prefetches":2,"flops":8,"l1_misses":3,)"
       R"("l2_misses":1,"tlb_misses":5,"issue_cycles":20,"stall_cycles":7})",
       "c hw.loads 9 c hw.stores 4 c hw.prefetches 2 c hw.flops 8 "
       "c hw.l1_misses 3 c hw.l2_misses 1 c hw.tlb_misses 5 "
       "g hw.issue_cycles 20 g hw.stall_cycles 7"},
      {"stage.telemetry", R"({"evals":3})", "c hw.loads 0"},
      {"tune.start", "{}", "g tune.variants_total 0 g tune.variants_done 0"},
      {"variant.ranked", "{}", "g tune.variants_total 1"},
      {"variant.ranked", "{}", "g tune.variants_total 2"},
      {"variant.pruned", "{}", "g tune.variants_total 1"},
      {"span", R"({"name":"search:v"})", "g tune.variants_done 1"},
      {"span", R"({"name":"rank"})", "g tune.variants_done 1"},
      {"job.submitted", R"({"queue_depth":3})",
       "c serve.submitted 1 g serve.queue_depth 3"},
      {"job.submitted", R"({"queue_depth":0,"rejected":"full"})",
       "c serve.submitted 1 g serve.queue_depth 3"},
      {"job.started", R"({"queue_depth":2})", "g serve.queue_depth 2"},
      {"job.finished", R"({"status":"done","warm_start":"exact"})",
       "c serve.done 1 c serve.warm_exact 1 h serve.wait_ms 1 "
       "h serve.run_ms 1 g serve.queue_depth 2"},
      {"job.finished", R"({"status":"cancelled","queue_depth":0})",
       "c serve.cancelled 1 g serve.queue_depth 0"},
      {"worker.joined", R"({"live":2})", "g serve.workers_live 2"},
      {"worker.lost", R"({"live":1})", "g serve.workers_live 1"},
      {"batch.redispatched", "{}", "c serve.batches_retried 1"},
      {"batch.redispatched", R"({"exhausted":true})",
       "c serve.batches_retried 0"},
      {"cache.loaded", R"({"entries":4,"foreign":3})",
       "c cache.loads 1 c cache.foreign_rejected 3"},
      {"cache.saved", "{}", "c cache.saves 1"},
      {"db.saved", "{}", "c serve.db_saves 1"},
      {"sync.violation", "{}", "c sync.violations 1"},
  };
  obs::MetricsRegistry &Reg = obs::metrics();
  auto read = [&Reg](char Kind, const std::string &Name) {
    return Kind == 'c'   ? static_cast<double>(Reg.counter(Name).value())
           : Kind == 'h' ? static_cast<double>(Reg.histogram(Name).count())
                         : Reg.gauge(Name).value();
  };
  Reg.resetValues();
  EventCapture Cap;
  for (const auto &[Type, Fields, Checks] : Rows) {
    std::map<std::string, double> Before;
    std::istringstream In(Checks);
    char Kind;
    std::string Name;
    for (double Want; In >> Kind >> Name >> Want;)
      Before[Name] = Kind == 'g' ? 0 : read(Kind, Name);
    obs::publishEvent(Type, Json::parse(Fields));
    In = std::istringstream(Checks);
    for (double Want; In >> Kind >> Name >> Want;)
      EXPECT_EQ(read(Kind, Name) - Before[Name], Want) << Type << Fields;
  }
  EXPECT_EQ(Cap.events().size(), Rows.size());
  Reg.resetValues();
}

//===----------------------------------------------------------------------===//
// Span events + the Chrome timeline rendered from the stream
//===----------------------------------------------------------------------===//

TEST(ObsSpan, DisabledScopePublishesNothing) {
  EventCapture Cap;
  obs::setEventsEnabled(false);
  { obs::SpanScope S("ignored", "test"); }
  EXPECT_TRUE(Cap.events().empty());
}

TEST(ObsSpan, ScopePublishesOneSpanEventAtExit) {
  EventCapture Cap;
  {
    obs::SpanScope S("outer", "test", "detail-text");
    { obs::SpanScope Inner("inner", "test"); }
  }
  std::vector<obs::Event> Events = Cap.events();
  ASSERT_EQ(Events.size(), 2u);
  // Inner closes first; outer encloses it on the timeline.
  const Json &In = Events[0].Fields, &Out = Events[1].Fields;
  EXPECT_EQ(Events[0].Type, "span");
  EXPECT_EQ(In.get("name").asString(), "inner");
  EXPECT_EQ(Out.get("name").asString(), "outer");
  EXPECT_EQ(Out.get("cat").asString(), "test");
  EXPECT_EQ(Out.get("detail").asString(), "detail-text");
  EXPECT_LE(Out.get("start_us").asInt(), In.get("start_us").asInt());
  EXPECT_GE(Out.get("start_us").asInt() + Out.get("dur_us").asInt(),
            In.get("start_us").asInt() + In.get("dur_us").asInt());
  // Published at exit: the bus stamp is never before the span's end.
  EXPECT_GE(static_cast<int64_t>(Events[1].TimeUs),
            Out.get("start_us").asInt() + Out.get("dur_us").asInt());
}

TEST(ObsSpan, ChromeTraceShapeAndEscaping) {
  std::string Nasty = "v1\"quoted\"\nname\x02";
  auto event = [](uint64_t TimeUs, const char *Type,
                  std::vector<std::pair<const char *, Json>> Fields) {
    obs::Event E;
    E.TimeUs = TimeUs;
    E.Type = Type;
    E.Fields = Json::object();
    for (auto &[K, V] : Fields)
      E.Fields.set(K, std::move(V));
    return E;
  };
  obs::Event Span =
      event(150, "span", {{"name", Nasty}, {"cat", "search"},
                          {"detail", "TI=16\tTJ=32"}, {"start_us", 100},
                          {"dur_us", 50}});
  obs::Event Eval = event(
      400, "config.evaluated",
      {{"variant", Nasty}, {"stage", "tile0"}, {"config", "TI=8"},
       {"cache_hit", false}, {"ms", 0.25}, {"lane", 3}});
  obs::Event Hit = Eval;
  Hit.Fields.set("cache_hit", true); // hits ran nothing: no slice

  std::string Err;
  Json Root = Json::parse(
      obs::renderChromeTrace({Span, Eval, Hit}).dump(), &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  EXPECT_EQ(Root.get("displayTimeUnit").asString(), "ms");
  const Json &Events = Root.get("traceEvents");
  ASSERT_TRUE(Events.isArray());
  ASSERT_EQ(Events.size(), 4u); // two thread_name rows + two X slices

  const Json &Meta = Events.at(0);
  EXPECT_EQ(Meta.get("ph").asString(), "M");
  EXPECT_EQ(Meta.get("name").asString(), "thread_name");
  EXPECT_EQ(Meta.get("tid").asInt(), 0);
  EXPECT_EQ(Meta.get("args").get("name").asString(), "lane 0 (search)");
  EXPECT_EQ(Events.at(1).get("args").get("name").asString(), "lane 3");

  const Json &Sp = Events.at(2);
  EXPECT_EQ(Sp.get("ph").asString(), "X");
  EXPECT_EQ(Sp.get("name").asString(), Nasty); // survived escaping
  EXPECT_EQ(Sp.get("cat").asString(), "search");
  EXPECT_EQ(Sp.get("pid").asInt(), 0);
  EXPECT_EQ(Sp.get("tid").asInt(), 0);
  EXPECT_EQ(Sp.get("ts").asInt(), 100);
  EXPECT_EQ(Sp.get("dur").asInt(), 50);
  EXPECT_EQ(Sp.get("args").get("detail").asString(), "TI=16\tTJ=32");

  // An evaluation ends at its publication and lasts its backend ms.
  const Json &Ev = Events.at(3);
  EXPECT_EQ(Ev.get("name").asString(), Nasty + "/tile0");
  EXPECT_EQ(Ev.get("cat").asString(), "eval");
  EXPECT_EQ(Ev.get("tid").asInt(), 3);
  EXPECT_EQ(Ev.get("ts").asInt(), 150);
  EXPECT_EQ(Ev.get("dur").asInt(), 250);
  EXPECT_EQ(Ev.get("args").get("detail").asString(), "TI=8");
}

//===----------------------------------------------------------------------===//
// Flight recorder end to end: a real tune's stream must reconcile
//===----------------------------------------------------------------------===//

TEST(ObsFlightRecorder, TuneStreamReconcilesWithTuneResult) {
  // The tune records into an --obs-dir (created here), as eco_cli does.
  obs::metrics().resetValues();
  std::string Dir = ::testing::TempDir() + "eco_obs_dir/run", Err;
  ASSERT_TRUE(obs::openObsDir(Dir, /*Append=*/false, &Err)) << Err;
  LoopNest MM = makeMatMul();
  SimEvalBackend Backend(MachineDesc::sgiR10000().scaledBy(16));
  TuneResult R = tune(MM, Backend, {{"N", 32}});
  ASSERT_TRUE(obs::closeObsDir(Dir));
  obs::setEventsEnabled(false);
  ASSERT_GE(R.BestVariant, 0);

  // metrics.json is folded from the same stream, so it reconciles too.
  const Json Metrics = Json::loadFile(Dir + "/metrics.json");
  const Json &Gauges = Metrics.get("gauges");
  EXPECT_GT(Gauges.get("tune.variants_done").asNumber(), 0);
  EXPECT_EQ(Gauges.get("tune.variants_done").asNumber(),
            Gauges.get("tune.variants_total").asNumber());
  EXPECT_EQ(Metrics.get("counters").get("eval.evaluations").asInt(),
            static_cast<int64_t>(R.TotalPoints));
  EXPECT_EQ(Metrics.get("counters").get("eval.cache_hits").asInt(),
            static_cast<int64_t>(R.TotalCacheHits));
  std::vector<obs::Event> Events;
  ASSERT_TRUE(obs::loadEventsFile(Dir + "/events.jsonl", Events, &Err));

  // tune.done carries the TuneResult ledger verbatim (best_cost bitwise).
  const obs::Event *Done = nullptr;
  for (const obs::Event &E : Events)
    if (E.Type == "tune.done")
      Done = &E;
  ASSERT_NE(Done, nullptr);
  const Json &F = Done->Fields;
  EXPECT_EQ(F.get("points").asInt(), static_cast<int64_t>(R.TotalPoints));
  EXPECT_EQ(F.get("cache_hits").asInt(),
            static_cast<int64_t>(R.TotalCacheHits));
  EXPECT_EQ(F.get("variants_derived").asInt(),
            static_cast<int64_t>(R.Variants.size()));
  EXPECT_EQ(F.get("variants_rejected").asInt(),
            static_cast<int64_t>(R.VariantsRejected));
  EXPECT_EQ(F.get("configs_rejected").asInt(),
            static_cast<int64_t>(R.ConfigsRejected));
  EXPECT_EQ(F.get("infeasible_pruned").asInt(),
            static_cast<int64_t>(R.InfeasiblePruned));
  EXPECT_EQ(F.get("best_variant").asString(), R.best().Spec.Name);
  EXPECT_EQ(F.get("best_cost").asNumber(), R.BestCost);

  // The report's independent recount over the raw events agrees.
  obs::FlightAnalysis A = obs::analyzeEvents(Events);
  ASSERT_EQ(A.Tunes.size(), 1u);
  const obs::TuneReportData &T = A.Tunes[0];
  EXPECT_TRUE(T.reconciled())
      << (T.Mismatches.empty() ? "" : T.Mismatches[0]);
  EXPECT_EQ(T.Evaluated, R.TotalPoints);
  EXPECT_EQ(T.CacheHits, R.TotalCacheHits);
  ASSERT_FALSE(T.Winners.empty());
  EXPECT_EQ(T.Winners.back().Cost, R.BestCost); // bitwise lineage

  // Both renderers accept the analysis; the Markdown report states the
  // reconciliation verdict.
  std::string Md = obs::renderMarkdown(A);
  EXPECT_NE(Md.find("Reconciliation"), std::string::npos);
  EXPECT_NE(Md.find("OK"), std::string::npos);
  EXPECT_NE(obs::renderHtml(A).find("<html"), std::string::npos);

  // And the stream passes the invariant audit against the live result.
  check::EventAuditOptions AO;
  AO.ExpectedBest = R.BestCost;
  check::EventAuditReport Audit = check::auditEvents(Events, AO);
  EXPECT_TRUE(Audit.ok()) << Audit.summary();
  EXPECT_EQ(Audit.Tunes, 1u);
  std::filesystem::remove_all(::testing::TempDir() + "eco_obs_dir");
}

TEST(ObsFlightRecorder, CancelledTunePrunesOnlyByRanking) {
  // A stop inside the first search leaves the other top candidates
  // unsearched, but the models pruned only what ranked below them.
  EventCapture Cap;
  TuneOptions Opts;
  int Calls = 0; // call 1 is the check before the first search
  Opts.Search.ShouldStop = [&Calls] { return ++Calls > 1; };
  SimEvalBackend Backend(MachineDesc::sgiR10000().scaledBy(16));
  TuneResult R = tune(makeMatMul(), Backend, {{"N", 32}}, Opts);
  ASSERT_TRUE(R.Cancelled);
  ASSERT_EQ(std::count_if(R.Summaries.begin(), R.Summaries.end(),
                          [](const VariantSummary &S) { return S.Searched; }),
            1);
  size_t Derived = R.Variants.size();
  size_t Top = std::min<size_t>(Opts.MaxVariantsToSearch, Derived);
  ASSERT_GT(Top, 1u);
  EXPECT_EQ(Cap.count("variant.pruned"), Derived - Top);
  // The progress gauges folded from the stream agree.
  EXPECT_EQ(obs::metrics().gauge("tune.variants_total").value(), Top);
  EXPECT_EQ(obs::metrics().gauge("tune.variants_done").value(), 1.0);
}
