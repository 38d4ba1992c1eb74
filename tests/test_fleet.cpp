//===- tests/test_fleet.cpp - Remote eval-worker fleet tests --------------===//
//
// Covers serve/Fleet.h + serve/Worker.h: the WorkerPool dispatcher's
// wire verbs (hello/poll/result/heartbeat), sharding, bounded retry with
// backoff, heartbeat eviction, straggler re-dispatch with idempotent
// late results, garbage-result strikes, zero-worker degradation, null
// answers for shipped points whose transform is illegal, and —
// end to end — that a tune served by in-process workers (including a
// vanishing one) and by fork/exec'd eco_worker processes with one
// SIGKILLed mid-tune produces a winner bit-identical to a fleetless
// run. Carries the "fleet" ctest label and runs under ThreadSanitizer
// (the fork/exec tests skip there, the in-process ones do not).
//
//===----------------------------------------------------------------------===//

#include "core/DeriveVariants.h"
#include "engine/Engine.h"
#include "engine/EvalCache.h"
#include "obs/Event.h"
#include "serve/Client.h"
#include "serve/Fleet.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Worker.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#if defined(__SANITIZE_THREAD__)
#define ECO_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ECO_UNDER_TSAN 1
#endif
#endif

using namespace eco;
using namespace eco::serve;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

/// Synthetic remote points with distinct keys; the unit tests never
/// evaluate them, they only track which costs land in the cache.
std::vector<RemotePoint> somePoints(size_t Count) {
  std::vector<RemotePoint> Points(Count);
  for (size_t I = 0; I < Count; ++I) {
    Points[I].Variant = "v1";
    Points[I].Config = {{"N", 32}, {"TI", static_cast<int64_t>(8 << I)}};
    Points[I].Key = EvalKey{0xAAAAULL, 0xBBBBULL, I + 1};
  }
  return Points;
}

BatchContext someContext() {
  BatchContext Ctx;
  Ctx.Kernel = "matmul";
  Ctx.Machine = "sgi";
  Ctx.Scale = 4;
  Ctx.RepSize = 32;
  return Ctx;
}

uint64_t helloWorker(WorkerPool &Pool, const std::string &Name) {
  Json Req = Json::object();
  Req.set("name", Name);
  Json Resp = Pool.hello(Req);
  EXPECT_TRUE(Resp.get("ok").asBool(false));
  return static_cast<uint64_t>(Resp.get("worker_id").asInt());
}

/// Polls as \p WorkerId until a batch arrives (or ~3 s pass); returns
/// the batch object (null Json on timeout).
Json pollForBatch(WorkerPool &Pool, uint64_t WorkerId) {
  Json Req = Json::object();
  Req.set("worker_id", WorkerId);
  Req.set("wait_ms", static_cast<int64_t>(200));
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (std::chrono::steady_clock::now() < Deadline) {
    Json Resp = Pool.poll(Req);
    if (!Resp.get("ok").asBool(false))
      return Json(); // evicted
    if (Resp.has("batch"))
      return Resp.get("batch");
  }
  return Json();
}

Json sendCosts(WorkerPool &Pool, uint64_t WorkerId, const Json &Batch,
               const std::vector<Json> &Costs) {
  Json Req = Json::object();
  Req.set("worker_id", WorkerId);
  Req.set("batch_id", Batch.get("id").asInt());
  Json Arr = Json::array();
  for (const Json &C : Costs)
    Arr.push(C);
  Req.set("costs", std::move(Arr));
  return Pool.result(Req);
}

/// The spec both end-to-end tests tune: small enough to be cheap, big
/// enough that several warm batches dispatch.
JobSpec fleetSpec(int64_t N = 48) {
  JobSpec Spec;
  Spec.Kernel = "matmul";
  Spec.Machine = "sgi";
  Spec.Scale = 4;
  Spec.N = N;
  Spec.ForceRetune = true;
  return Spec;
}

} // namespace

// ---- WorkerPool wire verbs ----------------------------------------------

TEST(WorkerPoolTest, HelloPollResultCompletesABatch) {
  FleetOptions FO;
  FO.BackoffBaseMs = 5;
  WorkerPool Pool(FO);
  uint64_t Wid = helloWorker(Pool, "w1");
  EXPECT_EQ(Pool.liveWorkers(), 1u);

  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(3);
  std::thread Evaluator(
      [&] { Pool.evalBatch(someContext(), Points, "stage", Cache); });

  // One worker -> all three points in one batch, payload intact.
  Json Batch = pollForBatch(Pool, Wid);
  ASSERT_TRUE(Batch.isObject());
  EXPECT_EQ(Batch.get("kernel").asString(), "matmul");
  EXPECT_EQ(Batch.get("machine").asString(), "sgi");
  EXPECT_EQ(Batch.get("scale").asInt(), 4);
  EXPECT_EQ(Batch.get("rep_n").asInt(), 32);
  EXPECT_EQ(Batch.get("stage").asString(), "stage");
  ASSERT_EQ(Batch.get("points").size(), 3u);
  EXPECT_EQ(Batch.get("points").at(0).get("variant").asString(), "v1");
  EXPECT_EQ(Batch.get("points").at(1).get("config").get("TI").asInt(), 16);

  // A null cost slot means "worker could not evaluate": no insert.
  Json Resp = sendCosts(Pool, Wid, Batch, {Json(101.5), Json(), Json(103.25)});
  EXPECT_TRUE(Resp.get("ok").asBool(false));
  Evaluator.join();

  EXPECT_EQ(Cache.lookup(Points[0].Key).value_or(-1), 101.5);
  EXPECT_FALSE(Cache.lookup(Points[1].Key).has_value());
  EXPECT_EQ(Cache.lookup(Points[2].Key).value_or(-1), 103.25);

  // A duplicate completion for the resolved batch is acknowledged stale.
  Json Dup = sendCosts(Pool, Wid, Batch, {Json(101.5), Json(), Json(103.25)});
  EXPECT_TRUE(Dup.get("ok").asBool(false));
  EXPECT_TRUE(Dup.get("stale").asBool(false));

  Json Stats = Pool.statsJson();
  EXPECT_EQ(Stats.get("workers_live").asInt(), 1);
  EXPECT_EQ(Stats.get("batches_dispatched").asInt(), 1);
  EXPECT_EQ(Stats.get("batches_completed").asInt(), 1);
  EXPECT_EQ(Stats.get("batches_outstanding").asInt(), 0);
}

TEST(WorkerPoolTest, ShardsAcrossWorkersAndRejectsUnknownIds) {
  WorkerPool Pool;
  uint64_t W1 = helloWorker(Pool, "a");
  uint64_t W2 = helloWorker(Pool, "b");
  EXPECT_EQ(Pool.liveWorkers(), 2u);

  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(5);
  std::thread Evaluator(
      [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });

  // Two workers -> two contiguous shards covering all five points.
  Json B1 = pollForBatch(Pool, W1);
  Json B2 = pollForBatch(Pool, W2);
  ASSERT_TRUE(B1.isObject());
  ASSERT_TRUE(B2.isObject());
  size_t N1 = B1.get("points").size(), N2 = B2.get("points").size();
  EXPECT_EQ(N1 + N2, 5u);
  EXPECT_GE(N1, 2u);
  EXPECT_GE(N2, 2u);

  std::vector<Json> C1(N1), C2(N2);
  for (size_t I = 0; I < N1; ++I)
    C1[I] = Json(static_cast<double>(I) + 1.5);
  for (size_t I = 0; I < N2; ++I)
    C2[I] = Json(static_cast<double>(I) + 100.5);
  EXPECT_TRUE(sendCosts(Pool, W1, B1, C1).get("ok").asBool(false));
  EXPECT_TRUE(sendCosts(Pool, W2, B2, C2).get("ok").asBool(false));
  Evaluator.join();
  for (const RemotePoint &P : Points)
    EXPECT_TRUE(Cache.lookup(P.Key).has_value());

  // Verbs from an unregistered id answer an explicit error, so an
  // evicted worker knows to re-hello.
  Json Bogus = Json::object();
  Bogus.set("worker_id", static_cast<int64_t>(999));
  Bogus.set("wait_ms", static_cast<int64_t>(0));
  EXPECT_FALSE(Pool.poll(Bogus).get("ok").asBool(true));
  EXPECT_FALSE(Pool.heartbeat(Bogus).get("ok").asBool(true));
}

TEST(WorkerPoolTest, NoWorkersMeansImmediateLocalFallback) {
  WorkerPool Pool;
  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(4);
  auto T0 = std::chrono::steady_clock::now();
  Pool.evalBatch(someContext(), Points, "warm", Cache);
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  EXPECT_LT(Ms, 1000) << "empty fleet must not block the tune";
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Pool.statsJson().get("batches_dispatched").asInt(), 0);
}

TEST(WorkerPoolTest, DisconnectedWorkerBatchRedispatchesWithBackoff) {
  FleetOptions FO;
  FO.BackoffBaseMs = 5;
  FO.BackoffMaxMs = 20;
  WorkerPool Pool(FO);
  uint64_t W1 = helloWorker(Pool, "doomed");
  uint64_t W2 = helloWorker(Pool, "survivor");

  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(1);
  std::thread Evaluator(
      [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });

  // W1 takes the batch and dies (connection closed = SIGKILL path).
  Json B = pollForBatch(Pool, W1);
  ASSERT_TRUE(B.isObject());
  Pool.disconnected(W1);
  EXPECT_EQ(Pool.liveWorkers(), 1u);

  // The batch re-queues (after backoff) and W2 completes it.
  Json B2 = pollForBatch(Pool, W2);
  ASSERT_TRUE(B2.isObject());
  EXPECT_EQ(B2.get("id").asInt(), B.get("id").asInt());
  EXPECT_TRUE(sendCosts(Pool, W2, B2, {Json(7.0)}).get("ok").asBool(false));
  Evaluator.join();

  EXPECT_EQ(Cache.lookup(Points[0].Key).value_or(-1), 7.0);
  Json Stats = Pool.statsJson();
  EXPECT_EQ(Stats.get("lost").asInt(), 1);
  EXPECT_GE(Stats.get("batches_retried").asInt(), 1);
  EXPECT_EQ(Stats.get("batches_completed").asInt(), 1);
}

TEST(WorkerPoolTest, SilentWorkerIsEvictedByHeartbeatTimeout) {
  FleetOptions FO;
  FO.HeartbeatTimeoutMs = 150;
  FO.BackoffBaseMs = 5;
  WorkerPool Pool(FO);
  uint64_t Frozen = helloWorker(Pool, "frozen");
  uint64_t Live = helloWorker(Pool, "live");

  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(1);
  std::thread Evaluator(
      [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });

  // The frozen worker takes the batch and never speaks again; the
  // reaper (driven by evalBatch's wait laps) must evict it and hand the
  // batch to the live worker.
  ASSERT_TRUE(pollForBatch(Pool, Frozen).isObject());
  Json B = pollForBatch(Pool, Live);
  ASSERT_TRUE(B.isObject());
  EXPECT_TRUE(sendCosts(Pool, Live, B, {Json(9.5)}).get("ok").asBool(false));
  Evaluator.join();

  EXPECT_EQ(Cache.lookup(Points[0].Key).value_or(-1), 9.5);
  EXPECT_EQ(Pool.liveWorkers(), 1u);
  Json Stats = Pool.statsJson();
  EXPECT_EQ(Stats.get("lost").asInt(), 1);
  EXPECT_GE(Stats.get("batches_retried").asInt(), 1);
}

TEST(WorkerPoolTest, StragglerRedispatchesAndLateResultIsStale) {
  FleetOptions FO;
  FO.BatchTimeoutMs = 100; // straggle fast
  FO.BackoffBaseMs = 5;
  WorkerPool Pool(FO);
  uint64_t Slow = helloWorker(Pool, "slow");
  uint64_t Fast = helloWorker(Pool, "fast");

  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(1);
  std::thread Evaluator(
      [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });

  // The slow worker holds the batch past its deadline (still polling
  // later keeps it alive — slow, not dead).
  Json BSlow = pollForBatch(Pool, Slow);
  ASSERT_TRUE(BSlow.isObject());
  Json BFast = pollForBatch(Pool, Fast);
  ASSERT_TRUE(BFast.isObject());
  EXPECT_EQ(BFast.get("id").asInt(), BSlow.get("id").asInt());
  EXPECT_TRUE(
      sendCosts(Pool, Fast, BFast, {Json(3.5)}).get("ok").asBool(false));
  Evaluator.join();

  // The straggler's late duplicate is acknowledged, not re-inserted as
  // a new batch — and the cached cost is whatever the (deterministic)
  // evaluation produced, identical from either worker.
  Json Late = sendCosts(Pool, Slow, BSlow, {Json(3.5)});
  EXPECT_TRUE(Late.get("ok").asBool(false));
  EXPECT_TRUE(Late.get("stale").asBool(false));
  EXPECT_EQ(Cache.lookup(Points[0].Key).value_or(-1), 3.5);
  EXPECT_EQ(Pool.liveWorkers(), 2u) << "a straggler is slow, not dead";
  EXPECT_GE(Pool.statsJson().get("batches_retried").asInt(), 1);
}

TEST(WorkerPoolTest, GarbageResultsStrikeThenEvict) {
  FleetOptions FO;
  FO.MaxStrikes = 2;
  FO.MaxAttempts = 5;
  FO.BackoffBaseMs = 5;
  WorkerPool Pool(FO);
  uint64_t Liar = helloWorker(Pool, "liar");

  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(2);
  std::thread Evaluator(
      [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });

  // Strike 1: wrong arity. Strike 2: non-numeric cost -> evicted; the
  // fleet is now empty, so the group fails out to local fallback.
  Json B1 = pollForBatch(Pool, Liar);
  ASSERT_TRUE(B1.isObject());
  Json R1 = sendCosts(Pool, Liar, B1, {Json(1.0)});
  EXPECT_FALSE(R1.get("ok").asBool(true));
  EXPECT_EQ(R1.get("error").asString(), "malformed result");

  Json B2 = pollForBatch(Pool, Liar);
  ASSERT_TRUE(B2.isObject());
  Json R2 = sendCosts(Pool, Liar, B2, {Json("not-a-cost"), Json(2.0)});
  EXPECT_FALSE(R2.get("ok").asBool(true));
  Evaluator.join();

  EXPECT_EQ(Pool.liveWorkers(), 0u);
  EXPECT_EQ(Cache.size(), 0u) << "garbage must never reach the cache";
  Json Stats = Pool.statsJson();
  EXPECT_EQ(Stats.get("lost").asInt(), 1);
  EXPECT_EQ(Stats.get("batches_outstanding").asInt(), 0);
}

// Regression: a garbage result that simultaneously exhausts the batch's
// attempts AND the worker's strikes used to evict first — the eviction
// sweep re-queued (and, attempts spent, erased) the batch, and the
// handler then touched the freed Batch. Must resolve cleanly: worker
// evicted, batch failed out exactly once, nothing double-counted.
TEST(WorkerPoolTest, GarbageOnLastAttemptFromLastStrikeWorkerIsSafe) {
  FleetOptions FO;
  FO.MaxStrikes = 1;
  FO.MaxAttempts = 1;
  FO.BackoffBaseMs = 5;
  WorkerPool Pool(FO);
  uint64_t Liar = helloWorker(Pool, "liar");

  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(1);
  std::thread Evaluator(
      [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });

  Json B = pollForBatch(Pool, Liar);
  ASSERT_TRUE(B.isObject());
  Json R = sendCosts(Pool, Liar, B, {Json("not-a-cost")});
  EXPECT_FALSE(R.get("ok").asBool(true));
  EXPECT_EQ(R.get("error").asString(), "malformed result");
  Evaluator.join();

  EXPECT_EQ(Pool.liveWorkers(), 0u);
  EXPECT_EQ(Cache.size(), 0u);
  Json Stats = Pool.statsJson();
  EXPECT_EQ(Stats.get("lost").asInt(), 1);
  EXPECT_EQ(Stats.get("batches_retried").asInt(), 0)
      << "attempts exhausted: the batch fails out, it is not retried";
  EXPECT_EQ(Stats.get("batches_failed").asInt(), 1);
  EXPECT_EQ(Stats.get("batches_outstanding").asInt(), 0);
}

// Regression: when a garbage result evicts its sender while the batch
// still has attempts left, the batch must be re-queued exactly once —
// not once by the handler and again by the eviction sweep.
TEST(WorkerPoolTest, GarbageEvictionDoesNotDoubleRetry) {
  FleetOptions FO;
  FO.MaxStrikes = 1;
  FO.MaxAttempts = 5;
  FO.BackoffBaseMs = 5;
  WorkerPool Pool(FO);
  uint64_t Liar = helloWorker(Pool, "liar");

  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(1);
  std::thread Evaluator(
      [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });

  Json B = pollForBatch(Pool, Liar);
  ASSERT_TRUE(B.isObject());
  EXPECT_FALSE(
      sendCosts(Pool, Liar, B, {Json("junk")}).get("ok").asBool(true));
  Evaluator.join(); // fleet now empty -> group fails out to local

  Json Stats = Pool.statsJson();
  EXPECT_EQ(Stats.get("lost").asInt(), 1);
  EXPECT_EQ(Stats.get("batches_retried").asInt(), 1)
      << "one failure, one retry — handler and eviction sweep must not "
         "both re-queue";
  EXPECT_EQ(Stats.get("batches_outstanding").asInt(), 0);
}

// Regression: a superseded worker's garbage result (its batch already
// straggled and was re-dispatched to a healthy worker) must only strike
// the sender — not yank the batch back to Queued out from under the
// healthy worker computing it.
TEST(WorkerPoolTest, SupersededGarbageResultDoesNotRequeue) {
  FleetOptions FO;
  FO.BatchTimeoutMs = 100; // straggle fast
  FO.MaxStrikes = 2;
  FO.BackoffBaseMs = 5;
  WorkerPool Pool(FO);
  uint64_t Slow = helloWorker(Pool, "slow");
  uint64_t Fast = helloWorker(Pool, "fast");

  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(1);
  std::thread Evaluator(
      [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });

  Json BSlow = pollForBatch(Pool, Slow);
  ASSERT_TRUE(BSlow.isObject());
  Json BFast = pollForBatch(Pool, Fast); // straggler re-dispatch
  ASSERT_TRUE(BFast.isObject());
  EXPECT_EQ(BFast.get("id").asInt(), BSlow.get("id").asInt());

  // The superseded slow worker reports garbage: strike it, but leave
  // the batch in flight on the fast worker.
  Json R = sendCosts(Pool, Slow, BSlow, {Json("junk")});
  EXPECT_FALSE(R.get("ok").asBool(true));
  EXPECT_EQ(Pool.statsJson().get("batches_retried").asInt(), 1)
      << "only the straggler re-dispatch counts, not the stale garbage";

  EXPECT_TRUE(
      sendCosts(Pool, Fast, BFast, {Json(7.5)}).get("ok").asBool(false));
  Evaluator.join();

  EXPECT_EQ(Cache.lookup(Points[0].Key).value_or(-1), 7.5);
  EXPECT_EQ(Pool.liveWorkers(), 2u) << "one strike is not an eviction";
  EXPECT_EQ(Pool.statsJson().get("lost").asInt(), 0);
}

// Strikes measure consecutive misbehavior: a structurally valid result
// resets the count, so an honest-but-occasionally-glitchy worker is not
// evicted for two malformed reports spread across its whole lifetime.
TEST(WorkerPoolTest, ValidResultResetsStrikes) {
  FleetOptions FO;
  FO.MaxStrikes = 2;
  FO.MaxAttempts = 10;
  FO.BackoffBaseMs = 5;
  WorkerPool Pool(FO);
  uint64_t Wid = helloWorker(Pool, "glitchy");

  EvalCache Cache;
  for (int Round = 0; Round < 2; ++Round) {
    std::vector<RemotePoint> Points = somePoints(1);
    Points[0].Key.EnvHash = 100 + Round; // distinct cache entries
    std::thread Evaluator(
        [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });
    // Garbage (strike), then the re-queued batch succeeds (reset).
    // Without the reset, round 1's garbage would be strike 2 -> evict.
    Json B = pollForBatch(Pool, Wid);
    ASSERT_TRUE(B.isObject());
    EXPECT_FALSE(
        sendCosts(Pool, Wid, B, {Json("junk")}).get("ok").asBool(true));
    Json B2 = pollForBatch(Pool, Wid);
    ASSERT_TRUE(B2.isObject()) << "round " << Round << ": still live";
    EXPECT_TRUE(
        sendCosts(Pool, Wid, B2, {Json(1.5)}).get("ok").asBool(false));
    Evaluator.join();
  }

  EXPECT_EQ(Pool.liveWorkers(), 1u)
      << "a valid result between strikes must reset the count";
  EXPECT_EQ(Pool.statsJson().get("lost").asInt(), 0);
  EXPECT_EQ(Cache.size(), 2u);
}

TEST(WorkerPoolTest, ShutdownFailsOutstandingBatchesPromptly) {
  WorkerPool Pool;
  helloWorker(Pool, "idle");
  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(2);
  std::thread Evaluator(
      [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  Pool.shutdown();
  Evaluator.join(); // must not hang
  EXPECT_EQ(Cache.size(), 0u);
  // After shutdown, dispatch is a no-op.
  Pool.evalBatch(someContext(), Points, "warm", Cache);
  EXPECT_EQ(Pool.statsJson().get("batches_outstanding").asInt(), 0);
}

// ---- End to end: in-process workers over the real socket protocol -------

TEST(FleetEndToEndTest, InProcessWorkersMatchFleetlessTuneBitExactly) {
  JobSpec Spec = fleetSpec();

  // Baseline: the same tune with no fleet registered.
  JobResult Local;
  {
    TuneService Baseline;
    Local = Baseline.run(Spec);
    Baseline.drain();
  }
  ASSERT_TRUE(Local.ok()) << Local.Error;

  std::string Sock = tempPath("eco_fleet_e2e.sock");
  std::remove(Sock.c_str());
  TuneService Service;
  ServerOptions SOpts;
  SOpts.UnixPath = Sock;
  Server Srv(Service, SOpts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  // Two workers: one honest, one that vanishes (drops its connection
  // with a batch unacknowledged) as soon as it receives work.
  std::atomic<bool> Stop{false};
  WorkerOptions Honest;
  Honest.Socket = Sock;
  Honest.Name = "honest";
  Honest.PollWaitMs = 100;
  Honest.TimeoutMs = 5000;
  Honest.Stop = &Stop;
  WorkerOptions Vanishing = Honest;
  Vanishing.Name = "vanishing";
  Vanishing.Chaos = "vanish";
  std::thread T1([&] { runWorker(Honest); });
  std::thread T2([&] { runWorker(Vanishing); });
  for (int Tries = 0; Tries < 500 && Service.workers().liveWorkers() < 2;
       ++Tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(Service.workers().liveWorkers(), 2u);

  JobResult Remote = Service.run(Spec);
  ASSERT_TRUE(Remote.ok()) << Remote.Error;

  // The acceptance bar: worker deaths must not perturb the winner.
  EXPECT_EQ(Remote.Cost, Local.Cost);
  EXPECT_EQ(Remote.Variant, Local.Variant);
  EXPECT_EQ(Remote.Config, Local.Config);

  Json Stats = Service.workers().statsJson();
  EXPECT_GE(Stats.get("batches_dispatched").asInt(), 1);
  EXPECT_GE(Stats.get("batches_completed").asInt(), 1);

  Stop.store(true);
  T1.join();
  T2.join();
  Srv.stop();
  Service.drain();
  std::remove(Sock.c_str());
}

TEST(FleetEndToEndTest, IllegalPointReturnsNullWithoutStrikeAndRejectsOnce) {
  // Cache keys need no instantiation, so the daemon ships points without
  // checking that their transforms are legal. The worker must answer
  // null for an illegal one (no strike), and the local decision loop
  // must record the rejection exactly once.
  std::string Sock = tempPath("eco_fleet_illegal.sock");
  std::remove(Sock.c_str());
  ServiceOptions Opts;
  Opts.Fleet.MaxStrikes = 1; // a single strike would evict the worker
  TuneService Service(Opts);
  ServerOptions SOpts;
  SOpts.UnixPath = Sock;
  Server Srv(Service, SOpts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  std::atomic<bool> Stop{false};
  WorkerOptions Honest;
  Honest.Socket = Sock;
  Honest.Name = "honest";
  Honest.PollWaitMs = 100;
  Honest.TimeoutMs = 5000;
  Honest.Stop = &Stop;
  std::thread T([&] { runWorker(Honest); });
  for (int Tries = 0; Tries < 500 && Service.workers().liveWorkers() < 1;
       ++Tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(Service.workers().liveWorkers(), 1u);

  // Derive exactly as the worker does for this context.
  BatchContext Ctx = someContext();
  LoopNest Nest;
  MachineDesc Machine;
  ASSERT_TRUE(buildKernel(Ctx.Kernel, Nest));
  ASSERT_TRUE(buildMachine(Ctx.Machine, Ctx.Scale, Machine));
  DeriveOptions D;
  D.setRepresentativeSize(Ctx.RepSize);
  std::vector<DerivedVariant> Variants = deriveVariants(Nest, Machine, D);
  const DerivedVariant &V = Variants.front();
  ASSERT_FALSE(V.Prefetch.empty());
  Env Legal = initialConfig(V, Machine, {{"N", Ctx.RepSize}});
  Env Illegal = Legal;
  // No int holds this distance, so instantiate() rejects it on both sides.
  Illegal.set(V.Prefetch.front().DistanceParam, int64_t(1) << 40);

  auto Cache = std::make_shared<EvalCache>();
  size_t Shipped = 0;
  EngineOptions EOpts;
  EOpts.SharedCache = Cache;
  EOpts.RemoteWarm = [&](const std::vector<RemotePoint> &Points,
                         const std::string &Stage) {
    Shipped += Points.size();
    Service.workers().evalBatch(Ctx, Points, Stage, *Cache);
  };
  SimEvalBackend Backend(Machine);
  EvalEngine Engine(Backend, EOpts);

  obs::EventBus::global().clear();
  obs::setEventsEnabled(true);
  Engine.warmMany({{&V, Legal}, {&V, Illegal}}, "warm");
  EXPECT_EQ(Shipped, 2u);
  EXPECT_EQ(Engine.instantiations(), 0u);
  EXPECT_EQ(Engine.stats().Rejected, 0u) << "export must not account";

  EvalOutcome L = Engine.evaluate(V, Legal, "warm");
  EvalOutcome I = Engine.evaluate(V, Illegal, "warm");
  obs::setEventsEnabled(false);
  EXPECT_TRUE(L.CacheHit) << "the worker's cost for the legal point";
  EXPECT_FALSE(I.CacheHit);
  EXPECT_TRUE(std::isinf(I.Cost));
  EXPECT_EQ(Engine.stats().Evaluations, 0u);
  EXPECT_EQ(Engine.stats().Rejected, 1u);
  EXPECT_EQ(obs::EventBus::global().typeCount("config.rejected"), 1u);
  obs::EventBus::global().clear();

  Json Stats = Service.workers().statsJson();
  EXPECT_EQ(Stats.get("workers_live").asInt(), 1);
  EXPECT_EQ(Stats.get("lost").asInt(), 0);
  EXPECT_EQ(Stats.get("batches_retried").asInt(), 0);
  EXPECT_EQ(Stats.get("batches_failed").asInt(), 0);
  EXPECT_EQ(Stats.get("batches_completed").asInt(), 1);

  Stop.store(true);
  T.join();
  Srv.stop();
  Service.drain();
  std::remove(Sock.c_str());
}

TEST(FleetEndToEndTest, FrozenWorkerIsEvictedAndTuneStillCompletes) {
  std::string Sock = tempPath("eco_fleet_freeze.sock");
  std::remove(Sock.c_str());
  ServiceOptions Opts;
  Opts.Fleet.HeartbeatTimeoutMs = 300; // evict the frozen worker fast
  Opts.Fleet.BatchTimeoutMs = 1000;
  TuneService Service(Opts);
  ServerOptions SOpts;
  SOpts.UnixPath = Sock;
  Server Srv(Service, SOpts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  std::atomic<bool> Stop{false};
  WorkerOptions Honest;
  Honest.Socket = Sock;
  Honest.Name = "honest";
  Honest.PollWaitMs = 100;
  Honest.TimeoutMs = 5000;
  Honest.Stop = &Stop;
  WorkerOptions Freezing = Honest;
  Freezing.Name = "freezing";
  Freezing.Chaos = "freeze";
  std::thread T1([&] { runWorker(Honest); });
  std::thread T2([&] { runWorker(Freezing); });
  for (int Tries = 0; Tries < 500 && Service.workers().liveWorkers() < 2;
       ++Tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(Service.workers().liveWorkers(), 2u);

  JobResult R = Service.run(fleetSpec());
  EXPECT_TRUE(R.ok()) << R.Error;
  EXPECT_GT(R.Cost, 0);

  Stop.store(true);
  T1.join();
  T2.join();
  Srv.stop();
  Service.drain();
  std::remove(Sock.c_str());
}

// ---- Acceptance: fork/exec eco_worker fleet, SIGKILL one mid-tune -------

TEST(FleetKillTest, SigkilledWorkerMidTuneWinnerStaysBitIdentical) {
#ifdef ECO_UNDER_TSAN
  GTEST_SKIP() << "fork/exec of eco_worker is not meaningful under TSan";
#else
  char Exe[4096];
  ssize_t Len = ::readlink("/proc/self/exe", Exe, sizeof(Exe) - 1);
  ASSERT_GT(Len, 0);
  Exe[Len] = '\0';
  std::string WorkerBin(Exe);
  WorkerBin = WorkerBin.substr(0, WorkerBin.find_last_of('/'));
  WorkerBin = WorkerBin.substr(0, WorkerBin.find_last_of('/'));
  WorkerBin += "/examples/eco_worker";
  if (::access(WorkerBin.c_str(), X_OK) != 0)
    GTEST_SKIP() << "eco_worker not built at " << WorkerBin;

  JobSpec Spec = fleetSpec(64);
  Spec.DeadlineMs = 120000;

  JobResult Local;
  {
    TuneService Baseline;
    Local = Baseline.run(Spec);
    Baseline.drain();
  }
  ASSERT_TRUE(Local.ok()) << Local.Error;

  std::string Sock = tempPath("eco_fleet_kill.sock");
  std::remove(Sock.c_str());
  TuneService Service;
  ServerOptions SOpts;
  SOpts.UnixPath = Sock;
  Server Srv(Service, SOpts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  auto spawnWorker = [&](const char *Name) -> pid_t {
    pid_t Pid = ::fork();
    if (Pid == 0) {
      std::string SockArg = "--socket=" + Sock;
      std::string NameArg = std::string("--name=") + Name;
      ::execl(WorkerBin.c_str(), "eco_worker", SockArg.c_str(),
              NameArg.c_str(), "--poll-ms=100", "--timeout-ms=5000",
              static_cast<char *>(nullptr));
      ::_exit(127);
    }
    return Pid;
  };
  pid_t Victim = spawnWorker("victim");
  pid_t Survivor = spawnWorker("survivor");
  ASSERT_GT(Victim, 0);
  ASSERT_GT(Survivor, 0);
  for (int Tries = 0; Tries < 600 && Service.workers().liveWorkers() < 2;
       ++Tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(Service.workers().liveWorkers(), 2u)
      << "workers never registered";

  // Submit, wait for the first batch to be in flight, then SIGKILL one
  // worker mid-tune. The dispatcher must notice (connection close or
  // heartbeat lapse), re-dispatch, and the job must still resolve.
  std::shared_ptr<ServeJob> Job = Service.submit(Spec);
  for (int Tries = 0; Tries < 1000 && !Job->done(); ++Tries) {
    if (Service.workers().statsJson().get("batches_dispatched").asInt() >= 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(::kill(Victim, SIGKILL), 0);

  JobResult Remote = Job->wait();
  ASSERT_TRUE(Remote.ok()) << Remote.Error;
  EXPECT_EQ(Remote.Status, "done");
  EXPECT_EQ(Remote.Cost, Local.Cost);
  EXPECT_EQ(Remote.Variant, Local.Variant);
  EXPECT_EQ(Remote.Config, Local.Config);

  Json Stats = Service.workers().statsJson();
  EXPECT_GE(Stats.get("joined").asInt(), 2);
  EXPECT_GE(Stats.get("batches_completed").asInt(), 1);

  ::kill(Survivor, SIGKILL);
  int Status = 0;
  ASSERT_EQ(::waitpid(Victim, &Status, 0), Victim);
  ASSERT_EQ(::waitpid(Survivor, &Status, 0), Survivor);
  Srv.stop();
  Service.drain();
  std::remove(Sock.c_str());
#endif
}
