//===- tests/test_fleet.cpp - Remote eval-worker fleet tests --------------===//
//
// Covers serve/Fleet.h + serve/Worker.h: the WorkerPool dispatcher's
// three wire verbs (hello/poll/result), sharding, zero-worker
// degradation, concurrent calls each waiting for their own batches,
// and its one failure rule — a batch is dispatched once,
// and a failure is costed at home — as one table over the six failure
// paths (disconnect, heartbeat timeout, missed deadline, malformed
// result, empty fleet, shutdown) with stale late results. At the
// Server: identity and liveness are the connection, so a second
// connection naming a worker's id can neither take nor answer its
// batch, a connection registers once, and a batch holder that only
// pings stays live. Then null answers
// for shipped points whose transform is illegal; and — end to end —
// that a tune served by an honest in-process worker beside a vanishing,
// a freezing or a garbage-reporting one (the fleet chaos table), and by
// fork/exec'd eco_worker processes with one SIGKILLed mid-tune, produces
// a winner bit-identical to a fleetless run. Carries the "fleet" ctest label and runs under ThreadSanitizer
// (the fork/exec tests skip there, the in-process ones do not).
//
//===----------------------------------------------------------------------===//

#include "EventCapture.h"

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
#include <cstring>
#include <functional>
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
/// the batch object (null Json on timeout). Like every helper line here
/// it is first seen(), as the Server does for each line of a worker.
Json pollForBatch(WorkerPool &Pool, uint64_t WorkerId) {
  Json Req = Json::object();
  Req.set("wait_ms", static_cast<int64_t>(200));
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(3);
  while (std::chrono::steady_clock::now() < Deadline) {
    Pool.seen(WorkerId);
    Json Resp = Pool.poll(WorkerId, Req);
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
  Req.set("batch_id", Batch.get("id").asInt());
  Json Arr = Json::array();
  for (const Json &C : Costs)
    Arr.push(C);
  Req.set("costs", std::move(Arr));
  Pool.seen(WorkerId);
  return Pool.result(WorkerId, Req);
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
  WorkerPool Pool;
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
  // evicted worker knows to reconnect.
  Json Bogus = Json::object();
  Bogus.set("wait_ms", static_cast<int64_t>(0));
  EXPECT_FALSE(Pool.poll(999, Bogus).get("ok").asBool(true));
  EXPECT_FALSE(Pool.result(999, Bogus).get("ok").asBool(true));
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

// Two evalBatch calls in flight at once, on two threads: each returns
// once its own batch resolves, never on the other's. The answered call
// returns while the other's batch is still in flight; the held batch
// then misses its deadline, and only the answered points are cached.
TEST(WorkerPoolTest, ConcurrentCallsEachWaitForTheirOwnBatches) {
  WorkerPool Pool({.BatchTimeoutMs = 1000});
  uint64_t Wid = helloWorker(Pool, "w");
  EvalCache Cache;
  std::vector<RemotePoint> Held = somePoints(2), Answered = somePoints(2);
  for (RemotePoint &P : Answered)
    P.Key.EnvHash += 100;
  auto outstanding = [&Pool] {
    return Pool.statsJson().get("batches_outstanding").asInt();
  };
  auto awaitOutstanding = [&](int64_t N) {
    for (int I = 0; I < 300 && outstanding() != N; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(outstanding(), N);
  };

  // The held call dispatches first, so its batch has the lower id and
  // the worker's first poll takes it.
  std::atomic<bool> HeldDone{false}, AnsweredDone{false};
  std::thread HeldCall([&] {
    Pool.evalBatch(someContext(), Held, "held", Cache);
    HeldDone = true;
  });
  awaitOutstanding(1);
  std::thread AnsweredCall([&] {
    Pool.evalBatch(someContext(), Answered, "answered", Cache);
    AnsweredDone = true;
  });
  awaitOutstanding(2);

  Json HeldBatch = pollForBatch(Pool, Wid);
  Json AnsweredBatch = pollForBatch(Pool, Wid);
  ASSERT_EQ(HeldBatch.get("stage").asString(), "held");
  ASSERT_EQ(AnsweredBatch.get("stage").asString(), "answered");
  EXPECT_FALSE(AnsweredDone) << "returned before its batch resolved";

  EXPECT_TRUE(sendCosts(Pool, Wid, AnsweredBatch, {Json(7.5), Json(8.5)})
                  .get("ok")
                  .asBool(false));
  AnsweredCall.join();
  EXPECT_FALSE(HeldDone) << "returned on another call's batch";
  EXPECT_EQ(outstanding(), 1);

  HeldCall.join(); // returns once the held batch misses its deadline
  for (const RemotePoint &P : Answered)
    EXPECT_TRUE(Cache.lookup(P.Key).has_value());
  for (const RemotePoint &P : Held)
    EXPECT_FALSE(Cache.lookup(P.Key).has_value());
  Json Stats = Pool.statsJson();
  EXPECT_EQ(Stats.get("batches_dispatched").asInt(), 2);
  EXPECT_EQ(Stats.get("batches_completed").asInt(), 1);
  EXPECT_EQ(Stats.get("batches_failed").asInt(), 1);
  EXPECT_EQ(Stats.get("batches_outstanding").asInt(), 0);
  EXPECT_EQ(Pool.liveWorkers(), 1u) << "a missed deadline evicts nothing";
}

// ---- The one failure rule ------------------------------------------------

namespace {

/// One way a batch can fail.
struct FailureRow {
  const char *Name;
  FleetOptions Opts;
  /// The worker takes the batch before the failure (false: it stays
  /// queued).
  bool Dispatch;
  /// Breaks the batch: \p Batch is what the worker took (null if none).
  std::function<void(WorkerPool &, uint64_t Wid, const Json &Batch)> Fail;
  /// The reason its one batch.failed event carries.
  const char *Reason;
  /// The worker is gone afterwards.
  bool Evicts;
};

} // namespace

// Every failure resolves the batch once through failLocked: its points
// stay uncached (the decision loop costs them at home), it counts once
// in batches_failed and publishes one batch.failed, and nothing stays
// outstanding. Only a disconnect, a heartbeat timeout or a malformed
// result evicts the sender; after any other failure the still-live
// sender's late result, valid or malformed, is stale, never inserted,
// and evicts nothing.
TEST(WorkerPoolTest, EachFailurePathResolvesTheBatchOnce) {
  const std::vector<FailureRow> Rows = {
      {"disconnect", {}, true,
       [](WorkerPool &Pool, uint64_t Wid, const Json &) {
         Pool.disconnected(Wid);
       },
       "disconnected", true},
      // Silent after taking the batch: evalBatch's reap laps evict it.
      {"heartbeat", {.HeartbeatTimeoutMs = 150}, true,
       [](WorkerPool &, uint64_t, const Json &) {}, "heartbeat-timeout",
       true},
      // Holds the batch past its deadline; slow, not dead.
      {"deadline", {.BatchTimeoutMs = 100}, true,
       [](WorkerPool &, uint64_t, const Json &) {}, "deadline", false},
      // One slot per point, but one slot is not a cost: nothing is
      // inserted, not even the valid neighbour.
      {"garbage-cost", {}, true,
       [](WorkerPool &Pool, uint64_t Wid, const Json &Batch) {
         Json R = sendCosts(Pool, Wid, Batch, {Json("not-a-cost"), Json(2.0)});
         EXPECT_FALSE(R.get("ok").asBool(true));
         EXPECT_EQ(R.get("error").asString(), "malformed result");
       },
       "garbage-result", true},
      // Cycles are never negative: -1 is malformed, not a cost.
      {"garbage-negative", {}, true,
       [](WorkerPool &Pool, uint64_t Wid, const Json &Batch) {
         Json R = sendCosts(Pool, Wid, Batch, {Json(-1.0), Json(2.0)});
         EXPECT_FALSE(R.get("ok").asBool(true));
         EXPECT_EQ(R.get("error").asString(), "malformed result");
       },
       "garbage-result", true},
      // Valid costs, but one slot short of the batch.
      {"garbage-arity", {}, true,
       [](WorkerPool &Pool, uint64_t Wid, const Json &Batch) {
         Json R = sendCosts(Pool, Wid, Batch, {Json(2.0)});
         EXPECT_FALSE(R.get("ok").asBool(true));
         EXPECT_EQ(R.get("error").asString(), "malformed result");
       },
       "garbage-result", true},
      // The only worker leaves before it takes the queued batch.
      {"empty-fleet", {}, false,
       [](WorkerPool &Pool, uint64_t Wid, const Json &) {
         Pool.disconnected(Wid);
       },
       "no-workers", true},
      // After shutdown, dispatch is a no-op (batches_dispatched stays 1).
      {"shutdown-in-flight", {}, true,
       [](WorkerPool &Pool, uint64_t, const Json &) {
         Pool.shutdown();
         EvalCache After;
         Pool.evalBatch(someContext(), somePoints(1), "warm", After);
       },
       "shutdown", false},
      // No worker has taken the batch: shutdown's sweep alone must wake
      // evalBatch. The late sends name batch 0, which no batch has.
      {"shutdown-queued", {}, false,
       [](WorkerPool &Pool, uint64_t, const Json &) { Pool.shutdown(); },
       "shutdown", false},
  };

  for (const FailureRow &Row : Rows) {
    SCOPED_TRACE(Row.Name);
    EventCapture Cap;
    WorkerPool Pool(Row.Opts);
    uint64_t Wid = helloWorker(Pool, "w");
    EvalCache Cache;
    std::vector<RemotePoint> Points = somePoints(2);
    std::thread Evaluator(
        [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });

    Json Batch;
    if (Row.Dispatch) {
      Batch = pollForBatch(Pool, Wid);
      ASSERT_TRUE(Batch.isObject());
    } else {
      for (int I = 0; I < 300 && Pool.statsJson()
                                         .get("batches_outstanding")
                                         .asInt() == 0;
           ++I)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    Row.Fail(Pool, Wid, Batch);
    Evaluator.join(); // evalBatch returns once the batch resolves

    EXPECT_EQ(Cache.size(), 0u) << "a failed batch's points stay uncached";
    Json Stats = Pool.statsJson();
    EXPECT_EQ(Stats.get("batches_dispatched").asInt(), 1);
    EXPECT_EQ(Stats.get("batches_failed").asInt(), 1);
    EXPECT_EQ(Stats.get("batches_completed").asInt(), 0);
    EXPECT_EQ(Stats.get("batches_outstanding").asInt(), 0);
    std::vector<std::string> Reasons;
    for (const obs::Event &E : Cap.events())
      if (E.Type == "batch.failed")
        Reasons.push_back(E.Fields.get("reason").asString());
    EXPECT_EQ(Reasons, std::vector<std::string>{Row.Reason});
    EXPECT_EQ(Stats.get("lost").asInt(), Row.Evicts ? 1 : 0);
    EXPECT_EQ(Pool.liveWorkers(), Row.Evicts ? 0u : 1u);

    if (!Row.Evicts) {
      for (Json Late : {Json(4.5), Json("not-a-cost")}) {
        Json R = sendCosts(Pool, Wid, Batch, {Late, Late});
        EXPECT_TRUE(R.get("ok").asBool(false));
        EXPECT_TRUE(R.get("stale").asBool(false));
      }
      EXPECT_EQ(Cache.size(), 0u) << "a late result is never inserted";
      EXPECT_EQ(Pool.liveWorkers(), 1u) << "a late result evicts nothing";
      EXPECT_EQ(Pool.statsJson().get("batches_failed").asInt(), 1);
    }
  }
}

// A worker blocked in worker.poll is alive for the whole wait, however
// long it is next to HeartbeatTimeoutMs: the reaper that evicts a silent
// batch holder must not take the idle poller with it.
TEST(WorkerPoolTest, BlockedPollerOutlivesTheHeartbeatTimeout) {
  WorkerPool Pool(FleetOptions{.HeartbeatTimeoutMs = 150});
  uint64_t Silent = helloWorker(Pool, "silent");
  uint64_t Idle = helloWorker(Pool, "idle");
  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(1);
  std::thread Evaluator(
      [&] { Pool.evalBatch(someContext(), Points, "warm", Cache); });
  ASSERT_TRUE(pollForBatch(Pool, Silent).isObject());

  Json Req = Json::object();
  Req.set("wait_ms", static_cast<int64_t>(400));
  EXPECT_TRUE(Pool.poll(Idle, Req).get("idle").asBool(false));
  Evaluator.join();
  EXPECT_EQ(Pool.liveWorkers(), 1u);
  EXPECT_EQ(Pool.statsJson().get("lost").asInt(), 1) << "only the silent one";
}

// The blocked-poller extension ends with the wait: a poller that takes a
// batch mid-wait and then goes silent is timed from the moment it took
// the batch, not from the deadline its wait would have had.
TEST(WorkerPoolTest, SilenceAfterAWaitCountsFromTheWaitsEnd) {
  WorkerPool Pool(FleetOptions{.HeartbeatTimeoutMs = 150});
  uint64_t Wid = helloWorker(Pool, "w");
  Json Got;
  std::thread Poller([&] {
    Json Req = Json::object();
    Req.set("wait_ms", static_cast<int64_t>(WorkerPool::PollWaitCapMs));
    Got = Pool.poll(Wid, Req);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EvalCache Cache;
  auto T0 = std::chrono::steady_clock::now();
  Pool.evalBatch(someContext(), somePoints(1), "warm", Cache);
  auto Ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - T0)
                .count();
  Poller.join();
  EXPECT_TRUE(Got.has("batch"));
  EXPECT_EQ(Pool.statsJson().get("lost").asInt(), 1);
  // Evicted ~150 ms after taking the batch; counted from the wait's
  // deadline it would take ~1.1 s.
  EXPECT_LT(Ms, 800) << "the silent batch holder outlived its timeout";
}

// ---- At the Server: the connection is the worker -------------------------

namespace {

/// A daemon on a fresh unix socket whose fleet the test drives with raw
/// connections, speaking the wire by hand. Each worker line names its
/// sender's own worker_id, as workers did before the connection became
/// the identity; the daemon ignores it, and an old worker still works.
struct FleetServer {
  explicit FleetServer(const std::string &Name, ServiceOptions Opts = {})
      : Sock(tempPath(Name)), Service(Opts),
        Srv(Service, ServerOptions{.UnixPath = Sock}) {
    std::remove(Sock.c_str());
    std::string Err;
    EXPECT_TRUE(Srv.start(&Err)) << Err;
  }
  ~FleetServer() {
    Srv.stop();
    Service.drain();
    std::remove(Sock.c_str());
  }
  std::unique_ptr<Client> connect() {
    std::unique_ptr<Client> C = Client::connectUnix(Sock);
    EXPECT_TRUE(C);
    if (C)
      C->setRecvTimeout(5000);
    return C;
  }
  /// Sends \p Req on \p C; the reply, or an error reply on transport
  /// failure.
  static Json call(Client &C, const Json &Req) {
    Json Resp;
    return C.roundTrip(Req, Resp) ? Resp : errorReply("transport");
  }
  /// Registers \p C as a worker; its id (0 if refused).
  static uint64_t hello(Client &C) {
    Json Req = Json::object();
    Req.set("op", "worker.hello");
    return static_cast<uint64_t>(call(C, Req).get("worker_id").asInt());
  }
  /// Polls on \p C as \p Id until a batch arrives (or ~3 s pass).
  static Json pollForBatch(Client &C, uint64_t Id) {
    Json Req = Json::object();
    Req.set("op", "worker.poll");
    Req.set("worker_id", Id);
    Req.set("wait_ms", static_cast<int64_t>(200));
    for (int I = 0; I < 15; ++I) {
      Json Resp = call(C, Req);
      if (Resp.has("batch"))
        return Resp.get("batch");
    }
    return Json();
  }
  static Json result(Client &C, uint64_t Id, int64_t BatchId, double C0,
                     double C1) {
    Json Req = Json::object();
    Req.set("op", "worker.result");
    Req.set("worker_id", Id);
    Req.set("batch_id", BatchId);
    Json Costs = Json::array();
    Costs.push(Json(C0));
    Costs.push(Json(C1));
    Req.set("costs", std::move(Costs));
    return call(C, Req);
  }
  WorkerPool &pool() { return Service.workers(); }
  int64_t stat(const char *Key) { return pool().statsJson().get(Key).asInt(); }

  std::string Sock;
  TuneService Service;
  Server Srv;
};

} // namespace

// A worker's identity is its connection, never a worker_id a line names.
// A second connection, unregistered or registered as another worker,
// that names the first worker's id and batch takes no batch and inserts
// no cost; the first worker's batch completes with its own costs. An
// unregistered connection spoofs before the owner polls; a registered
// one after, since it may rightly take queued work as itself.
TEST(FleetServerTest, SecondConnectionCannotTakeOrAnswerAWorkersBatch) {
  for (bool Registered : {false, true}) {
    SCOPED_TRACE(Registered ? "registered" : "unregistered");
    FleetServer F("eco_fleet_spoof.sock");
    std::unique_ptr<Client> Owner = F.connect(), Spoofer = F.connect();
    ASSERT_TRUE(Owner && Spoofer);
    uint64_t OwnerId = FleetServer::hello(*Owner);
    ASSERT_NE(OwnerId, 0u);

    EvalCache Cache;
    std::vector<RemotePoint> Points = somePoints(2);
    std::thread Evaluator(
        [&] { F.pool().evalBatch(someContext(), Points, "warm", Cache); });
    for (int I = 0; I < 300 && F.stat("batches_outstanding") == 0; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));

    Json SpoofPoll = Json::object();
    SpoofPoll.set("op", "worker.poll");
    SpoofPoll.set("worker_id", OwnerId);
    SpoofPoll.set("wait_ms", static_cast<int64_t>(0));
    Json Batch;
    if (Registered) {
      EXPECT_NE(FleetServer::hello(*Spoofer), 0u);
      Batch = FleetServer::pollForBatch(*Owner, OwnerId);
    }
    EXPECT_FALSE(FleetServer::call(*Spoofer, SpoofPoll).has("batch"));
    if (!Registered)
      Batch = FleetServer::pollForBatch(*Owner, OwnerId);
    EXPECT_TRUE(Batch.isObject()) << "the owner never got its batch";

    int64_t BatchId = Batch.get("id").asInt();
    Json R = FleetServer::result(*Spoofer, OwnerId, BatchId, 666.0, 666.0);
    EXPECT_TRUE(R.get("stale").asBool(false) || !R.get("ok").asBool(true))
        << R.dump();

    R = FleetServer::result(*Owner, OwnerId, BatchId, 1.5, 2.5);
    EXPECT_TRUE(R.get("ok").asBool(false)) << R.dump();
    EXPECT_FALSE(R.get("stale").asBool(false)) << R.dump();
    F.pool().shutdown(); // ends the wait if the owner's batch was lost
    Evaluator.join();
    EXPECT_EQ(Cache.lookup(Points[0].Key).value_or(-1), 1.5);
    EXPECT_EQ(Cache.lookup(Points[1].Key).value_or(-1), 2.5);
    EXPECT_EQ(F.stat("batches_completed"), 1);
    EXPECT_EQ(F.stat("batches_failed"), 0);
    EXPECT_EQ(F.stat("lost"), 0);

    // A connection registers once: a second hello is refused and
    // registers nothing.
    EXPECT_EQ(FleetServer::hello(*Owner), 0u);
    EXPECT_EQ(F.stat("joined"), Registered ? 2 : 1);
  }
}

// Any line from a registered connection is a sign of life: a worker that
// only pings while it holds a batch for several heartbeat timeouts stays
// registered, and its result completes the batch.
TEST(FleetServerTest, PingAloneKeepsABatchHolderAlive) {
  ServiceOptions Opts;
  Opts.Fleet.HeartbeatTimeoutMs = 300;
  FleetServer F("eco_fleet_ping.sock", Opts);
  std::unique_ptr<Client> W = F.connect();
  ASSERT_TRUE(W);
  uint64_t Id = FleetServer::hello(*W);
  ASSERT_NE(Id, 0u);

  EvalCache Cache;
  std::vector<RemotePoint> Points = somePoints(2);
  std::thread Evaluator(
      [&] { F.pool().evalBatch(someContext(), Points, "warm", Cache); });
  Json Batch = FleetServer::pollForBatch(*W, Id);
  EXPECT_TRUE(Batch.isObject());
  auto Until = std::chrono::steady_clock::now() + std::chrono::milliseconds(
                                                      3 * 300 + 100);
  while (std::chrono::steady_clock::now() < Until) {
    EXPECT_TRUE(W->ping());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  Json R = FleetServer::result(*W, Id, Batch.get("id").asInt(), 1.5, 2.5);
  EXPECT_TRUE(R.get("ok").asBool(false)) << R.dump();
  EXPECT_FALSE(R.get("stale").asBool(false)) << R.dump();
  F.pool().shutdown(); // ends the wait if the batch was lost
  Evaluator.join();
  EXPECT_EQ(Cache.size(), 2u);
  EXPECT_EQ(F.stat("lost"), 0);
  EXPECT_EQ(F.stat("batches_completed"), 1);
}

// ---- End to end: in-process workers over the real socket protocol -------

/// The fleet chaos table: per row, one honest worker plus one that
/// misbehaves once it holds a batch — vanishes (drops its connection, the
/// in-process analogue of SIGKILL), freezes (heartbeat eviction), or
/// reports garbage costs (evicted at once). Each batch is dispatched once
/// and a failed one is costed at home, so the tune must succeed with the
/// fleetless winner, bit for bit, and the stats must show both the honest
/// worker's completions and the misbehaving worker's failure.
TEST(FleetEndToEndTest, MisbehavingWorkerNeverMovesTheWinner) {
  JobSpec Spec = fleetSpec();
  JobResult Local;
  {
    TuneService Baseline;
    Local = Baseline.run(Spec);
    Baseline.drain();
  }
  ASSERT_TRUE(Local.ok()) << Local.Error;

  for (const char *Mode : {"vanish", "freeze", "garbage"}) {
    SCOPED_TRACE(Mode);
    std::string Sock = tempPath(std::string("eco_fleet_") + Mode + ".sock");
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
    WorkerOptions Chaos = Honest;
    Chaos.Name = Mode;
    Chaos.Chaos = Mode;
    std::thread T1([&] { runWorker(Honest); });
    std::thread T2([&] { runWorker(Chaos); });
    for (int Tries = 0; Tries < 500 && Service.workers().liveWorkers() < 2;
         ++Tries)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_EQ(Service.workers().liveWorkers(), 2u);

    JobResult Remote = Service.run(Spec);
    EXPECT_TRUE(Remote.ok()) << Remote.Error;
    EXPECT_EQ(std::memcmp(&Remote.Cost, &Local.Cost, sizeof(double)), 0)
        << Remote.Cost << " vs " << Local.Cost;
    EXPECT_EQ(Remote.Variant, Local.Variant);
    EXPECT_EQ(Remote.Config, Local.Config);

    Json Stats = Service.workers().statsJson();
    EXPECT_GE(Stats.get("batches_completed").asInt(), 1) << Stats.dump();
    EXPECT_GE(Stats.get("batches_failed").asInt(), 1) << Stats.dump();
    EXPECT_GE(Stats.get("lost").asInt(), 1) << Stats.dump();

    Stop.store(true);
    T1.join();
    T2.join();
    Srv.stop();
    Service.drain();
    std::remove(Sock.c_str());
  }
}

TEST(FleetEndToEndTest, IllegalPointReturnsNullWithoutEvictionAndRejectsOnce) {
  // Cache keys need no instantiation, so the daemon ships points without
  // checking that their transforms are legal. The worker must answer
  // null for an illegal one (a valid answer: a malformed one would evict
  // it), and each side must record the rejection exactly once.
  std::string Sock = tempPath("eco_fleet_illegal.sock");
  std::remove(Sock.c_str());
  TuneService Service;
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

  EventCapture Cap;
  Engine.warmMany({{&V, Legal}, {&V, Illegal}}, "warm");
  EXPECT_EQ(Shipped, 2u);
  EXPECT_EQ(Engine.instantiations(), 0u);
  EXPECT_EQ(Engine.stats().Rejected, 0u) << "export must not account";

  EvalOutcome L = Engine.evaluate(V, Legal, "warm");
  EvalOutcome I = Engine.evaluate(V, Illegal, "warm");
  EXPECT_TRUE(L.CacheHit) << "the worker's cost for the legal point";
  EXPECT_FALSE(I.CacheHit);
  EXPECT_TRUE(std::isinf(I.Cost));
  EXPECT_EQ(Engine.stats().Evaluations, 0u);
  EXPECT_EQ(Engine.stats().Rejected, 1u);
  // The worker costs through its own engine under stage "remote": it
  // records its refusal once, and the daemon's loop records its own once.
  auto count = [&Cap](const std::string &Type, const std::string &Stage) {
    size_t N = 0;
    for (const obs::Event &E : Cap.events())
      N += E.Type == Type && E.Fields.get("stage").asString() == Stage;
    return N;
  };
  EXPECT_EQ(count("config.rejected", "warm"), 1u);
  EXPECT_EQ(count("config.rejected", "remote"), 1u);
  EXPECT_EQ(Cap.count("config.rejected"), 2u);
  EXPECT_EQ(count("config.evaluated", "remote"), 1u) << "the legal point";

  Json Stats = Service.workers().statsJson();
  EXPECT_EQ(Stats.get("workers_live").asInt(), 1);
  EXPECT_EQ(Stats.get("lost").asInt(), 0);
  EXPECT_EQ(Stats.get("batches_failed").asInt(), 0);
  EXPECT_EQ(Stats.get("batches_completed").asInt(), 1);

  Stop.store(true);
  T.join();
  Srv.stop();
  Service.drain();
  std::remove(Sock.c_str());
}

TEST(FleetEndToEndTest, UnresolvableBatchIsAnsweredNullAndLogged) {
  // A batch whose context names no kernel is a valid all-null answer:
  // the batch completes, nothing is cached, nobody is evicted, and the
  // worker says why at Warn.
  std::string Sock = tempPath("eco_fleet_unresolvable.sock");
  std::remove(Sock.c_str());
  TuneService Service;
  ServerOptions SOpts;
  SOpts.UnixPath = Sock;
  Server Srv(Service, SOpts);
  std::string Err;
  ASSERT_TRUE(Srv.start(&Err)) << Err;

  std::atomic<bool> Stop{false};
  WorkerOptions Honest;
  Honest.Socket = Sock;
  Honest.PollWaitMs = 100;
  Honest.TimeoutMs = 5000;
  Honest.Stop = &Stop;
  std::thread T([&] { runWorker(Honest); });
  for (int Tries = 0; Tries < 500 && Service.workers().liveWorkers() < 1;
       ++Tries)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ASSERT_EQ(Service.workers().liveWorkers(), 1u);

  BatchContext Ctx = someContext();
  Ctx.Kernel = "no-such-kernel";
  EvalCache Cache;
  ::testing::internal::CaptureStderr();
  Service.workers().evalBatch(Ctx, somePoints(2), "warm", Cache);
  std::string Log = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(Log.find("answered all-null: unknown kernel 'no-such-kernel'"),
            std::string::npos)
      << Log;
  EXPECT_EQ(Cache.size(), 0u);
  Json Stats = Service.workers().statsJson();
  EXPECT_EQ(Stats.get("batches_completed").asInt(), 1);
  EXPECT_EQ(Stats.get("batches_failed").asInt(), 0);
  EXPECT_EQ(Stats.get("lost").asInt(), 0);

  Stop.store(true);
  T.join();
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
  // heartbeat lapse) and fail its batch, whose points the daemon then
  // costs at home, and the job must still resolve.
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
