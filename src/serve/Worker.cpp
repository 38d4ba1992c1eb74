//===- serve/Worker.cpp - Remote evaluation worker ------------------------===//

#include "serve/Worker.h"

#include "obs/Log.h"
#include "serve/Client.h"
#include "serve/Fleet.h"
#include "support/ParseInt.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>

using namespace eco;
using namespace eco::serve;

namespace {

/// Transport-failure retry: attempts before giving up (the daemon is
/// gone; a completed registration resets the count) and the sleep between.
constexpr int ReconnectAttempts = 25, ReconnectDelayMs = 200;

/// Evaluates every point of \p Batch into \p CostsOut (one slot per
/// point; null = cannot evaluate — unknown variant, a config that does
/// not bind, or a transform that refuses the point, which the daemon's
/// local loop re-derives). \p BetweenPoints runs after each point so the
/// caller can ping through long batches.
void evaluateBatch(const Json &Batch, PointResolver &Resolver,
                   Json &CostsOut,
                   const std::function<void()> &BetweenPoints) {
  CostsOut = Json::array();
  const Json &Points = Batch.get("points");
  std::string Error;
  const PointContext *Ctx = Resolver.resolve(
      {Batch.get("kernel").asString(), Batch.get("machine").asString(),
       static_cast<unsigned>(Batch.get("scale").asInt(1)),
       Batch.get("rep_n").asInt()},
      &Error);
  if (!Ctx) {
    // Unresolvable batch: answer all-null, a valid answer, so the daemon
    // costs its points locally without evicting this worker.
    ECO_LOG(Warn) << "worker: batch " << Batch.get("id").asInt()
                  << " answered all-null: " << Error;
    for (size_t I = 0; I < Points.size(); ++I)
      CostsOut.push(Json());
    return;
  }

  // One engine per batch: its memo lets the batch's points share
  // instantiations (a search stage varies tiles over a few unroll and
  // prefetch shapes), and it dies with the batch, so the worker's memory
  // does not grow with every shape it has costed.
  EvalEngine Engine(*Ctx->Backend);
  for (size_t I = 0; I < Points.size(); ++I) {
    const Json &P = Points.at(I);
    const DerivedVariant *V = Ctx->variant(P.get("variant").asString());
    ParamBindings Bindings;
    bool Numbers = true;
    for (const auto &[Sym, Value] : P.get("config").fields()) {
      Numbers = Numbers && Value.isNumber();
      Bindings.emplace_back(Sym, Value.asInt());
    }
    Env Config;
    if (!V || !Numbers || !PointContext::bind(*V, Bindings, Config, nullptr)) {
      CostsOut.push(Json());
      continue;
    }
    // A refused or non-finite point answers null, never a cost: the
    // daemon's decision loop re-derives the rejection itself.
    EvalOutcome O = Engine.evaluate(*V, Config, "remote");
    CostsOut.push(O.Rejected || !std::isfinite(O.Cost) ? Json()
                                                       : Json(O.Cost));
    BetweenPoints();
  }
}

} // namespace

int eco::serve::runWorker(const WorkerOptions &Opts) {
  PointResolver Resolver;
  std::unique_ptr<Client> C;
  int Reconnects = 0;

  auto stopRequested = [&Opts] {
    return Opts.Stop && Opts.Stop->load(std::memory_order_relaxed);
  };

  auto connect = [&]() -> bool {
    while (!stopRequested()) {
      std::string Err;
      C = Opts.Port >= 0
              ? Client::connectTcp(Opts.Host, Opts.Port, &Err,
                                   Opts.TimeoutMs)
              : Client::connectUnix(Opts.Socket, &Err, Opts.TimeoutMs);
      if (C) {
        C->setRecvTimeout(Opts.TimeoutMs);
        return true;
      }
      if (++Reconnects > ReconnectAttempts) {
        ECO_LOG(Warn) << "worker: daemon unreachable after " << Reconnects
                      << " attempt(s): " << Err;
        return false;
      }
      std::this_thread::sleep_for(
          std::chrono::milliseconds(ReconnectDelayMs));
    }
    return false;
  };

  // One request, true on an ok reply. A transport failure or an error
  // reply (this registration was evicted, a result was refused) drops
  // the connection: the one recovery is to reconnect and say hello.
  auto call = [&](const Json &Req, Json &Resp) -> bool {
    if (C->roundTrip(Req, Resp) && Resp.get("ok").asBool(false))
      return true;
    C.reset();
    return false;
  };

  for (;;) {
    if (stopRequested())
      return 0;
    if (!C) {
      if (!connect())
        return stopRequested() ? 0 : 1;
      Json Req = Json::object();
      Req.set("op", "worker.hello");
      Req.set("name", Opts.Name);
      Json Resp;
      if (!call(Req, Resp))
        continue; // retry (bounded by the reconnect budget)
      Reconnects = 0; // a completed registration resets the give-up budget
      ECO_LOG(Info) << "worker: registered as id "
                    << Resp.get("worker_id").asInt();
    }

    Json Req = Json::object();
    Req.set("op", "worker.poll");
    Req.set("wait_ms", static_cast<int64_t>(Opts.PollWaitMs));
    Json Resp;
    if (!call(Req, Resp) || !Resp.has("batch"))
      continue; // reconnect, or an idle long-poll lap

    const Json &Batch = Resp.get("batch");

    if (Opts.Chaos == "vanish") {
      // SIGKILL analogue for in-process tests: drop the connection with
      // the batch unacknowledged and exit.
      ECO_LOG(Warn) << "worker: chaos 'vanish': dropping connection";
      C.reset();
      return 0;
    }
    if (Opts.Chaos == "freeze") {
      // Hold the batch silently; the daemon's heartbeat reaper evicts
      // us and costs the batch at home. Park until told to stop.
      ECO_LOG(Warn) << "worker: chaos 'freeze': going silent";
      while (!stopRequested())
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return 0;
    }

    Json Costs;
    if (Opts.Chaos == "garbage") {
      // Structurally invalid on purpose: wrong arity and a non-number.
      Costs = Json::array();
      Costs.push("not-a-cost");
    } else {
      // Any line keeps this connection alive, so a long batch pings.
      auto LastPing = std::chrono::steady_clock::now();
      auto ping = [&] {
        auto Now = std::chrono::steady_clock::now();
        if (Now - LastPing <
            std::chrono::milliseconds(WorkerPool::HeartbeatIntervalMs / 2))
          return;
        LastPing = Now;
        C->ping(); // best effort; a dead connection fails the result
      };
      evaluateBatch(Batch, Resolver, Costs, ping);
    }

    Json RReq = Json::object();
    RReq.set("op", "worker.result");
    RReq.set("batch_id", Batch.get("id").asInt());
    RReq.set("costs", std::move(Costs));
    Json RResp;
    call(RReq, RResp);
  }
}

int eco::serve::workerToolMain(const std::vector<std::string> &Args) {
  obs::setLogLevelByName("info"); // a worker should say what it's doing
  WorkerOptions Opts;
  bool Bad = false;
  for (const std::string &Arg : Args) {
    if (const char *V = flagValue(Arg, "--socket=")) {
      Opts.Socket = V;
    } else if (const char *V = flagValue(Arg, "--host=")) {
      Opts.Host = V;
    } else if (const char *V = flagValue(Arg, "--name=")) {
      Opts.Name = V;
    } else if (!(intFlag(Arg, "--port=", 1, 65535, Opts.Port, Bad) ||
                 intFlag(Arg, "--poll-ms=", 0, 24 * 3600 * 1000,
                         Opts.PollWaitMs, Bad) ||
                 intFlag(Arg, "--timeout-ms=", 1, 24 * 3600 * 1000,
                         Opts.TimeoutMs, Bad)) ||
               Bad) {
      std::fprintf(stderr,
                   "usage: eco_worker [--socket=PATH | --host=H --port=P] "
                   "[--name=S] [--poll-ms=MS] [--timeout-ms=MS]\n");
      return 2;
    }
  }
  return runWorker(Opts);
}
