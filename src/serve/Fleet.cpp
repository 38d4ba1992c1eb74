//===- serve/Fleet.cpp - Remote evaluation worker fleet -------------------===//

#include "serve/Fleet.h"

#include "core/DeriveVariants.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "serve/Server.h" // buildKernel / buildMachine

#include <algorithm>
#include <cmath>

using namespace eco;
using namespace eco::serve;

WorkerPool::WorkerPool(FleetOptions O) : Opts(O) {
  if (Opts.MaxAttempts < 1)
    Opts.MaxAttempts = 1;
}

WorkerPool::~WorkerPool() { shutdown(); }

Json WorkerPool::hello(const Json &Req) {
  MutexLock Lock(M);
  Worker W;
  W.Id = NextWorkerId++;
  W.Name = Req.get("name").asString();
  if (W.Name.empty())
    W.Name = "worker-" + std::to_string(W.Id);
  W.LastSeen = Clock::now();
  uint64_t Id = W.Id;
  std::string Name = W.Name;
  Workers.emplace(Id, std::move(W));
  ++TotalJoined;
  if (obs::eventsEnabled()) {
    Json F = Json::object();
    F.set("worker_id", Id);
    F.set("name", Name);
    F.set("live", Workers.size());
    obs::publishEvent("worker.joined", std::move(F));
  }
  ECO_LOG(Info) << "fleet: worker " << Id << " ('" << Name << "') joined ("
                << Workers.size() << " live)";
  // A fresh worker may unblock queued batches waiting for a poller.
  WorkCV.notify_all();
  Json J = Json::object();
  J.set("ok", true);
  J.set("worker_id", Id);
  J.set("heartbeat_ms", static_cast<int64_t>(HeartbeatIntervalMs));
  return J;
}

void WorkerPool::evictLocked(uint64_t WorkerId, const std::string &Reason) {
  M.assertHeld();
  auto It = Workers.find(WorkerId);
  if (It == Workers.end())
    return;
  std::string Name = It->second.Name;
  Workers.erase(It);
  ++TotalLost;
  if (obs::eventsEnabled()) {
    Json F = Json::object();
    F.set("worker_id", WorkerId);
    F.set("name", Name);
    F.set("reason", Reason);
    F.set("live", Workers.size());
    obs::publishEvent("worker.lost", std::move(F));
  }
  ECO_LOG(Warn) << "fleet: worker " << WorkerId << " ('" << Name
                << "') lost (" << Reason << "); " << Workers.size()
                << " live";
  // Its in-flight batches go back in the queue (or fail out).
  std::vector<uint64_t> Orphans;
  for (auto &[Id, B] : Batches)
    if (B.State == BatchState::InFlight && B.AssignedTo == WorkerId)
      Orphans.push_back(Id);
  for (uint64_t Id : Orphans) {
    auto BIt = Batches.find(Id);
    if (BIt != Batches.end())
      requeueLocked(BIt->second, "worker-lost");
  }
}

void WorkerPool::requeueLocked(Batch &B, const std::string &Reason) {
  M.assertHeld();
  bool Exhausted = B.Attempts >= Opts.MaxAttempts;
  if (obs::eventsEnabled()) {
    // Only a batch that is not exhausted counts as serve.batches_retried.
    Json F = Json::object();
    F.set("batch_id", B.Id);
    F.set("reason", Reason);
    F.set("attempts", static_cast<int64_t>(B.Attempts));
    F.set("exhausted", Exhausted);
    obs::publishEvent("batch.redispatched", std::move(F));
  }
  if (Exhausted) {
    // Exhausted: the points stay uncached and the engine's decision
    // loop evaluates them locally — correctness never depends on the
    // fleet, only throughput does.
    ++TotalFailed;
    ECO_LOG(Warn) << "fleet: batch " << B.Id << " failed after "
                  << B.Attempts << " attempt(s) (" << Reason << ")";
    finishBatchLocked(B.Id);
    return;
  }
  ++TotalRetried;
  int Shift = std::min(B.Attempts - 1, 20);
  int64_t BackoffMs = std::min<int64_t>(
      static_cast<int64_t>(Opts.BackoffBaseMs) << Shift, Opts.BackoffMaxMs);
  B.State = BatchState::Queued;
  B.AssignedTo = 0;
  B.NotBefore = Clock::now() + std::chrono::milliseconds(BackoffMs);
  ECO_LOG(Info) << "fleet: batch " << B.Id << " re-queued (" << Reason
                << ", attempt " << B.Attempts << ", backoff " << BackoffMs
                << " ms)";
  WorkCV.notify_all();
}

void WorkerPool::finishBatchLocked(uint64_t Id) {
  M.assertHeld();
  auto It = Batches.find(Id);
  if (It == Batches.end())
    return;
  auto GIt = GroupRemaining.find(It->second.Group);
  if (GIt != GroupRemaining.end() && GIt->second > 0)
    --GIt->second;
  Batches.erase(It);
  DoneCV.notify_all();
}

void WorkerPool::reapLocked(Clock::time_point Now) {
  M.assertHeld();
  std::vector<uint64_t> Stale;
  for (const auto &[Id, W] : Workers)
    if (Now - W.LastSeen > std::chrono::milliseconds(Opts.HeartbeatTimeoutMs))
      Stale.push_back(Id);
  for (uint64_t Id : Stale)
    evictLocked(Id, "heartbeat-timeout");

  std::vector<uint64_t> Stragglers;
  for (const auto &[Id, B] : Batches)
    if (B.State == BatchState::InFlight &&
        Now - B.DispatchedAt > std::chrono::milliseconds(Opts.BatchTimeoutMs))
      Stragglers.push_back(Id);
  for (uint64_t Id : Stragglers) {
    auto It = Batches.find(Id);
    if (It != Batches.end())
      requeueLocked(It->second, "straggler");
  }
}

Json WorkerPool::poll(const Json &Req) {
  uint64_t WorkerId = static_cast<uint64_t>(Req.get("worker_id").asInt());
  int64_t WaitMs = Req.get("wait_ms").asInt(0);
  WaitMs = std::clamp<int64_t>(WaitMs, 0, PollWaitCapMs);
  auto Deadline = Clock::now() + std::chrono::milliseconds(WaitMs);

  MutexLock Lock(M);
  for (;;) {
    auto WIt = Workers.find(WorkerId);
    if (WIt == Workers.end())
      return errorReply("unknown worker"); // evicted — the worker re-hellos
    auto Now = Clock::now();
    WIt->second.LastSeen = Now; // a blocked poller is alive by definition

    if (!Stopping) {
      for (auto &[Id, B] : Batches) {
        (void)Id;
        if (B.State != BatchState::Queued || B.NotBefore > Now)
          continue;
        ++B.Attempts;
        B.State = BatchState::InFlight;
        B.AssignedTo = WorkerId;
        B.DispatchedAt = Now;
        return okReply("batch", B.Payload);
      }
    }

    if (Stopping || Now >= Deadline)
      return okReply("idle", true);
    // Lap at most 50 ms so a backoff gate (NotBefore in the future)
    // opens promptly even without a notification.
    auto Lap = std::min(Deadline - Now,
                        Clock::duration(std::chrono::milliseconds(50)));
    WorkCV.wait_for(Lock, Lap);
  }
}

Json WorkerPool::result(const Json &Req) {
  uint64_t WorkerId = static_cast<uint64_t>(Req.get("worker_id").asInt());
  uint64_t BatchId = static_cast<uint64_t>(Req.get("batch_id").asInt());
  const Json &Costs = Req.get("costs");

  MutexLock Lock(M);
  auto WIt = Workers.find(WorkerId);
  if (WIt == Workers.end())
    return errorReply("unknown worker");
  WIt->second.LastSeen = Clock::now();

  auto BIt = Batches.find(BatchId);
  if (BIt == Batches.end()) {
    // Already resolved (a re-dispatched copy finished first, or the
    // batch failed out). The duplicate is expected under re-dispatch —
    // acknowledge it so the worker moves on.
    return okReply("stale", true);
  }
  Batch &B = BIt->second;

  // Structural validation: one cost slot per point, each null (the
  // worker hit an illegal transform / unknown binding — the local loop
  // re-derives that rejection deterministically) or a finite number.
  // Anything else is a protocol violation: never insert, strike the
  // sender, re-dispatch the batch.
  bool Valid = Costs.isArray() && Costs.size() == B.Points.size();
  if (Valid)
    for (size_t I = 0; I < Costs.size(); ++I) {
      const Json &C = Costs.at(I);
      if (!C.isNull() && (!C.isNumber() || !std::isfinite(C.asNumber())))
        Valid = false;
    }
  if (!Valid) {
    // Re-queue only a batch still in flight on THIS worker: a
    // superseded sender (the batch straggled and was re-dispatched to a
    // healthy worker) just takes the strike. Order matters — the
    // requeue can erase B outright (attempts exhausted ->
    // finishBatchLocked), so it must precede evictLocked, whose orphan
    // sweep then finds the batch already resolved or Queued and leaves
    // it alone.
    if (B.State == BatchState::InFlight && B.AssignedTo == WorkerId)
      requeueLocked(B, "garbage-result");
    if (++WIt->second.Strikes >= Opts.MaxStrikes)
      evictLocked(WorkerId, "garbage-result");
    return errorReply("malformed result");
  }
  // A structurally valid result clears the strike count: strikes gauge
  // persistent misbehavior, not an honest worker's lifetime total.
  WIt->second.Strikes = 0;

  for (size_t I = 0; I < Costs.size(); ++I)
    if (!Costs.at(I).isNull())
      // Idempotent: the sim cost is deterministic, so a duplicate or
      // late completion overwrites an entry with the identical value.
      B.Cache->insert(B.Points[I].Key, Costs.at(I).asNumber());
  ++TotalCompleted;
  finishBatchLocked(BatchId);
  return okReply();
}

Json WorkerPool::heartbeat(const Json &Req) {
  uint64_t WorkerId = static_cast<uint64_t>(Req.get("worker_id").asInt());
  MutexLock Lock(M);
  auto WIt = Workers.find(WorkerId);
  if (WIt == Workers.end())
    return errorReply("unknown worker");
  WIt->second.LastSeen = Clock::now();
  return okReply();
}

void WorkerPool::disconnected(uint64_t WorkerId) {
  MutexLock Lock(M);
  evictLocked(WorkerId, "disconnected");
}

size_t WorkerPool::liveWorkers() const {
  MutexLock Lock(M);
  return Workers.size();
}

void WorkerPool::evalBatch(const BatchContext &Ctx,
                           const std::vector<RemotePoint> &Points,
                           const std::string &Stage, EvalCache &Cache) {
  if (Points.empty())
    return;

  uint64_t Group;
  {
    MutexLock Lock(M);
    if (Stopping || Workers.empty())
      return; // no fleet — the caller's local path covers everything

    size_t Shards = std::min(Workers.size(), Points.size());
    Group = NextGroupId++;
    size_t Base = Points.size() / Shards, Extra = Points.size() % Shards;
    size_t Off = 0;
    auto Now = Clock::now();
    for (size_t S = 0; S < Shards; ++S) {
      size_t Count = Base + (S < Extra ? 1 : 0);
      Batch B;
      B.Id = NextBatchId++;
      B.Points.assign(Points.begin() + Off, Points.begin() + Off + Count);
      Off += Count;
      B.Cache = &Cache;
      B.Group = Group;
      B.NotBefore = Now;
      Json P = Json::object();
      P.set("id", B.Id);
      P.set("kernel", Ctx.Kernel);
      P.set("machine", Ctx.Machine);
      P.set("scale", static_cast<int64_t>(Ctx.Scale));
      P.set("rep_n", Ctx.RepSize);
      P.set("stage", Stage);
      Json Pts = Json::array();
      for (const RemotePoint &RP : B.Points) {
        Json O = Json::object();
        O.set("variant", RP.Variant);
        Json C = Json::object();
        for (const auto &[Name, Value] : RP.Config)
          C.set(Name, Value);
        O.set("config", std::move(C));
        Pts.push(std::move(O));
      }
      P.set("points", std::move(Pts));
      B.Payload = std::move(P);
      uint64_t Id = B.Id;
      Batches.emplace(Id, std::move(B));
    }
    GroupRemaining[Group] = Shards;
    TotalDispatched += Shards;
    ECO_LOG(Debug) << "fleet: dispatching " << Points.size()
                   << " point(s) as " << Shards << " batch(es) across "
                   << Workers.size() << " worker(s) [" << Stage << "]";
  }
  WorkCV.notify_all();

  MutexLock Lock(M);
  for (;;) {
    auto GIt = GroupRemaining.find(Group);
    if (GIt == GroupRemaining.end() || GIt->second == 0)
      break;
    if (Stopping || Workers.empty()) {
      // Fleet gone: fail this group's remaining batches right now so
      // the tune falls back to local evaluation instead of waiting out
      // timeouts that no worker will ever beat.
      std::vector<uint64_t> Remaining;
      for (const auto &[Id, B] : Batches)
        if (B.Group == Group)
          Remaining.push_back(Id);
      for (uint64_t Id : Remaining) {
        ++TotalFailed;
        finishBatchLocked(Id);
      }
      break;
    }
    DoneCV.wait_for(Lock, std::chrono::milliseconds(50));
    reapLocked(Clock::now());
  }
  GroupRemaining.erase(Group);
}

void WorkerPool::shutdown() {
  MutexLock Lock(M);
  Stopping = true;
  std::vector<uint64_t> Remaining;
  for (const auto &[Id, B] : Batches) {
    (void)B;
    Remaining.push_back(Id);
  }
  for (uint64_t Id : Remaining) {
    ++TotalFailed;
    finishBatchLocked(Id);
  }
  WorkCV.notify_all();
  DoneCV.notify_all();
}

Json WorkerPool::statsJson() const {
  MutexLock Lock(M);
  Json J = Json::object();
  J.set("workers_live", static_cast<int64_t>(Workers.size()));
  J.set("joined", TotalJoined);
  J.set("lost", TotalLost);
  J.set("batches_dispatched", TotalDispatched);
  J.set("batches_retried", TotalRetried);
  J.set("batches_failed", TotalFailed);
  J.set("batches_completed", TotalCompleted);
  J.set("batches_outstanding", static_cast<int64_t>(Batches.size()));
  return J;
}

const PointContext *PointResolver::resolve(const BatchContext &Ctx,
                                           std::string *Error) {
  if (auto It = Contexts.find(Ctx); It != Contexts.end())
    return &It->second;
  LoopNest Nest;
  PointContext PC;
  if (!buildKernel(Ctx.Kernel, Nest, Error) ||
      !buildMachine(Ctx.Machine, Ctx.Scale, PC.Machine, Error))
    return nullptr;
  DeriveOptions D;
  D.setRepresentativeSize(Ctx.RepSize);
  PC.Variants = deriveVariants(Nest, PC.Machine, D);
  PC.Backend = std::make_unique<SimEvalBackend>(PC.Machine);
  return &Contexts.emplace(Ctx, std::move(PC)).first->second;
}

const DerivedVariant *PointContext::variant(const std::string &Name) const {
  for (const DerivedVariant &V : Variants)
    if (V.Spec.Name == Name)
      return &V;
  return nullptr;
}

bool PointContext::bind(const DerivedVariant &V, const ParamBindings &Config,
                        Env &Out, std::string *Error) {
  const SymbolTable &Syms = V.Skeleton.Syms;
  Out = Env(Syms.size());
  std::vector<bool> Bound(Syms.size());
  for (const auto &[Name, Value] : Config) {
    SymbolId Id = Syms.lookup(Name);
    if (Id < 0 || Syms.kind(Id) == SymbolKind::LoopVar)
      return refuse(Error, "config names unknown symbol '" + Name + "'");
    Out.set(Id, Value);
    Bound[static_cast<size_t>(Id)] = true;
  }
  for (SymbolId Id = 0; Id < static_cast<SymbolId>(Syms.size()); ++Id)
    if (!Bound[static_cast<size_t>(Id)] &&
        Syms.kind(Id) != SymbolKind::LoopVar)
      return refuse(Error, "config is missing symbol '" + Syms.name(Id) + "'");
  return true;
}
