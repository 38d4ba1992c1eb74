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

WorkerPool::WorkerPool(FleetOptions O) : Opts(O) {}

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
  failWhereLocked(
      [WorkerId](const Batch &B) { return B.AssignedTo == WorkerId; },
      Reason);
}

void WorkerPool::failLocked(Batch &B, const std::string &Reason) {
  M.assertHeld();
  ++TotalFailed;
  if (obs::eventsEnabled()) {
    Json F = Json::object();
    F.set("batch_id", B.Id);
    F.set("reason", Reason);
    obs::publishEvent("batch.failed", std::move(F));
  }
  ECO_LOG(Info) << "fleet: batch " << B.Id << " failed (" << Reason
                << "); its points are costed locally";
  finishBatchLocked(B.Id);
}

void WorkerPool::failWhereLocked(
    const std::function<bool(const Batch &)> &Match,
    const std::string &Reason) {
  M.assertHeld();
  // failLocked erases only the batch it is given, so Next stays valid.
  for (auto It = Batches.begin(), Next = It; It != Batches.end(); It = Next) {
    ++Next;
    if (Match(It->second))
      failLocked(It->second, Reason);
  }
}

void WorkerPool::finishBatchLocked(uint64_t Id) {
  M.assertHeld();
  Batches.erase(Id);
  DoneCV.notify_all();
}

bool WorkerPool::anyLeftLocked(uint64_t First, uint64_t End) const {
  M.assertHeld();
  auto It = Batches.lower_bound(First);
  return It != Batches.end() && It->first < End;
}

void WorkerPool::reapLocked(Clock::time_point Now) {
  M.assertHeld();
  std::vector<uint64_t> Stale;
  for (const auto &[Id, W] : Workers)
    if (Now - W.LastSeen > std::chrono::milliseconds(Opts.HeartbeatTimeoutMs))
      Stale.push_back(Id);
  for (uint64_t Id : Stale)
    evictLocked(Id, "heartbeat-timeout");

  auto Timeout = std::chrono::milliseconds(Opts.BatchTimeoutMs);
  failWhereLocked(
      [Now, Timeout](const Batch &B) {
        return B.AssignedTo && Now - B.DispatchedAt > Timeout;
      },
      "deadline");
}

Json WorkerPool::poll(uint64_t WorkerId, const Json &Req) {
  int64_t WaitMs = Req.get("wait_ms").asInt(0);
  WaitMs = std::clamp<int64_t>(WaitMs, 0, PollWaitCapMs);
  auto Deadline = Clock::now() + std::chrono::milliseconds(WaitMs);

  MutexLock Lock(M);
  for (;;) {
    auto WIt = Workers.find(WorkerId);
    if (WIt == Workers.end())
      return errorReply("unknown worker"); // the worker reconnects
    auto Now = Clock::now();
    // A finished wait ends the extension below: seen now, not at the
    // wait's deadline, so a batch holder's silence counts from here.
    WIt->second.LastSeen = std::min(WIt->second.LastSeen, Now);

    if (!Stopping)
      for (auto &[Id, B] : Batches) {
        (void)Id;
        if (B.AssignedTo)
          continue;
        B.AssignedTo = WorkerId;
        B.DispatchedAt = Now;
        return okReply("batch", B.Payload);
      }

    if (Stopping || Now >= Deadline)
      return okReply("idle", true);
    // A blocked poller is alive by definition: it counts as seen until
    // its wait ends, so the reaper never evicts it mid-wait.
    WIt->second.LastSeen = Deadline;
    WorkCV.waitUntilSteady(Lock, Deadline);
  }
}

Json WorkerPool::result(uint64_t WorkerId, const Json &Req) {
  uint64_t BatchId = static_cast<uint64_t>(Req.get("batch_id").asInt());
  const Json &Costs = Req.get("costs");

  MutexLock Lock(M);
  if (!Workers.count(WorkerId))
    return errorReply("unknown worker");

  auto BIt = Batches.find(BatchId);
  if (BIt == Batches.end() || BIt->second.AssignedTo != WorkerId) {
    // Not in flight on this worker: the batch already failed (its
    // deadline passed, or shutdown) and its points are costed locally,
    // or another worker holds it. Acknowledge so the worker moves on;
    // insert nothing, valid or not.
    return okReply("stale", true);
  }
  Batch &B = BIt->second;

  // Structural validation: one cost slot per point, each null (the
  // worker could not evaluate the point; the local loop re-derives that)
  // or a finite, non-negative number (a cost counts cycles). Anything
  // else is a protocol violation: insert nothing and evict the sender,
  // which fails this batch.
  bool Valid = Costs.isArray() && Costs.size() == B.Points.size();
  for (size_t I = 0; Valid && I < Costs.size(); ++I) {
    const Json &C = Costs.at(I);
    Valid = C.isNull() ||
            (C.isNumber() && std::isfinite(C.asNumber()) && C.asNumber() >= 0);
  }
  if (!Valid) {
    evictLocked(WorkerId, "garbage-result");
    return errorReply("malformed result");
  }

  for (size_t I = 0; I < Costs.size(); ++I)
    if (!Costs.at(I).isNull())
      B.Cache->insert(B.Points[I].Key, Costs.at(I).asNumber());
  ++TotalCompleted;
  finishBatchLocked(BatchId);
  return okReply();
}

void WorkerPool::seen(uint64_t WorkerId) {
  MutexLock Lock(M);
  if (auto It = Workers.find(WorkerId); It != Workers.end())
    It->second.LastSeen = Clock::now();
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

  uint64_t First, End;
  {
    MutexLock Lock(M);
    if (Stopping || Workers.empty())
      return; // no fleet — the caller's local path covers everything

    size_t Shards = std::min(Workers.size(), Points.size());
    First = NextBatchId;
    size_t Base = Points.size() / Shards, Extra = Points.size() % Shards;
    size_t Off = 0;
    for (size_t S = 0; S < Shards; ++S) {
      size_t Count = Base + (S < Extra ? 1 : 0);
      Batch B;
      B.Id = NextBatchId++;
      B.Points.assign(Points.begin() + Off, Points.begin() + Off + Count);
      Off += Count;
      B.Cache = &Cache;
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
    End = NextBatchId;
    TotalDispatched += Shards;
    ECO_LOG(Debug) << "fleet: dispatching " << Points.size()
                   << " point(s) as " << Shards << " batch(es) across "
                   << Workers.size() << " worker(s) [" << Stage << "]";
  }
  WorkCV.notify_all();

  MutexLock Lock(M);
  while (anyLeftLocked(First, End)) {
    if (Workers.empty()) {
      // Fleet gone: fail this call's queued batches now instead of
      // waiting for a poller that will never come.
      failWhereLocked(
          [First, End](const Batch &B) { return B.Id >= First && B.Id < End; },
          "no-workers");
      break;
    }
    DoneCV.wait_for(Lock, std::chrono::milliseconds(50));
    reapLocked(Clock::now());
  }
}

void WorkerPool::shutdown() {
  MutexLock Lock(M);
  Stopping = true;
  failWhereLocked([](const Batch &) { return true; }, "shutdown");
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
