//===- serve/Fleet.h - Remote evaluation worker fleet ----------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// WorkerPool dispatches warm evaluation batches to remote `eco_worker`
/// processes. Empirical search cost dominates tuning wall time (the
/// paper's §4.3 search-cost comparison), so evaluations are the thing
/// worth fanning out beyond one process.
///
/// The protocol is worker-initiated on the existing line-JSON wire:
/// workers register (`worker.hello`), long-poll for batches
/// (`worker.poll`), stream liveness (`worker.heartbeat`), and report
/// costs (`worker.result`). The daemon never pushes unsolicited data, so
/// the one-request/one-response framing of serve/Protocol.h is
/// untouched.
///
/// Failure model — every path degrades, none corrupts:
///
///  * per-batch deadline (BatchTimeoutMs): a straggling batch is
///    re-queued for another worker; the original's late result is still
///    accepted (results are keyed by EvalKey and EvalCache::insert is
///    idempotent for deterministic costs, so duplicate completions are
///    harmless);
///  * bounded retry with exponential backoff: a batch re-dispatches at
///    most MaxAttempts times, waiting min(Base << (attempt-1), Max)
///    between attempts;
///  * heartbeat eviction: a worker silent for HeartbeatTimeoutMs is
///    evicted and its in-flight batches re-queued; a SIGKILLed worker is
///    caught even faster by its connection closing (Server calls
///    disconnected());
///  * garbage results: a structurally invalid worker.result strikes the
///    worker (evicted after MaxStrikes consecutive garbage reports — a
///    valid result resets the count) and re-queues the batch if it is
///    still in flight on that worker; costs are never inserted from a
///    malformed report;
///  * fleet shrinks to zero: evalBatch() fails the remaining batches
///    immediately and returns — the points stay uncached, so the
///    engine's sequential decision loop evaluates them locally and the
///    tuned winner is bit-identical to a never-had-workers run.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SERVE_FLEET_H
#define ECO_SERVE_FLEET_H

#include "engine/Engine.h"
#include "support/Json.h"
#include "support/Sync.h"

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace eco {
namespace serve {

/// Fleet dispatch knobs.
struct FleetOptions {
  /// A worker silent (no poll/result/heartbeat) this long is evicted.
  int HeartbeatTimeoutMs = 5000;
  /// Per-batch deadline; a straggler past it is re-dispatched.
  int BatchTimeoutMs = 30000;
  /// Dispatch attempts per batch before it fails to local fallback.
  int MaxAttempts = 3;
  /// Exponential backoff between attempts: min(Base << (n-1), Max).
  int BackoffBaseMs = 50;
  int BackoffMaxMs = 2000;
  /// Structurally invalid results tolerated before eviction.
  int MaxStrikes = 2;
};

/// What a batch's points need beyond variant + config to be rebuilt
/// remotely: the kernel/machine pair and the representative size the
/// variants were derived for.
struct BatchContext {
  std::string Kernel;
  std::string Machine;
  unsigned Scale = 1;
  int64_t RepSize = 0;

  auto operator<=>(const BatchContext &) const = default;
};

/// A BatchContext rebuilt by name: the machine, the variants derived at
/// the representative size (derivation order is stable, so they carry
/// the tune's names), and one simulator of the machine for the caller's
/// EvalEngine to cost them on.
struct PointContext {
  MachineDesc Machine;
  std::vector<DerivedVariant> Variants;
  std::unique_ptr<SimEvalBackend> Backend;

  /// The variant named \p Name, or nullptr.
  const DerivedVariant *variant(const std::string &Name) const;
  /// Binds \p Config against \p V by name, strictly: a name that is not
  /// a Param/ProblemSize symbol, or such a symbol left unbound, is an
  /// error (false + \p Error), never a 0.
  static bool bind(const DerivedVariant &V, const ParamBindings &Config,
                   Env &Out, std::string *Error);
};

/// The one resolver from a point named by value to its rebuilt variant,
/// shared by the fleet worker and the DB audit. It keeps a PointContext
/// per BatchContext it was asked for, so interleaved batches of
/// concurrent tunes never rebuild one twice. Not thread-safe: one per
/// worker loop or audit.
class PointResolver {
public:
  /// The context \p Ctx names, rebuilt on first use; nullptr + \p Error
  /// on an unknown name or scale 0.
  const PointContext *resolve(const BatchContext &Ctx, std::string *Error);

private:
  std::map<BatchContext, PointContext> Contexts;
};

/// The dispatcher. Wire-side methods are called by Server connection
/// threads; evalBatch() is called by TuneService job workers through the
/// engine's RemoteWarm hook. All state is guarded by one mutex; waits
/// are condition-variable laps so nothing blocks past its deadline.
class WorkerPool {
public:
  /// Heartbeat interval advertised to workers at hello.
  static constexpr int HeartbeatIntervalMs = 500;
  /// Cap on a worker.poll long-poll wait, so Server::stop() joins
  /// connection threads promptly.
  static constexpr int PollWaitCapMs = 1000;

  explicit WorkerPool(FleetOptions Opts = {});
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  // --- wire side (one call per protocol verb) ---

  /// worker.hello {name} -> {ok, worker_id, heartbeat_ms}.
  Json hello(const Json &Req);
  /// worker.poll {worker_id, wait_ms} -> {ok, batch:{...}} | {ok,
  /// idle:true}. Blocks up to min(wait_ms, PollWaitCapMs) for work.
  Json poll(const Json &Req);
  /// worker.result {worker_id, batch_id, costs:[num|null,...]} -> {ok}.
  /// A result for an already-resolved batch returns {ok, stale:true}.
  Json result(const Json &Req);
  /// worker.heartbeat {worker_id} -> {ok}.
  Json heartbeat(const Json &Req);
  /// The worker's connection closed (EOF / SIGKILL): evict immediately
  /// and re-queue its in-flight batches.
  void disconnected(uint64_t WorkerId);

  // --- dispatch side ---

  size_t liveWorkers() const;

  /// Shards \p Points contiguously across the live workers and blocks
  /// until every shard completes, fails, or the fleet empties. Completed
  /// costs are inserted into \p Cache under each point's Key. Returns
  /// immediately when there are no live workers. Never throws.
  void evalBatch(const BatchContext &Ctx,
                 const std::vector<RemotePoint> &Points,
                 const std::string &Stage, EvalCache &Cache);

  /// Fails all outstanding batches and wakes every waiter; subsequent
  /// evalBatch calls return immediately.
  void shutdown();

  /// Fleet counters for the stats verb: live workers, lifetime
  /// joins/losses, batches dispatched/retried/failed.
  Json statsJson() const;

private:
  using Clock = std::chrono::steady_clock;

  struct Worker {
    uint64_t Id = 0;
    std::string Name;
    Clock::time_point LastSeen;
    int Strikes = 0;
  };

  enum class BatchState { Queued, InFlight };

  struct Batch {
    uint64_t Id = 0;
    Json Payload; ///< prebuilt wire object handed to worker.poll
    std::vector<RemotePoint> Points;
    EvalCache *Cache = nullptr;
    BatchState State = BatchState::Queued;
    int Attempts = 0;           ///< incremented at each assignment
    uint64_t AssignedTo = 0;    ///< worker id (InFlight only)
    Clock::time_point DispatchedAt;
    Clock::time_point NotBefore; ///< backoff gate while Queued
    uint64_t Group = 0;          ///< owning evalBatch call
  };

  /// Evicts \p WorkerId with \p Reason, re-queuing its in-flight
  /// batches.
  void evictLocked(uint64_t WorkerId, const std::string &Reason)
      ECO_REQUIRES(M);
  /// Re-queues or fails \p B after a failed attempt.
  void requeueLocked(Batch &B, const std::string &Reason) ECO_REQUIRES(M);
  /// Heartbeat eviction + straggler re-dispatch sweep.
  void reapLocked(Clock::time_point Now) ECO_REQUIRES(M);
  /// Drops \p Id from Batches and wakes its evalBatch.
  void finishBatchLocked(uint64_t Id) ECO_REQUIRES(M);

  FleetOptions Opts;

  mutable Mutex M{"serve.fleet"};
  CondVar WorkCV; ///< pollers wait: batch available
  CondVar DoneCV; ///< evalBatch waits: batch resolved
  bool Stopping ECO_GUARDED_BY(M) = false;

  std::map<uint64_t, Worker> Workers ECO_GUARDED_BY(M);
  std::map<uint64_t, Batch> Batches ECO_GUARDED_BY(M); ///< queued+in-flight
  uint64_t NextWorkerId ECO_GUARDED_BY(M) = 1;
  uint64_t NextBatchId ECO_GUARDED_BY(M) = 1;
  uint64_t NextGroupId ECO_GUARDED_BY(M) = 1;
  /// Per-group count of unresolved batches; evalBatch waits for its
  /// group's count to hit zero.
  std::map<uint64_t, size_t> GroupRemaining ECO_GUARDED_BY(M);

  // Lifetime counters (also mirrored into obs metrics when enabled).
  uint64_t TotalJoined ECO_GUARDED_BY(M) = 0;
  uint64_t TotalLost ECO_GUARDED_BY(M) = 0;
  uint64_t TotalDispatched ECO_GUARDED_BY(M) = 0;
  uint64_t TotalRetried ECO_GUARDED_BY(M) = 0;
  uint64_t TotalFailed ECO_GUARDED_BY(M) = 0;
  uint64_t TotalCompleted ECO_GUARDED_BY(M) = 0;
};

} // namespace serve
} // namespace eco

#endif // ECO_SERVE_FLEET_H
