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
/// The protocol is worker-initiated on the existing line-JSON wire and
/// has three verbs: a worker registers (`worker.hello`), long-polls for
/// batches (`worker.poll`), and reports costs (`worker.result`). The
/// daemon never pushes unsolicited data, so the one-request/one-response
/// framing of serve/Protocol.h is untouched.
///
/// Identity and liveness are the connection. The Server registers a
/// connection at most once, at its hello, and hands every later verb
/// from it that registration's id; no request names a worker. Any line
/// from a registered connection (`ping` included) keeps it alive
/// through seen(), and a worker blocked in worker.poll counts as seen
/// until its wait ends. A connection that sends a verb without having
/// registered, or after its registration was evicted, gets an error
/// reply and takes no batch; the worker answers any error by
/// reconnecting and saying hello again.
///
/// Failure model — one rule: a batch is dispatched once, and a failure
/// is costed at home. Each of
///
///  * a disconnect (the worker's connection closed, e.g. SIGKILL; the
///    Server calls disconnected()),
///  * a heartbeat timeout (no line from the worker's connection for
///    HeartbeatTimeoutMs),
///  * a missed per-batch deadline (BatchTimeoutMs),
///  * a malformed worker.result (wrong arity, or a slot that is neither
///    null nor a finite, non-negative number),
///  * an empty fleet, and
///  * shutdown
///
/// resolves the batch through one failLocked(): it counts in
/// batches_failed, publishes one `batch.failed` event, and leaves the
/// batch's points uncached, so the engine's decision loop costs them
/// locally. The simulated cost is a pure function of (variant, machine,
/// config), so the winner is bit-identical to a never-had-workers run
/// whatever the fleet does. A disconnect, a heartbeat timeout and a
/// malformed result also evict the sender, failing its other in-flight
/// batches with it; a missed deadline does not (slow is not dead). A
/// result for a batch that is not in flight on its sender (it already
/// failed, or another worker holds it), valid or malformed, is
/// acknowledged `stale` and never inserted.
///
/// There is no retry: shards are sized to the live fleet, so a second
/// dispatch of a shard could start only after some worker finished its
/// own shard of the same call, and would end no sooner than the
/// decision loop costing those points itself.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SERVE_FLEET_H
#define ECO_SERVE_FLEET_H

#include "engine/Engine.h"
#include "support/Json.h"
#include "support/Sync.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace eco {
namespace serve {

/// Fleet dispatch knobs.
struct FleetOptions {
  /// A worker whose connection sends no line this long is evicted.
  int HeartbeatTimeoutMs = 5000;
  /// Per-batch deadline; a batch still in flight past it fails.
  int BatchTimeoutMs = 30000;
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
  /// The liveness cadence a worker keeps: a busy one sends `ping`
  /// between points every half of this.
  static constexpr int HeartbeatIntervalMs = 500;
  /// Cap on a worker.poll long-poll wait, so Server::stop() joins
  /// connection threads promptly.
  static constexpr int PollWaitCapMs = 1000;

  explicit WorkerPool(FleetOptions Opts = {});
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  // --- wire side (one call per protocol verb) ---
  //
  // \p WorkerId is the id the sender's connection registered, never a
  // field of the request; 0 (not registered) or an evicted id gets an
  // error reply.

  /// worker.hello {name} -> {ok, worker_id}. Registers a new worker.
  Json hello(const Json &Req);
  /// worker.poll {wait_ms} -> {ok, batch:{...}} | {ok, idle:true}.
  /// Blocks up to min(wait_ms, PollWaitCapMs) for work.
  Json poll(uint64_t WorkerId, const Json &Req);
  /// worker.result {batch_id, costs:[num|null,...]} -> {ok}. A result
  /// for a batch not in flight on \p WorkerId returns {ok, stale:true};
  /// a malformed one evicts \p WorkerId.
  Json result(uint64_t WorkerId, const Json &Req);
  /// A line arrived from \p WorkerId's connection: it is alive now.
  void seen(uint64_t WorkerId);
  /// The worker's connection closed (EOF / SIGKILL): evict immediately
  /// and fail its in-flight batches.
  void disconnected(uint64_t WorkerId);

  // --- dispatch side ---

  size_t liveWorkers() const;

  /// Shards \p Points contiguously across the live workers and blocks
  /// until every shard completes or fails. Completed costs are inserted
  /// into \p Cache under each point's Key; a failed shard's points stay
  /// uncached. Returns immediately when there are no live workers.
  /// Never throws.
  void evalBatch(const BatchContext &Ctx,
                 const std::vector<RemotePoint> &Points,
                 const std::string &Stage, EvalCache &Cache);

  /// Fails all outstanding batches and wakes every waiter; subsequent
  /// evalBatch calls return immediately.
  void shutdown();

  /// Fleet counters for the stats verb: live workers, lifetime
  /// joins/losses, batches dispatched/failed/completed/outstanding.
  Json statsJson() const;

private:
  using Clock = std::chrono::steady_clock;

  struct Worker {
    uint64_t Id = 0;
    std::string Name;
    Clock::time_point LastSeen;
  };

  struct Batch {
    uint64_t Id = 0;
    Json Payload; ///< prebuilt wire object handed to worker.poll
    std::vector<RemotePoint> Points;
    EvalCache *Cache = nullptr;
    uint64_t AssignedTo = 0; ///< worker id once dispatched; 0 while queued
    Clock::time_point DispatchedAt;
  };

  /// Evicts \p WorkerId with \p Reason, failing its in-flight batches.
  void evictLocked(uint64_t WorkerId, const std::string &Reason)
      ECO_REQUIRES(M);
  /// The one way a batch fails: counts it, publishes `batch.failed`, and
  /// resolves it with its points uncached. \p B is gone on return.
  void failLocked(Batch &B, const std::string &Reason) ECO_REQUIRES(M);
  /// Fails every batch \p Match selects.
  void failWhereLocked(const std::function<bool(const Batch &)> &Match,
                       const std::string &Reason) ECO_REQUIRES(M);
  /// Heartbeat eviction + batch deadline sweep.
  void reapLocked(Clock::time_point Now) ECO_REQUIRES(M);
  /// Drops \p Id from Batches and wakes its evalBatch.
  void finishBatchLocked(uint64_t Id) ECO_REQUIRES(M);
  /// True while any batch id in [\p First, \p End) is queued or in
  /// flight.
  bool anyLeftLocked(uint64_t First, uint64_t End) const ECO_REQUIRES(M);

  FleetOptions Opts;

  mutable Mutex M{"serve.fleet"};
  CondVar WorkCV; ///< pollers wait: batch available
  CondVar DoneCV; ///< evalBatch waits: batch resolved
  bool Stopping ECO_GUARDED_BY(M) = false;

  std::map<uint64_t, Worker> Workers ECO_GUARDED_BY(M);
  std::map<uint64_t, Batch> Batches ECO_GUARDED_BY(M); ///< queued+in-flight
  uint64_t NextWorkerId ECO_GUARDED_BY(M) = 1;
  /// One evalBatch call's batches take consecutive ids; the call waits
  /// until none of them is left in Batches.
  uint64_t NextBatchId ECO_GUARDED_BY(M) = 1;

  // Lifetime counters (also mirrored into obs metrics when enabled).
  uint64_t TotalJoined ECO_GUARDED_BY(M) = 0;
  uint64_t TotalLost ECO_GUARDED_BY(M) = 0;
  uint64_t TotalDispatched ECO_GUARDED_BY(M) = 0;
  uint64_t TotalFailed ECO_GUARDED_BY(M) = 0;
  uint64_t TotalCompleted ECO_GUARDED_BY(M) = 0;
};

} // namespace serve
} // namespace eco

#endif // ECO_SERVE_FLEET_H
