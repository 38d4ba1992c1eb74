//===- serve/Server.h - Tuning-as-a-service daemon core --------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serve subsystem's two halves:
///
///  * TuneService — the scheduler. A bounded priority queue of tuning
///    jobs drains into a worker pool; each worker builds the requested
///    kernel + machine, consults the ConfigDB (exact hit -> answer with
///    zero evaluations; nearest hit -> warm-start the search through
///    SearchOptions::WarmStartConfig), and runs the regular two-phase
///    tune through an EvalEngine. All workers' engines memoize into one
///    shared EvalCache, so concurrent jobs reuse each other's
///    evaluations. Only a deadline stops a tune early, cooperatively
///    through SearchOptions::ShouldStop: an expired tune returns its
///    best-so-far but is not stored. Shutdown drains: every admitted
///    job runs to completion. Backpressure is explicit: submitting to a full
///    queue (or a draining service) resolves immediately with
///    status "rejected", never blocks.
///
///  * Server — the wire front end. Listens on a unix-domain socket
///    and/or a TCP port, one thread per connection, speaking the
///    line-delimited JSON protocol (serve/Protocol.h). A "shutdown"
///    request flips a flag the daemon's main loop watches; the daemon
///    then stops the listeners and drains the service. The "metrics"
///    (Prometheus text of the obs registry) and "jobs" (live per-job
///    state) verbs answer from in-memory state without touching the
///    scheduler's queue lock for longer than a snapshot, so a scrape
///    mid-tune stays cheap.
///
/// Serving is simulator-only by design: the simulated cost is a pure
/// function of (kernel, machine, config), which is what makes stored
/// results bitwise replayable (check/DbAudit) and cache sharing sound.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SERVE_SERVER_H
#define ECO_SERVE_SERVER_H

#include "engine/EvalCache.h"
#include "serve/ConfigDB.h"
#include "serve/Fleet.h"
#include "serve/Protocol.h"
#include "support/Sync.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace eco {
namespace serve {

/// One submitted job: the spec, its place in time, and a promise-like
/// completion slot the submitting connection blocks on.
class ServeJob {
public:
  ServeJob(uint64_t Id, JobSpec Spec) : Id(Id), Spec(std::move(Spec)) {}

  const uint64_t Id;
  const JobSpec Spec;
  /// Stamped by TuneService::submit.
  std::chrono::steady_clock::time_point SubmitTime;
  /// SubmitTime + DeadlineMs; only meaningful when Spec.DeadlineMs > 0.
  std::chrono::steady_clock::time_point Deadline;

  // Live-introspection state (the "jobs" protocol verb). Written by the
  // scheduler / the running tune, read concurrently by jobsJson().
  /// obs::monotonicMicros() at submission.
  uint64_t SubmitUs = 0;
  /// obs::monotonicMicros() when a worker picked the job up (0 = queued).
  std::atomic<uint64_t> StartUs{0};
  /// Progress ticks: the tune's ShouldStop hook is polled once per
  /// candidate evaluation, so this approximates evaluations done.
  std::atomic<uint64_t> Ticks{0};
  /// Evaluation-count estimate (the warm-seed's recorded evaluations);
  /// 0 when there is no basis for an ETA.
  std::atomic<uint64_t> ExpectedTicks{0};

  /// True once the job resolved (done/rejected/expired/failed).
  bool done() const;
  /// Blocks until the job resolves; returns the result.
  JobResult wait();
  /// Resolves the job (exactly once) and wakes waiters.
  void finish(JobResult R);

private:
  /// mutable so const snapshots (done()) lock without a const_cast.
  mutable Mutex M{"serve.job"};
  CondVar CV;
  bool Finished ECO_GUARDED_BY(M) = false;
  JobResult Result ECO_GUARDED_BY(M);
};

/// TuneService construction knobs.
struct ServiceOptions {
  /// ConfigDB persistence path; empty = in-memory DB.
  std::string DbPath;
  /// Worker threads draining the queue (concurrent tunes).
  int Workers = 1;
  /// Jobs admitted but not yet running; submit() past this rejects.
  size_t QueueCapacity = 16;
  /// EvalEngine lanes per worker (per-job tune parallelism).
  int EngineJobs = 1;
  /// Test-only gate, called by a worker after popping a job and before
  /// any tuning work. Tests block in it to hold workers busy, making
  /// queue-full, priority and deadline scenarios deterministic.
  std::function<void(const JobSpec &)> TestGate;
  /// Remote worker fleet dispatch knobs (serve/Fleet.h). The fleet is
  /// always constructed; with no registered workers it costs nothing
  /// (the engine's RemoteWarmGate skips batch export entirely).
  FleetOptions Fleet;
};

/// The tuning scheduler: bounded priority queue + worker pool + ConfigDB.
class TuneService {
public:
  explicit TuneService(ServiceOptions Opts = {});
  /// Drains (waits for queued + running jobs) and persists the DB.
  ~TuneService();

  /// Enqueues \p Spec. Always returns a job; when the queue is full or
  /// the service is draining the job is already resolved with
  /// status "rejected" (explicit backpressure, no blocking). Higher
  /// Priority pops first; FIFO within a priority.
  std::shared_ptr<ServeJob> submit(const JobSpec &Spec);

  /// Convenience: submit and block until resolution.
  JobResult run(const JobSpec &Spec) { return submit(Spec)->wait(); }

  ConfigDB &db() { return Db; }

  /// The remote evaluation worker fleet (wire verbs + dispatch). Warm
  /// batches shard across its registered workers; see serve/Fleet.h.
  WorkerPool &workers() { return *Pool; }

  /// Jobs admitted but not yet popped by a worker.
  size_t queueDepth() const;

  /// Lifetime counters + queue state as a JSON object (the "stats" op).
  Json statsJson() const;

  /// Live per-job state (the "jobs" op): every queued or running job
  /// with queue wait, phase, progress ticks, and — when a warm seed
  /// supplied an evaluation-count estimate — a naive ETA.
  Json jobsJson() const;

  /// Stops accepting new jobs, waits for the queue to empty and every
  /// running job to finish, joins the workers, and saves the DB. Jobs
  /// already admitted run to completion (graceful SIGTERM semantics).
  void drain();

private:
  void workerLoop();
  /// Runs \p Job; \p QueueDepth is what its pop left in the queue.
  void execute(ServeJob &Job, size_t QueueDepth);
  /// Resolves \p Job, bumps the status counter and publishes
  /// job.finished.
  void finishJob(ServeJob &Job, JobResult R);

  ServiceOptions Opts;
  ConfigDB Db;
  std::shared_ptr<EvalCache> SharedCache;
  std::unique_ptr<WorkerPool> Pool;

  mutable Mutex QM{"serve.queue"};
  CondVar QCV;    ///< workers wait: queue non-empty | stop
  CondVar DrainCV;///< drain waits: queue empty & idle
  /// {-Priority, Seq} -> job: begin() is the highest priority, oldest.
  std::map<std::pair<int, uint64_t>, std::shared_ptr<ServeJob>> Queue
      ECO_GUARDED_BY(QM);
  uint64_t NextSeq ECO_GUARDED_BY(QM) = 0;
  uint64_t NextJobId ECO_GUARDED_BY(QM) = 1;
  size_t Running ECO_GUARDED_BY(QM) = 0;
  bool Draining ECO_GUARDED_BY(QM) = false;

  std::vector<std::thread> Workers;

  // Lifetime accounting (also mirrored into obs metrics when enabled).
  mutable Mutex SM{"serve.stats"};
  /// By JobResult::Status.
  std::map<std::string, uint64_t> StatusCounts ECO_GUARDED_BY(SM);
  /// exact/nearest/cold.
  std::map<std::string, uint64_t> WarmCounts ECO_GUARDED_BY(SM);
  uint64_t Submitted ECO_GUARDED_BY(SM) = 0;
  /// Queued + running jobs, for jobsJson(). weak_ptr: introspection
  /// must never extend a job's lifetime past its waiter.
  std::map<uint64_t, std::weak_ptr<ServeJob>> Live ECO_GUARDED_BY(SM);
};

// Forward-declared here so Server.cpp owns the POSIX socket details.
class Listener;

/// Server construction knobs.
struct ServerOptions {
  /// Unix-domain socket path; empty = no unix listener.
  std::string UnixPath;
  /// TCP port; -1 = no TCP listener, 0 = bind an ephemeral port
  /// (query it back with Server::port()).
  int TcpPort = -1;
  std::string TcpHost = "127.0.0.1";
};

/// Socket front end over a TuneService.
class Server {
public:
  Server(TuneService &Service, ServerOptions Opts);
  ~Server();

  /// Binds and starts the accept loops. False + \p Error when no
  /// listener could be created.
  bool start(std::string *Error = nullptr);

  /// Closes listeners, disconnects clients, joins every thread.
  /// Idempotent. Does NOT drain the service — the daemon does that
  /// after stop() so in-flight jobs still resolve.
  void stop();

  /// The TCP port actually bound (-1 without a TCP listener).
  int port() const { return BoundPort; }

  /// A client sent {"op":"shutdown"}.
  bool shutdownRequested() const {
    return ShutdownFlag.load(std::memory_order_relaxed);
  }

  /// Connection entries still tracked (live handlers plus finished ones
  /// not yet reaped by the next accept). Tests pin down that a
  /// long-running daemon does not accumulate one zombie thread per
  /// served connection.
  size_t liveConnections() const ECO_EXCLUDES(ConnMutex);

private:
  /// One served connection. The handler thread owns Fd; Done flips
  /// under ConnMutex when the handler is about to return, making the
  /// thread joinable without blocking. std::list keeps entry addresses
  /// stable while handlers hold references to their own entries.
  struct Conn {
    int Fd = -1;       ///< -1 once the handler closed it
    bool Done = false; ///< handler finished; safe to join + erase
    std::thread T;
  };

  void acceptLoop(Listener *L);
  void handleConnection(int Fd, Conn &C);
  /// One request -> one response object. \p ConnWorkerId is the fleet
  /// worker registered on this connection (0 = none), the one worker
  /// identity (serve/Fleet.h): the connection's first worker.hello sets
  /// it and a second is refused; worker.poll and worker.result act as
  /// it, whatever id the line names; any line refreshes its liveness;
  /// and handleConnection evicts it when the connection dies — the
  /// instant-detection path for a SIGKILLed worker. The failure model is
  /// serve/Fleet.h's: a batch is dispatched once, a failure is costed at
  /// home.
  Json handleRequest(const Json &Request, uint64_t &ConnWorkerId);

  TuneService &Service;
  ServerOptions Opts;
  int BoundPort = -1;
  std::vector<std::unique_ptr<Listener>> Listeners;
  std::vector<std::thread> AcceptThreads;

  mutable Mutex ConnMutex{"serve.conns"};
  std::list<Conn> Conns ECO_GUARDED_BY(ConnMutex);
  bool Stopping ECO_GUARDED_BY(ConnMutex) = false;

  std::atomic<bool> ShutdownFlag{false};
};

/// The one name table. knownNames is true when it knows both names,
/// without building a nest (request validation); buildKernel and
/// buildMachine build what a name denotes. Each is false on an unknown
/// name, and buildMachine also on scale 0 (the host preset otherwise
/// ignores the scale), with the reason in \p Error.
bool knownNames(const std::string &Kernel, const std::string &Machine,
                std::string *Error);
bool buildKernel(const std::string &Kernel, LoopNest &Nest,
                 std::string *Error = nullptr);
bool buildMachine(const std::string &Machine, unsigned Scale,
                  MachineDesc &Out, std::string *Error = nullptr);

} // namespace serve
} // namespace eco

#endif // ECO_SERVE_SERVER_H
