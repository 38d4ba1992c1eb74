//===- serve/Worker.h - Remote evaluation worker ---------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `eco_worker` side of the fleet's three-verb protocol
/// (serve/Fleet.h): connect to the daemon, register with `worker.hello`,
/// long-poll for batches with `worker.poll`, evaluate each point on a
/// local simulator, and report costs with `worker.result`.
///
/// Identity and liveness are the connection: no request names a worker,
/// and any line keeps the registration alive, so a busy worker sends the
/// plain `ping` between points every WorkerPool::HeartbeatIntervalMs / 2.
/// Every error reply (after an eviction, or for a refused result) and
/// every transport failure takes one recovery path: drop the connection,
/// reconnect, and say hello again as a new worker. The failure model is
/// the daemon's (serve/Fleet.h): a batch this worker loses is costed at
/// home, so nothing it does can move a winner.
///
/// Determinism: the worker rebuilds each point from the batch alone
/// through serve::PointResolver, the resolver the DB audit uses (variant
/// names agree across processes because derivation order is stable),
/// and costs it through an EvalEngine over the context's simulator under
/// stage "remote", as the tuner would. The simulated cost is a
/// pure function of (variant, machine, config), and JSON numbers
/// round-trip doubles exactly, so a remote cost is bit-identical to the
/// local one.
///
/// A point the worker cannot evaluate — unknown variant name, a config
/// that does not bind, a transform that refuses the point — reports a
/// null cost: the daemon skips the cache insert and the tune's decision
/// loop re-derives the rejection (or evaluates locally) deterministically.
///
/// WorkerOptions::Chaos exists for the in-process fault-injection tests
/// only (it has no flag): a worker can be told to return garbage, freeze
/// mid-batch (heartbeat eviction path), or vanish mid-batch (the
/// in-process analogue of SIGKILL).
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SERVE_WORKER_H
#define ECO_SERVE_WORKER_H

#include <atomic>
#include <string>
#include <vector>

namespace eco {
namespace serve {

/// runWorker() knobs (the eco_worker flags map onto these).
struct WorkerOptions {
  /// Unix socket path to the daemon; used when Port < 0.
  std::string Socket = "eco_serve.sock";
  std::string Host = "127.0.0.1";
  int Port = -1;
  /// Display name reported at hello (shows up in worker.* events).
  std::string Name = "worker";
  /// Long-poll wait per worker.poll request.
  int PollWaitMs = 1000;
  /// Connect/roundTrip timeout for the worker's client.
  int TimeoutMs = 10000;
  /// Cooperative stop for in-process workers (tests run runWorker on a
  /// thread); checked between protocol round trips.
  std::atomic<bool> *Stop = nullptr;
  /// Fault injection: "" (none), "garbage" (malformed cost vectors),
  /// "freeze" (receive a batch, then go silent), "vanish" (receive a
  /// batch, then drop the connection and exit — SIGKILL analogue).
  std::string Chaos;
};

/// Runs the worker loop until the daemon disappears (reconnects
/// exhausted) or Stop is set. Returns a process exit code (0 = clean).
int runWorker(const WorkerOptions &Opts);

/// `eco_worker [flags]` / `eco_cli worker [flags]`:
///   --socket=PATH / --host=H --port=P   how to reach the daemon
///   --name=S          worker name (default "worker")
///   --poll-ms=MS      long-poll wait (default 1000)
///   --timeout-ms=MS   connect/response timeout (default 10000)
/// Numeric flags parse strictly: a malformed or out-of-range value
/// prints usage and returns 2. Logs at `info`, as the daemon does.
int workerToolMain(const std::vector<std::string> &Args);

} // namespace serve
} // namespace eco

#endif // ECO_SERVE_WORKER_H
