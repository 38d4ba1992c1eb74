//===- bench/bench_fleet_dispatch.cpp - Fleet dispatch overhead -----------===//
//
// The same cold force-tune run twice through the real daemon plumbing
// (TuneService + Server over a unix-domain socket): once purely locally
// and once with every warm batch shipped to a single eco_worker
// (in-process, over the real socket). The wall-time delta is not pure
// dispatch cost (payload building, wire round trips, cache insertion):
// it also carries the worker's own instantiations, since its EvalEngine
// memoizes apart from the daemon's, and every shipped warm point the
// local decision loop would not have costed. Gate: overhead <= 10% of
// the local run, and the winner bit-identical.
//
// Results are emitted as BENCH_fleet_dispatch.json.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "serve/Worker.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

using namespace eco;
using namespace eco::serve;

int main() {
  std::printf("\n=== fleet dispatch: 1 worker vs purely local ===\n");

  JobSpec OverheadSpec;
  OverheadSpec.Kernel = "matmul";
  OverheadSpec.Machine = "sgi";
  OverheadSpec.Scale = 16;
  OverheadSpec.N = 96;
  OverheadSpec.ForceRetune = true; // cold both times: same work, no DB help

  JobResult LocalRes;
  double LocalSec = 0;
  {
    TuneService Local;
    Timer T;
    LocalRes = Local.run(OverheadSpec);
    LocalSec = T.seconds();
  }
  if (!LocalRes.ok()) {
    std::fprintf(stderr, "local overhead tune failed: %s\n",
                 LocalRes.Error.c_str());
    return 1;
  }

  JobResult FleetRes;
  double FleetSec = 0;
  {
    TuneService Service;
    ServerOptions FleetOpts;
    FleetOpts.UnixPath = "bench_fleet_dispatch.sock";
    std::remove(FleetOpts.UnixPath.c_str());
    Server FleetSrv(Service, FleetOpts);
    std::string Err;
    if (!FleetSrv.start(&Err)) {
      std::fprintf(stderr, "fleet server start failed: %s\n", Err.c_str());
      return 1;
    }
    std::atomic<bool> Stop{false};
    WorkerOptions WOpts;
    WOpts.Socket = FleetOpts.UnixPath;
    WOpts.Name = "bench";
    WOpts.PollWaitMs = 100;
    WOpts.TimeoutMs = 10000;
    WOpts.Stop = &Stop;
    std::thread W([&WOpts] { runWorker(WOpts); });
    for (int I = 0; I < 500 && Service.workers().liveWorkers() < 1; ++I)
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Timer T;
    FleetRes = Service.run(OverheadSpec);
    FleetSec = T.seconds();
    Stop.store(true);
    W.join();
    FleetSrv.stop();
    Service.drain();
    std::remove(FleetOpts.UnixPath.c_str());
  }
  if (!FleetRes.ok()) {
    std::fprintf(stderr, "fleet overhead tune failed: %s\n",
                 FleetRes.Error.c_str());
    return 1;
  }

  // The ratio reads as overhead (see the header for what it carries);
  // evals/sec uses the local run's (complete) count.
  double LocalRate = LocalSec > 0 ? LocalRes.Evaluations / LocalSec : 0;
  double FleetRate = FleetSec > 0 ? LocalRes.Evaluations / FleetSec : 0;
  double Overhead = LocalSec > 0 ? (FleetSec - LocalSec) / LocalSec : 0;
  bool FleetFast = FleetSec <= LocalSec * 1.10;
  bool FleetSame = FleetRes.Cost == LocalRes.Cost &&
                   FleetRes.Variant == LocalRes.Variant &&
                   FleetRes.Config == LocalRes.Config;
  std::printf("local:  %.3fs  (%llu evals, %.0f evals/s)\n", LocalSec,
              static_cast<unsigned long long>(LocalRes.Evaluations),
              LocalRate);
  std::printf("fleet:  %.3fs  (1 worker, %.0f evals/s through dispatch, "
              "%llu evaluated locally)\n",
              FleetSec, FleetRate,
              static_cast<unsigned long long>(FleetRes.Evaluations));
  std::printf("  acceptance: dispatch overhead %+.1f%% %s (bar: <= 10%%), "
              "winner %s\n",
              100 * Overhead, FleetFast ? "PASS" : "FAIL",
              FleetSame ? "bit-identical PASS" : "DIVERGED FAIL");
  bool FleetPass = FleetFast && FleetSame;

  Json Out = Json::object();
  Out.set("bench", "fleet_dispatch");
  Out.set("machine", "sgi/16");
  Out.set("localSeconds", LocalSec);
  Out.set("fleetSeconds", FleetSec);
  Out.set("localEvalsPerSec", LocalRate);
  Out.set("fleetEvalsPerSec", FleetRate);
  Out.set("dispatchOverhead", Overhead);
  Out.set("winnerBitIdentical", FleetSame);
  Out.set("overheadBarPass", FleetPass);

  if (!Out.saveFile("BENCH_fleet_dispatch.json"))
    std::fprintf(stderr,
                 "warning: could not write BENCH_fleet_dispatch.json\n");
  else
    std::printf("\nwrote BENCH_fleet_dispatch.json\n");
  return FleetPass ? 0 : 1;
}
