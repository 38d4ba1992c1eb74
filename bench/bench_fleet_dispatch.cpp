//===- bench/bench_fleet_dispatch.cpp - Fleet dispatch overhead -----------===//
//
// The same cold force-tune run through the real daemon plumbing
// (TuneService + Server over a unix-domain socket): once purely locally
// and once with every warm batch shipped to a single eco_worker
// (in-process, over the real socket). The wall-time delta is not pure
// dispatch cost (payload building, wire round trips, cache insertion):
// it also carries the worker's own instantiations, since its EvalEngine
// memoizes apart from the daemon's, and every shipped warm point the
// local decision loop would not have costed.
//
// One local/fleet sample spreads wider than the bar on a shared host, so
// the bench runs 5 pairs, alternating which side of a pair runs first,
// and prints every pair. Gate: the median overhead <= 10% of the local
// run, and the winner bit-identical in every pair.
//
// Each leg also reports the process CPU seconds (user + sys) its run
// took; the worker is an in-process thread, so the fleet leg's figure
// includes it. CPU seconds per point divides both legs by the local
// leg's evaluation count. These are measurements only, not gated.
//
// Results are emitted as BENCH_fleet_dispatch.json.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"
#include "serve/Worker.h"
#include "support/Json.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <optional>
#include <sys/resource.h>
#include <string>
#include <thread>
#include <vector>

using namespace eco;
using namespace eco::serve;

namespace {

struct Sample {
  JobResult Res;
  double Sec = 0;
  double CpuSec = 0; ///< process user + sys seconds during the run
};

double processCpuSeconds() {
  rusage U;
  ::getrusage(RUSAGE_SELF, &U);
  auto secs = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return secs(U.ru_utime) + secs(U.ru_stime);
}

/// Runs \p Spec on \p Service, timing wall and process CPU seconds.
Sample timedRun(TuneService &Service, const JobSpec &Spec) {
  double Cpu0 = processCpuSeconds();
  Timer T;
  Sample S{Service.run(Spec)};
  S.Sec = T.seconds();
  S.CpuSec = processCpuSeconds() - Cpu0;
  return S;
}

Sample runLocal(const JobSpec &Spec) {
  TuneService Local;
  return timedRun(Local, Spec);
}

/// Runs \p Spec with one in-process worker attached; nullopt (after
/// printing why) when the server does not start.
std::optional<Sample> runFleet(const JobSpec &Spec) {
  TuneService Service;
  ServerOptions FleetOpts;
  FleetOpts.UnixPath = "bench_fleet_dispatch.sock";
  std::remove(FleetOpts.UnixPath.c_str());
  Server FleetSrv(Service, FleetOpts);
  std::string Err;
  if (!FleetSrv.start(&Err)) {
    std::fprintf(stderr, "fleet server start failed: %s\n", Err.c_str());
    return std::nullopt;
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
  Sample S = timedRun(Service, Spec);
  Stop.store(true);
  W.join();
  FleetSrv.stop();
  Service.drain();
  std::remove(FleetOpts.UnixPath.c_str());
  return S;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

} // namespace

int main() {
  std::printf("\n=== fleet dispatch: 1 worker vs purely local ===\n");

  JobSpec OverheadSpec;
  OverheadSpec.Kernel = "matmul";
  OverheadSpec.Machine = "sgi";
  OverheadSpec.Scale = 16;
  OverheadSpec.N = 96;
  OverheadSpec.ForceRetune = true; // cold every time: same work, no DB help

  constexpr int Pairs = 5;
  std::vector<double> LocalSecs, FleetSecs, Overheads, LocalCpus, FleetCpus;
  bool FleetSame = true;
  uint64_t Evaluations = 0;
  for (int P = 0; P < Pairs; ++P) {
    bool FleetFirst = P % 2 == 1;
    std::optional<Sample> Fleet;
    if (FleetFirst && !(Fleet = runFleet(OverheadSpec)))
      return 1;
    Sample Local = runLocal(OverheadSpec);
    if (!FleetFirst && !(Fleet = runFleet(OverheadSpec)))
      return 1;
    if (!Local.Res.ok() || !Fleet->Res.ok()) {
      std::fprintf(stderr, "overhead tune failed: %s\n",
                   (Local.Res.ok() ? Fleet->Res : Local.Res).Error.c_str());
      return 1;
    }
    // The ratio reads as overhead (see the header for what it carries).
    double Overhead =
        Local.Sec > 0 ? (Fleet->Sec - Local.Sec) / Local.Sec : 0;
    bool Same = Fleet->Res.Cost == Local.Res.Cost &&
                Fleet->Res.Variant == Local.Res.Variant &&
                Fleet->Res.Config == Local.Res.Config;
    FleetSame = FleetSame && Same;
    LocalSecs.push_back(Local.Sec);
    FleetSecs.push_back(Fleet->Sec);
    Overheads.push_back(Overhead);
    LocalCpus.push_back(Local.CpuSec);
    FleetCpus.push_back(Fleet->CpuSec);
    Evaluations = Local.Res.Evaluations;
    double Points = std::max<double>(Evaluations, 1);
    std::printf("pair %d (%s first): local %.3fs (%llu evals), fleet "
                "%.3fs (%llu evaluated locally), overhead %+.1f%%, "
                "winner %s\n",
                P + 1, FleetFirst ? "fleet" : "local", Local.Sec,
                static_cast<unsigned long long>(Local.Res.Evaluations),
                Fleet->Sec,
                static_cast<unsigned long long>(Fleet->Res.Evaluations),
                100 * Overhead, Same ? "bit-identical" : "DIVERGED");
    std::printf("  cpu: local %.3fs (%.2f ms/point), fleet %.3fs (%.2f "
                "ms/point)\n",
                Local.CpuSec, 1e3 * Local.CpuSec / Points, Fleet->CpuSec,
                1e3 * Fleet->CpuSec / Points);
  }

  // evals/sec uses the local runs' (complete) count.
  double LocalSec = median(LocalSecs), FleetSec = median(FleetSecs);
  double Overhead = median(Overheads);
  double LocalRate = LocalSec > 0 ? Evaluations / LocalSec : 0;
  double FleetRate = FleetSec > 0 ? Evaluations / FleetSec : 0;
  double LocalCpu = median(LocalCpus), FleetCpu = median(FleetCpus);
  double Points = std::max<double>(Evaluations, 1);
  bool FleetFast = Overhead <= 0.10;
  std::printf("median of %d pairs: local %.3fs (%.0f evals/s), fleet "
              "%.3fs (%.0f evals/s through dispatch)\n",
              Pairs, LocalSec, LocalRate, FleetSec, FleetRate);
  std::printf("  cpu: local %.3fs (%.2f ms/point), fleet %.3fs (%.2f "
              "ms/point)\n",
              LocalCpu, 1e3 * LocalCpu / Points, FleetCpu,
              1e3 * FleetCpu / Points);
  std::printf("  acceptance: median dispatch overhead %+.1f%% %s (bar: <= "
              "10%%), winner %s\n",
              100 * Overhead, FleetFast ? "PASS" : "FAIL",
              FleetSame ? "bit-identical in every pair PASS"
                        : "DIVERGED FAIL");
  bool FleetPass = FleetFast && FleetSame;

  Json Out = Json::object();
  Out.set("bench", "fleet_dispatch");
  Out.set("machine", "sgi/16");
  Out.set("localSeconds", LocalSec);
  Out.set("fleetSeconds", FleetSec);
  Out.set("localEvalsPerSec", LocalRate);
  Out.set("fleetEvalsPerSec", FleetRate);
  Out.set("dispatchOverhead", Overhead);
  Out.set("localCpuSeconds", LocalCpu);
  Out.set("fleetCpuSeconds", FleetCpu);
  Out.set("localCpuSecondsPerPoint", LocalCpu / Points);
  Out.set("fleetCpuSecondsPerPoint", FleetCpu / Points);
  Out.set("winnerBitIdentical", FleetSame);
  Out.set("overheadBarPass", FleetPass);

  if (!Out.saveFile("BENCH_fleet_dispatch.json"))
    std::fprintf(stderr,
                 "warning: could not write BENCH_fleet_dispatch.json\n");
  else
    std::printf("\nwrote BENCH_fleet_dispatch.json\n");
  return FleetPass ? 0 : 1;
}
