//===- bench/bench_eval_throughput.cpp - Simulator hot-path throughput ----===//
//
// The empirical search's cost is dominated by simulated executions, so
// simulator throughput is search throughput. This bench measures both
// ends of that chain:
//
//  * phase A — end-to-end eval throughput: the dgemm and jacobi tunes
//    run through a single-threaded EvalEngine over SimEvalBackend,
//    reporting evaluations/sec and simulated accesses/sec (from the
//    backend's accumulated counters over its measured wall time), plus
//    the engine's per-stage breakdown;
//
//  * phase B — hot-path microbenchmark: a synthesized column-major dgemm
//    trace (A/B/C interleaved per iteration, prefetch stream on B — the
//    pattern the search simulates millions of times) replayed through
//    the frozen seed simulator (sim/GoldenSim.h) and the production
//    simulator. Counters must match bit-for-bit; the accesses/sec ratio
//    is the speedup the stamp-LRU + fused-probe overhaul delivers
//    (acceptance bar: >= 1.5x on dgemm, single-threaded).
//
// Results are emitted as BENCH_eval_throughput.json.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "kernels/Kernels.h"
#include "sim/GoldenSim.h"
#include "sim/MemHierarchy.h"
#include "support/Json.h"
#include "support/StringUtils.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

using namespace eco;
using namespace ecobench;

namespace {

struct TraceOp {
  uint64_t Addr;
  uint8_t Kind; ///< 0 = load, 1 = store, 2 = prefetch
};

/// Column-major dgemm ijk with a software-prefetch stream on B: the
/// per-iteration interleaving of three arrays changes the page on nearly
/// every access, which is exactly the pattern that made the seed's
/// 64-way fully-associative TLB probe (a shifting-LRU scan) the hot
/// path's dominant cost.
std::vector<TraceOp> dgemmTrace(int N) {
  const uint64_t ABase = 1 << 20, BBase = 2 << 20, CBase = 3 << 20;
  std::vector<TraceOp> Ops;
  Ops.reserve(static_cast<size_t>(N) * N * (3 * N + 2));
  for (int K = 0; K < N; ++K)
    for (int J = 0; J < N; ++J) {
      Ops.push_back({BBase + 8ULL * (K + J * N), 0});
      if (J + 4 < N)
        Ops.push_back({BBase + 8ULL * (K + (J + 4) * N), 2});
      for (int I = 0; I < N; ++I) {
        Ops.push_back({ABase + 8ULL * (I + K * N), 0});
        Ops.push_back({CBase + 8ULL * (I + J * N), 0});
        Ops.push_back({CBase + 8ULL * (I + J * N), 1});
      }
    }
  return Ops;
}

/// Replays \p Ops through \p Sim with the clock advancing by 1 + stall.
template <typename SimT>
double replay(SimT &Sim, const std::vector<TraceOp> &Ops) {
  double Now = 0;
  for (const TraceOp &O : Ops)
    Now += 1 + (O.Kind == 2 ? Sim.prefetch(O.Addr, Now)
                            : Sim.access(O.Addr, O.Kind == 1, Now));
  return Now;
}

bool countersEqual(const HWCounters &A, const HWCounters &B) {
  if (A.Loads != B.Loads || A.Stores != B.Stores ||
      A.Prefetches != B.Prefetches || A.TlbMisses != B.TlbMisses ||
      A.IssueCycles != B.IssueCycles || A.StallCycles != B.StallCycles)
    return false;
  for (unsigned L = 0; L < MaxCacheLevels; ++L)
    if (A.CacheMisses[L] != B.CacheMisses[L])
      return false;
  return true;
}

uint64_t demandAccesses(const HWCounters &C) { return C.Loads + C.Stores; }

/// Phase A: one guided tune through a single-threaded engine.
Json tuneThroughput(const char *Kernel, const LoopNest &Nest,
                    const ParamBindings &Problem, const MachineDesc &M) {
  SimEvalBackend Backend(M);
  EvalEngine Engine(Backend); // Jobs = 1: single-threaded by design
  Timer Wall;
  TuneResult R = tune(Nest, Engine, Problem);
  double WallSeconds = Wall.seconds();

  EvalStats S = Engine.stats();
  uint64_t Accesses = demandAccesses(Backend.accumulatedCounters());
  double EvalsPerSec =
      S.BackendSeconds > 0 ? S.Evaluations / S.BackendSeconds : 0;
  double AccessesPerSec =
      S.BackendSeconds > 0 ? Accesses / S.BackendSeconds : 0;

  std::printf("%-8s %4zu evals  %6.1f evals/s  %8s accesses/s  "
              "(%.1fs backend, %.1fs wall)\n",
              Kernel, S.Evaluations, EvalsPerSec,
              withCommas(static_cast<uint64_t>(AccessesPerSec)).c_str(),
              S.BackendSeconds, WallSeconds);

  // The engine's per-(variant, stage) ledger, folded per stage.
  std::map<std::string, StageTelemetry> ByStage;
  for (const StageTelemetry &Row : Engine.telemetry()) {
    StageTelemetry &SS = ByStage[Row.Stage];
    SS.Evaluations += Row.Evaluations;
    SS.CacheHits += Row.CacheHits;
    SS.BackendSeconds += Row.BackendSeconds;
  }
  Table T({"Stage", "Evals", "Cache hits", "Backend s"});
  for (const auto &[Stage, SS] : ByStage)
    T.addRow({Stage, std::to_string(SS.Evaluations),
              std::to_string(SS.CacheHits),
              strformat("%.2f", SS.BackendSeconds)});
  std::printf("%s", T.render().c_str());

  Json Row = Json::object();
  Row.set("kernel", Kernel);
  Row.set("evaluations", static_cast<uint64_t>(S.Evaluations));
  Row.set("cacheHits", static_cast<uint64_t>(S.CacheHits));
  Row.set("backendSeconds", S.BackendSeconds);
  Row.set("wallSeconds", WallSeconds);
  Row.set("simulatedAccesses", Accesses);
  Row.set("evalsPerSec", EvalsPerSec);
  Row.set("accessesPerSec", AccessesPerSec);
  Row.set("bestCost", R.BestCost);
  Json Stages = Json::array();
  for (const auto &[Stage, SS] : ByStage) {
    Json SJ = Json::object();
    SJ.set("stage", Stage);
    SJ.set("evaluations", static_cast<uint64_t>(SS.Evaluations));
    SJ.set("cacheHits", static_cast<uint64_t>(SS.CacheHits));
    SJ.set("backendSeconds", SS.BackendSeconds);
    Stages.push(std::move(SJ));
  }
  Row.set("stages", std::move(Stages));
  return Row;
}

} // namespace

int main() {
  Json Out = Json::object();
  Out.set("bench", "eval_throughput");
  MachineDesc M = sgi();

  banner("phase A: eval throughput through the engine (single-threaded)");
  Json Tunes = Json::array();
  Tunes.push(tuneThroughput("dgemm", makeMatMul(), {{"N", 96}}, M));
  Tunes.push(tuneThroughput("jacobi", makeJacobi(), {{"N", 48}}, M));
  Out.set("tunes", std::move(Tunes));

  banner("phase B: demand-path replay, seed simulator vs overhauled");
  const int N = fullRuns() ? 160 : 96;
  std::vector<TraceOp> Ops = dgemmTrace(N);
  const int Reps = 3; // best-of, to shed scheduler noise

  GoldenMemHierarchySim Golden(M);
  MemHierarchySim Sim(M);
  double GoldenBest = 1e300, SimBest = 1e300;
  for (int Rep = 0; Rep < Reps; ++Rep) {
    Golden.reset();
    Timer TG;
    replay(Golden, Ops);
    GoldenBest = std::min(GoldenBest, TG.seconds());

    Sim.reset();
    Timer TS;
    replay(Sim, Ops);
    SimBest = std::min(SimBest, TS.seconds());
  }

  bool Identical = countersEqual(Golden.counters(), Sim.counters());
  double GoldenRate = Ops.size() / GoldenBest;
  double SimRate = Ops.size() / SimBest;
  double Speedup = GoldenBest / SimBest;

  std::printf("dgemm N=%d trace: %s ops, counters %s\n", N,
              withCommas(Ops.size()).c_str(),
              Identical ? "bit-identical" : "DIVERGED (bug!)");
  std::printf("  seed simulator       %8s accesses/s  (%.3fs)\n",
              withCommas(static_cast<uint64_t>(GoldenRate)).c_str(),
              GoldenBest);
  std::printf("  overhauled simulator %8s accesses/s  (%.3fs)\n",
              withCommas(static_cast<uint64_t>(SimRate)).c_str(), SimBest);
  std::printf("  speedup vs seed      %.2fx  (acceptance bar: 1.5x)\n",
              Speedup);

  Json Replay = Json::object();
  Replay.set("kernel", "dgemm");
  Replay.set("n", N);
  Replay.set("traceOps", static_cast<uint64_t>(Ops.size()));
  Replay.set("countersIdentical", Identical);
  Replay.set("seedSeconds", GoldenBest);
  Replay.set("seedAccessesPerSec", GoldenRate);
  Replay.set("seconds", SimBest);
  Replay.set("accessesPerSec", SimRate);
  Replay.set("speedup_vs_seed", Speedup);
  Out.set("replay", std::move(Replay));

  if (!Out.saveFile("BENCH_eval_throughput.json"))
    std::fprintf(stderr,
                 "warning: could not write BENCH_eval_throughput.json\n");
  else
    std::printf("\nwrote BENCH_eval_throughput.json\n");
  return Identical ? 0 : 1;
}
