//===- bench/bench_obs_overhead.cpp - Observability overhead --------------===//
//
// The obs subsystem promises to be effectively free when disabled: every
// instrumentation site in the engine hot path guards on one relaxed
// atomic load (obs::eventsEnabled(), the ECO_LOG level check) before
// touching anything; metrics are folded from published events, so they
// share the events switch. This bench quantifies that promise from two
// directions:
//
//  * phase A — end-to-end: the dgemm tune run repeatedly through a
//    single-threaded EvalEngine with observability disabled (the library
//    default) and then fully enabled (events + the metrics fold), reporting
//    evals/sec for each. The enabled run bounds the *worst case*; the
//    disabled run is what library users pay.
//
//  * phase B — per-hook microbenchmark: the disabled guards measured in
//    isolation (ns/op), multiplied by the hooks-per-evaluation count to
//    estimate the disabled-instrumentation share of one evaluation.
//    Acceptance bar: <= 2% of eval time (it lands orders of magnitude
//    below).
//
//  * phase C — the flight recorder's disabled guard (obs::eventsEnabled)
//    measured the same way. The event bus publishes from the evaluation
//    hot path, so it carries its own, tighter bar: <= 0.1% of eval time
//    when disabled.
//
//  * phase D — eco::Mutex's owner check, which runs in every build: a
//    relaxed atomic load and compare in lock() and unlock() and a
//    relaxed store in each, over the raw std::mutex. Measured as the
//    delta between eco::Mutex and std::mutex, charged at the hot path's
//    locks-per-evaluation; bar: <= 0.1% of eval time.
//
// Results are emitted as BENCH_obs_overhead.json; exit status enforces
// every bar.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "kernels/Kernels.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "support/Json.h"
#include "support/Sync.h"
#include "support/Timer.h"

#include <cstdio>
#include <mutex>

using namespace eco;
using namespace ecobench;

namespace {

/// One full dgemm tune through a fresh single-threaded engine; returns
/// evaluations per backend-second.
double tuneEvalsPerSec(const MachineDesc &M, size_t &EvalsOut) {
  LoopNest MM = makeMatMul();
  SimEvalBackend Backend(M);
  EvalEngine Engine(Backend);
  tune(MM, Engine, {{"N", 96}});
  EvalStats S = Engine.stats();
  EvalsOut = S.Evaluations;
  return S.BackendSeconds > 0 ? S.Evaluations / S.BackendSeconds : 0;
}

double bestOf(int Reps, const MachineDesc &M, size_t &EvalsOut) {
  double Best = 0;
  for (int R = 0; R < Reps; ++R)
    Best = std::max(Best, tuneEvalsPerSec(M, EvalsOut));
  return Best;
}

} // namespace

int main() {
  Json Out = Json::object();
  Out.set("bench", "obs_overhead");
  MachineDesc M = sgi();
  const int Reps = fullRuns() ? 5 : 3;

  banner("phase A: dgemm tune evals/sec, observability off vs on");
  // Library default: everything off.
  obs::setEventsEnabled(false);
  obs::setLogLevel(obs::LogLevel::Off);
  size_t EvalsOff = 0;
  double OffRate = bestOf(Reps, M, EvalsOff);

  // Worst case: every evaluation and timed phase published (no file
  // sink) and folded into the metrics registry.
  obs::setEventsEnabled(true);
  size_t EvalsOn = 0;
  double OnRate = bestOf(Reps, M, EvalsOn);
  obs::setEventsEnabled(false);

  double EnabledOverheadPct =
      OffRate > 0 ? (OffRate / OnRate - 1.0) * 100.0 : 0;
  std::printf("off: %7.1f evals/s (%zu evals)\n", OffRate, EvalsOff);
  std::printf("on:  %7.1f evals/s (%zu evals)  enabled overhead %.1f%%\n",
              OnRate, EvalsOn, EnabledOverheadPct);

  banner("phase B: disabled-hook microbenchmark");
  // The two guard flavors an evaluation executes when obs is off.
  constexpr uint64_t Iters = 50'000'000;
  Timer TG;
  uint64_t Sink = 0;
  for (uint64_t I = 0; I < Iters; ++I) {
    if (obs::eventsEnabled())
      ++Sink;
    ECO_LOG(Debug) << "never formatted " << Sink;
  }
  double PairNs = TG.seconds() / Iters * 1e9;
  if (Sink)
    std::printf("(sink %llu)\n", static_cast<unsigned long long>(Sink));

  // Hooks per evaluation in EvalEngine::evalOne: the events guard, the
  // log guards, plus the amortized span guards; round up.
  constexpr double HooksPerEval = 4;
  double HookNsPerEval = PairNs / 2 * HooksPerEval;
  double EvalNs = OffRate > 0 ? 1e9 / OffRate : 1;
  double DisabledOverheadPct = HookNsPerEval / EvalNs * 100.0;

  std::printf("disabled guard pair: %.2f ns -> %.1f ns per eval "
              "(~%.0f hooks)\n",
              PairNs, HookNsPerEval, HooksPerEval);
  std::printf("one evaluation: %.0f ns -> disabled overhead %.5f%% "
              "(acceptance bar: 2%%)\n",
              EvalNs, DisabledOverheadPct);

  banner("phase C: flight-recorder disabled guard");
  // The event bus's kill switch in isolation: one relaxed atomic load,
  // the only thing the hot path pays with no --obs-dir.
  Timer TE;
  for (uint64_t I = 0; I < Iters; ++I)
    if (obs::eventsEnabled())
      ++Sink;
  double EventGuardNs = TE.seconds() / Iters * 1e9;
  if (Sink)
    std::printf("(sink %llu)\n", static_cast<unsigned long long>(Sink));
  // Guarded event sites one evaluation can hit (publishEvaluated +
  // the per-stage/winner publications amortized); round up to 2.
  constexpr double EventHooksPerEval = 2;
  double EventsDisabledPct =
      EventGuardNs * EventHooksPerEval / EvalNs * 100.0;
  std::printf("disabled events guard: %.2f ns -> %.5f%% of one eval "
              "(acceptance bar: 0.1%%)\n",
              EventGuardNs, EventsDisabledPct);

  banner("phase D: eco::Mutex owner check vs raw std::mutex");
  Mutex Checked("bench.owner");
  std::mutex Raw;
  constexpr uint64_t LockIters = 20'000'000;
  double RawNs = 1e9, EcoNs = 1e9;
  for (int R = 0; R < 3; ++R) { // best-of to denoise the tiny delta
    Timer TR;
    for (uint64_t I = 0; I < LockIters; ++I) {
      Raw.lock();
      Raw.unlock();
    }
    RawNs = std::min(RawNs, TR.seconds() / LockIters * 1e9);
    Timer TC;
    for (uint64_t I = 0; I < LockIters; ++I) {
      Checked.lock();
      Checked.unlock();
    }
    EcoNs = std::min(EcoNs, TC.seconds() / LockIters * 1e9);
  }
  double CheckNs = EcoNs > RawNs ? EcoNs - RawNs : 0;
  // Locks one evaluation takes when everything is quiet: the eval
  // cache, the engine's stats and instantiation mutexes, and slack for
  // obs; round up.
  constexpr double LockHooksPerEval = 8;
  double OwnerCheckPct = CheckNs * LockHooksPerEval / EvalNs * 100.0;
  std::printf("raw std::mutex lock+unlock: %.2f ns; eco::Mutex: %.2f ns\n",
              RawNs, EcoNs);
  std::printf("owner check: %.2f ns -> %.5f%% of one eval "
              "(acceptance bar: 0.1%%)\n",
              CheckNs, OwnerCheckPct);

  Out.set("offEvalsPerSec", OffRate);
  Out.set("onEvalsPerSec", OnRate);
  Out.set("enabledOverheadPct", EnabledOverheadPct);
  Out.set("disabledGuardPairNs", PairNs);
  Out.set("disabledHookNsPerEval", HookNsPerEval);
  Out.set("evalNs", EvalNs);
  Out.set("disabledOverheadPct", DisabledOverheadPct);
  Out.set("acceptanceBarPct", 2.0);
  Out.set("eventsGuardNs", EventGuardNs);
  Out.set("eventsDisabledOverheadPct", EventsDisabledPct);
  Out.set("eventsAcceptanceBarPct", 0.1);
  Out.set("rawMutexNs", RawNs);
  Out.set("ecoMutexNs", EcoNs);
  Out.set("ownerCheckNs", CheckNs);
  Out.set("ownerCheckOverheadPct", OwnerCheckPct);
  Out.set("ownerCheckAcceptanceBarPct", 0.1);
  bool Pass = DisabledOverheadPct <= 2.0 && EventsDisabledPct <= 0.1 &&
              OwnerCheckPct <= 0.1;
  Out.set("pass", Pass);

  if (!Out.saveFile("BENCH_obs_overhead.json"))
    std::fprintf(stderr,
                 "warning: could not write BENCH_obs_overhead.json\n");
  else
    std::printf("\nwrote BENCH_obs_overhead.json\n");
  return Pass ? 0 : 1;
}
