//===- examples/eco_cli.cpp - Command-line autotuner -----------------------===//
//
// A small driver exposing the whole pipeline from the command line:
//
//   eco_cli [--kernel=matmul|jacobi|matvec] [--machine=sgi|sun|host]
//           [--n=SIZE] [--scale=K] [--native] [--emit-c] [--variants]
//           [--jobs=N] [--cache-file=F] [--resume] [--obs-dir=D]
//           [--log-level=LVL] [--progress]
//   eco_cli report EVENTS.jsonl [--html | --chrome] [--out=F]
//
//   --variants     print the derived variant set (Table 4 style) and exit
//   --emit-c       print the winning variant as C source
//   --native       tune with the compile-and-run backend on this machine
//   --jobs=N       evaluate candidate batches on N threads (engine)
//   --cache-file=F persist the evaluation cache to F (JSON); re-runs on
//                  identical input replay from it nearly for free, and a
//                  killed tune re-run with the same F resumes: every
//                  saved point is a cache hit, only the rest is evaluated
//   --resume       continue a killed tune's --obs-dir stream: append a
//                  new segment instead of truncating (needs --cache-file)
//   --obs-dir=D    flight recorder (created if missing): stream every
//                  search decision (variants derived/rejected, one
//                  config.evaluated record per point, timed phases,
//                  winner updates, tune.done totals) to D/events.jsonl,
//                  and dump the metrics registry to D/metrics.json after
//                  the tune; render with `eco_cli report D/events.jsonl`,
//                  audit with `eco_check --audit-events=D/events.jsonl`
//   report F       turn a flight-recorder stream into a tune report
//                  (Markdown; --html for HTML, --chrome for a Chrome
//                  trace-event timeline to open in Perfetto or
//                  chrome://tracing, --out=F to write a file). Exits 1
//                  when the stream does not reconcile with the tuner's
//                  own tune.done totals.
//   --log-level=L  stderr diagnostics: off|error|warn|info|debug
//                  (default warn, or the ECO_LOG_LEVEL env var)
//   --progress     periodic progress/ETA line on stderr while tuning
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Report.h"
#include "serve/Server.h"
#include "serve/Tool.h"
#include "serve/Worker.h"
#include "support/ParseInt.h"
#include "support/StringUtils.h"
#include "support/Sync.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace eco;

namespace {

struct CliOptions {
  std::string Kernel = "matmul";
  std::string Machine = "sgi";
  int64_t N = 160;
  unsigned Scale = 16;
  bool Native = false;
  bool EmitC = false;
  bool VariantsOnly = false;
  int Jobs = 1;
  std::string CacheFile;
  bool Resume = false;
  std::string ObsDir;
  std::string LogLevel;
  bool Progress = false;
};

/// `eco_cli report EVENTS.jsonl [--html | --chrome] [--out=F]`: renders
/// a flight-recorder stream as a tune report or a Chrome timeline. Exit
/// 1 when any tune window fails reconciliation against its own
/// tune.done totals.
int reportToolMain(const std::vector<std::string> &Args) {
  std::string Path;
  std::string OutFile;
  bool Html = false, Chrome = false, Bad = false;
  for (const std::string &Arg : Args) {
    if (Arg == "--html")
      Html = true;
    else if (Arg == "--chrome")
      Chrome = true;
    else if (Arg.compare(0, 6, "--out=") == 0)
      OutFile = Arg.substr(6);
    else if (!Arg.empty() && Arg[0] != '-' && Path.empty())
      Path = Arg;
    else
      Bad = true;
  }
  if (Bad || Path.empty() || (Html && Chrome)) {
    std::fprintf(stderr, "usage: eco_cli report EVENTS.jsonl "
                         "[--html | --chrome] [--out=F]\n");
    return 2;
  }
  std::vector<obs::Event> Events;
  std::string Error;
  std::vector<std::string> LineErrors;
  if (!obs::loadEventsFile(Path, Events, &Error, &LineErrors)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  for (const std::string &E : LineErrors)
    std::fprintf(stderr, "warning: %s\n", E.c_str());
  obs::FlightAnalysis A = obs::analyzeEvents(Events);
  std::string Rendered = Chrome ? obs::renderChromeTrace(Events).dump() + "\n"
                         : Html ? obs::renderHtml(A)
                                : obs::renderMarkdown(A);
  if (OutFile.empty()) {
    std::printf("%s", Rendered.c_str());
  } else {
    std::ofstream Out(OutFile, std::ios::binary | std::ios::trunc);
    Out << Rendered;
    if (!Out.good()) {
      std::fprintf(stderr, "error: cannot write %s\n", OutFile.c_str());
      return 1;
    }
    std::printf("report written to %s\n", OutFile.c_str());
  }
  bool Ok = true;
  for (const obs::TuneReportData &T : A.Tunes)
    if (T.HasDone && !T.reconciled())
      Ok = false;
  if (!Ok)
    std::fprintf(stderr, "error: event stream does not reconcile with "
                         "the tuner's own totals (see report)\n");
  return Ok ? 0 : 1;
}

/// Background reporter for --progress: once a second prints variant
/// progress, evaluation counts, and an ETA extrapolated from the pace of
/// completed variants — all read from the metrics registry, which the
/// event bus folds from the tune's events as it runs.
class ProgressReporter {
public:
  ProgressReporter() {
    Worker = std::thread([this] { run(); });
  }

  ~ProgressReporter() {
    {
      MutexLock Lock(M);
      Stop = true;
    }
    CV.notify_one();
    Worker.join();
    std::fprintf(stderr, "\n");
  }

private:
  void run() {
    using Clock = std::chrono::steady_clock;
    auto Start = Clock::now();
    MutexLock Lock(M);
    for (;;) {
      // One line per second until the destructor sets Stop; a spurious
      // wakeup goes back to waiting out the rest of the second.
      auto Wake = Clock::now() + std::chrono::seconds(1);
      while (!Stop && Clock::now() < Wake)
        CV.wait_for(Lock, Wake - Clock::now());
      if (Stop)
        return;
      obs::MetricsRegistry &Reg = obs::metrics();
      double Total = Reg.gauge("tune.variants_total").value();
      double Done = Reg.gauge("tune.variants_done").value();
      uint64_t Evals = Reg.counter("eval.evaluations").value();
      uint64_t Hits = Reg.counter("eval.cache_hits").value();
      double Elapsed =
          std::chrono::duration<double>(Clock::now() - Start).count();
      std::string Eta = "-";
      if (Done > 0 && Total > Done)
        Eta = strformat("%.0fs", Elapsed / Done * (Total - Done));
      std::fprintf(stderr,
                   "\r[eco] variants %.0f/%.0f  evals %llu  hits %llu  "
                   "elapsed %.0fs  eta %s   ",
                   Done, Total, static_cast<unsigned long long>(Evals),
                   static_cast<unsigned long long>(Hits), Elapsed,
                   Eta.c_str());
      std::fflush(stderr);
    }
  }

  Mutex M{"cli.progress"};
  CondVar CV;
  bool Stop ECO_GUARDED_BY(M) = false;
  std::thread Worker;
};

bool parseArg(CliOptions &Opts, const std::string &Arg) {
  auto valueOf = [&Arg](const char *Key) { return flagValue(Arg, Key); };
  if (const char *V = valueOf("--kernel=")) {
    Opts.Kernel = V;
    return true;
  }
  if (const char *V = valueOf("--machine=")) {
    Opts.Machine = V;
    return true;
  }
  // Numeric flags parse strictly: "--scale=-1" must be a usage error,
  // not a 2^32 wraparound, and "--n=64x" must not silently mean 64.
  bool Bad = false;
  if (intFlag(Arg, "--n=", 1, int64_t(1) << 30, Opts.N, Bad) ||
      intFlag(Arg, "--scale=", 1, 1 << 20, Opts.Scale, Bad) ||
      intFlag(Arg, "--jobs=", 1, 4096, Opts.Jobs, Bad))
    return !Bad;
  if (const char *V = valueOf("--cache-file=")) {
    Opts.CacheFile = V;
    return !Opts.CacheFile.empty();
  }
  if (const char *V = valueOf("--obs-dir=")) {
    Opts.ObsDir = V;
    return !Opts.ObsDir.empty();
  }
  if (const char *V = valueOf("--log-level=")) {
    Opts.LogLevel = V;
    return obs::setLogLevelByName(Opts.LogLevel);
  }
  if (Arg == "--progress") {
    Opts.Progress = true;
    return true;
  }
  if (Arg == "--resume") {
    Opts.Resume = true;
    return true;
  }
  if (Arg == "--native") {
    Opts.Native = true;
    return true;
  }
  if (Arg == "--emit-c") {
    Opts.EmitC = true;
    return true;
  }
  if (Arg == "--variants") {
    Opts.VariantsOnly = true;
    return true;
  }
  return false;
}

} // namespace

int main(int Argc, char **Argv) {
  // Subcommand spellings of the serving tools: `eco_cli serve` is the
  // eco_served daemon, `eco_cli submit` the client.
  if (Argc > 1 && std::strcmp(Argv[1], "serve") == 0)
    return serve::serveToolMain(
        std::vector<std::string>(Argv + 2, Argv + Argc));
  if (Argc > 1 && std::strcmp(Argv[1], "submit") == 0)
    return serve::submitToolMain(
        std::vector<std::string>(Argv + 2, Argv + Argc));
  if (Argc > 1 && std::strcmp(Argv[1], "worker") == 0)
    return serve::workerToolMain(
        std::vector<std::string>(Argv + 2, Argv + Argc));
  if (Argc > 1 && std::strcmp(Argv[1], "report") == 0)
    return reportToolMain(std::vector<std::string>(Argv + 2, Argv + Argc));

  CliOptions Opts;
  for (int A = 1; A < Argc; ++A) {
    if (!parseArg(Opts, Argv[A])) {
      std::fprintf(stderr,
                   "usage: %s [--kernel=matmul|jacobi|matvec] "
                   "[--machine=sgi|sun|host] [--n=SIZE] [--scale=K] "
                   "[--native] [--emit-c] [--variants] [--jobs=N] "
                   "[--cache-file=F] [--resume] [--obs-dir=D] "
                   "[--log-level=off|error|warn|info|debug] "
                   "[--progress]\n       %s report EVENTS.jsonl "
                   "[--html | --chrome] [--out=F]\n",
                   Argv[0], Argv[0]);
      return 2;
    }
  }
  // The cache file is the only state a killed tune leaves behind.
  if (Opts.Resume && Opts.CacheFile.empty()) {
    std::fprintf(stderr, "error: --resume needs --cache-file (the killed "
                         "tune's cache is what it resumes from)\n");
    return 2;
  }

  // Observability defaults off (zero cost). --obs-dir records events
  // (and the metrics folded from them); --progress turns events on with
  // no sink and reads the metrics alone. A resumed tune appends a new
  // segment to the killed run's stream.
  if (Opts.Progress)
    obs::setEventsEnabled(true);
  std::string ObsError;
  if (!Opts.ObsDir.empty() &&
      !obs::openObsDir(Opts.ObsDir, /*Append=*/Opts.Resume, &ObsError)) {
    std::fprintf(stderr, "error: %s\n", ObsError.c_str());
    return 1;
  }

  std::string NameError;
  LoopNest Nest;
  MachineDesc Machine;
  if (!serve::buildKernel(Opts.Kernel, Nest, &NameError) ||
      !serve::buildMachine(Opts.Machine, Opts.Scale, Machine, &NameError)) {
    std::fprintf(stderr, "error: %s\n", NameError.c_str());
    return 2;
  }

  std::printf("kernel %s on %s, N=%lld\n\n%s\n", Opts.Kernel.c_str(),
              Machine.summary().c_str(),
              static_cast<long long>(Opts.N), Nest.print().c_str());

  if (Opts.VariantsOnly) {
    for (const DerivedVariant &V : deriveVariants(Nest, Machine))
      std::printf("%s\n", V.describe().c_str());
    return 0;
  }

  SimEvalBackend SimBackend(Machine);
  NativeEvalBackend NativeBackend(Machine, 2);
  EvalBackend &Backend =
      Opts.Native ? static_cast<EvalBackend &>(NativeBackend)
                  : static_cast<EvalBackend &>(SimBackend);

  // Everything runs through the engine: --jobs controls parallelism,
  // --cache-file persistence. The chosen configuration is identical for
  // every --jobs value.
  EngineOptions EOpts;
  EOpts.Jobs = Opts.Jobs;
  EOpts.CacheFile = Opts.CacheFile;
  EvalEngine Engine(Backend, EOpts);
  if (Opts.Jobs > 1 && Engine.jobs() == 1)
    std::fprintf(stderr,
                 "note: backend is not parallelizable; running with 1 "
                 "job\n");

  ParamBindings Problem = {{"N", Opts.N}};
  TuneResult R;
  {
    std::unique_ptr<ProgressReporter> Progress;
    if (Opts.Progress)
      Progress = std::make_unique<ProgressReporter>();
    R = tune(Nest, Engine, Problem);
  }
  Engine.flush();

  if (!Opts.ObsDir.empty()) {
    if (!obs::closeObsDir(Opts.ObsDir))
      std::fprintf(stderr, "error: cannot write %s/metrics.json\n",
                   Opts.ObsDir.c_str());
    std::printf("flight record in %s (render: eco_cli report "
                "%s/events.jsonl [--chrome])\n",
                Opts.ObsDir.c_str(), Opts.ObsDir.c_str());
  }

  if (R.BestVariant < 0) {
    std::fprintf(stderr, "error: tuning produced no feasible variant\n");
    return 1;
  }
  std::printf("searched %zu points in %.1fs (%d jobs, %zu cache hits",
              R.TotalPoints, R.TotalSeconds, Engine.jobs(),
              R.TotalCacheHits);
  if (R.TotalPoints + R.TotalCacheHits > 0)
    std::printf(", %.0f%% hit rate",
                100.0 * static_cast<double>(R.TotalCacheHits) /
                    static_cast<double>(R.TotalPoints + R.TotalCacheHits));
  std::printf(")\n");
  for (const VariantSummary &S : R.Summaries)
    std::printf("  %-4s heuristic %.3g %s\n", S.Name.c_str(),
                S.HeuristicCost,
                S.Searched
                    ? strformat("-> best %.3g after %zu points (%s)",
                                S.BestCost, S.Points, S.BestConfig.c_str())
                          .c_str()
                    : "(pruned by model ranking)");
  std::printf("\nwinner: %s  cost %.6g %s\n",
              R.best().configString(R.BestConfig).c_str(), R.BestCost,
              Opts.Native ? "seconds" : "cycles");
  std::printf("\noptimized code:\n%s", R.BestExecutable.print().c_str());

  if (Opts.EmitC)
    std::printf("\n--- emitted C ---\n%s",
                emitC(R.BestExecutable, "eco_kernel").c_str());
  return 0;
}
