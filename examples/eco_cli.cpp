//===- examples/eco_cli.cpp - Command-line autotuner -----------------------===//
//
// A small driver exposing the whole pipeline from the command line:
//
//   eco_cli [--kernel=matmul|jacobi|matvec] [--machine=sgi|sun|host]
//           [--n=SIZE] [--scale=K] [--native] [--emit-c] [--variants]
//           [--trace] [--jobs=N] [--cache-file=F] [--resume]
//           [--metrics-file=F] [--chrome-trace=F] [--events-file=F]
//           [--log-level=LVL] [--progress]
//   eco_cli report EVENTS.jsonl [--html] [--out=F]
//
//   --variants     print the derived variant set (Table 4 style) and exit
//   --emit-c       print the winning variant as C source
//   --native       tune with the compile-and-run backend on this machine
//   --trace        dump every evaluated search point (CSV: config,cost)
//   --jobs=N       evaluate candidate batches on N threads (engine)
//   --cache-file=F persist the evaluation cache to F (JSON); re-runs on
//                  identical input replay from it nearly for free, and a
//                  killed tune re-run with the same F resumes: every
//                  saved point is a cache hit, only the rest is evaluated
//   --resume       continue a killed tune's --events-file: append a new
//                  segment instead of truncating (needs --cache-file)
//   --metrics-file=F  dump the metrics registry (counters/gauges/
//                  histograms) to F as JSON after the tune
//   --chrome-trace=F  export the tune's span timeline to F in Chrome
//                  trace-event JSON (open in Perfetto/chrome://tracing)
//   --events-file=F  flight recorder: stream every search decision
//                  (variants derived/rejected, one config.evaluated
//                  record per point, winner updates, tune.done totals)
//                  to F as JSONL; render with `eco_cli report F`, audit
//                  with `eco_check --audit-events=F`
//   report F       turn a flight-recorder stream into a tune report
//                  (Markdown; --html for HTML, --out=F to write a file).
//                  Exits 1 when the stream does not reconcile with the
//                  tuner's own tune.done totals.
//   --log-level=L  stderr diagnostics: off|error|warn|info|debug
//                  (default warn, or the ECO_LOG_LEVEL env var)
//   --progress     periodic progress/ETA line on stderr while tuning
//
//===----------------------------------------------------------------------===//

#include "codegen/CEmitter.h"
#include "core/Report.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "exec/Run.h"
#include "kernels/Kernels.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Report.h"
#include "obs/Span.h"
#include "serve/Tool.h"
#include "serve/Worker.h"
#include "support/ParseInt.h"
#include "support/StringUtils.h"

#include <atomic>
#include <chrono>
#include <vector>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

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
  bool Trace = false;
  bool Report = false;
  int Jobs = 1;
  std::string CacheFile;
  bool Resume = false;
  std::string MetricsFile;
  std::string ChromeTraceFile;
  std::string EventsFile;
  std::string LogLevel;
  bool Progress = false;
};

/// `eco_cli report EVENTS.jsonl [--html] [--out=F]`: renders a
/// flight-recorder stream as a tune report. Exit 1 when any tune window
/// fails reconciliation against its own tune.done totals.
int reportToolMain(const std::vector<std::string> &Args) {
  std::string Path;
  std::string OutFile;
  bool Html = false;
  for (const std::string &Arg : Args) {
    if (Arg == "--html")
      Html = true;
    else if (Arg.compare(0, 6, "--out=") == 0)
      OutFile = Arg.substr(6);
    else if (!Arg.empty() && Arg[0] != '-' && Path.empty())
      Path = Arg;
    else {
      std::fprintf(stderr,
                   "usage: eco_cli report EVENTS.jsonl [--html] "
                   "[--out=F]\n");
      return 2;
    }
  }
  if (Path.empty()) {
    std::fprintf(stderr, "usage: eco_cli report EVENTS.jsonl [--html] "
                         "[--out=F]\n");
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
  std::string Rendered = Html ? obs::renderHtml(A) : obs::renderMarkdown(A);
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
/// completed variants — all read from the metrics registry the tune
/// updates as it runs.
class ProgressReporter {
public:
  ProgressReporter() {
    Worker = std::thread([this] { run(); });
  }

  ~ProgressReporter() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Stop = true;
    }
    CV.notify_one();
    Worker.join();
    std::fprintf(stderr, "\n");
  }

private:
  void run() {
    auto Start = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> Lock(M);
    while (!CV.wait_for(Lock, std::chrono::seconds(1),
                        [this] { return Stop; })) {
      obs::MetricsRegistry &Reg = obs::metrics();
      double Total = Reg.gauge("tune.variants_total").value();
      double Done = Reg.gauge("tune.variants_done").value();
      uint64_t Evals = Reg.counter("eval.evaluations").value();
      uint64_t Hits = Reg.counter("eval.cache_hits").value();
      double Elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Start)
                           .count();
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

  std::mutex M;
  std::condition_variable CV;
  bool Stop = false;
  std::thread Worker;
};

bool parseArg(CliOptions &Opts, const std::string &Arg) {
  auto valueOf = [&Arg](const char *Key) -> const char * {
    size_t Len = std::strlen(Key);
    if (Arg.compare(0, Len, Key) == 0)
      return Arg.c_str() + Len;
    return nullptr;
  };
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
  if (const char *V = valueOf("--metrics-file=")) {
    Opts.MetricsFile = V;
    return !Opts.MetricsFile.empty();
  }
  if (const char *V = valueOf("--chrome-trace=")) {
    Opts.ChromeTraceFile = V;
    return !Opts.ChromeTraceFile.empty();
  }
  if (const char *V = valueOf("--events-file=")) {
    Opts.EventsFile = V;
    return !Opts.EventsFile.empty();
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
  if (Arg == "--trace") {
    Opts.Trace = true;
    return true;
  }
  if (Arg == "--report") {
    Opts.Report = true;
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
                   "[--native] [--emit-c] [--variants] [--trace] "
                   "[--report] [--jobs=N] [--cache-file=F] "
                   "[--resume] "
                   "[--metrics-file=F] [--chrome-trace=F] "
                   "[--events-file=F] "
                   "[--log-level=off|error|warn|info|debug] "
                   "[--progress]\n       %s report EVENTS.jsonl "
                   "[--html] [--out=F]\n",
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

  // Observability: metrics feed --metrics-file and the --progress
  // reporter; spans feed --chrome-trace. Both default off (zero cost).
  if (!Opts.MetricsFile.empty() || Opts.Progress)
    obs::setMetricsEnabled(true);
  if (!Opts.ChromeTraceFile.empty())
    obs::SpanCollector::global().setEnabled(true);
  if (!Opts.EventsFile.empty()) {
    // A resumed tune appends a new segment to the killed run's stream.
    if (!obs::EventBus::global().openFile(Opts.EventsFile,
                                          /*Append=*/Opts.Resume)) {
      std::fprintf(stderr, "error: cannot open events file %s\n",
                   Opts.EventsFile.c_str());
      return 1;
    }
    obs::setEventsEnabled(true);
  }

  LoopNest Nest;
  if (Opts.Kernel == "matmul")
    Nest = makeMatMul();
  else if (Opts.Kernel == "jacobi")
    Nest = makeJacobi();
  else if (Opts.Kernel == "matvec")
    Nest = makeMatVec();
  else {
    std::fprintf(stderr, "error: unknown kernel '%s'\n",
                 Opts.Kernel.c_str());
    return 2;
  }

  MachineDesc Machine;
  if (Opts.Machine == "sgi")
    Machine = MachineDesc::sgiR10000().scaledBy(Opts.Scale);
  else if (Opts.Machine == "sun")
    Machine = MachineDesc::ultraSparcIIe().scaledBy(Opts.Scale);
  else if (Opts.Machine == "host")
    Machine = MachineDesc::genericHost();
  else {
    std::fprintf(stderr, "error: unknown machine '%s'\n",
                 Opts.Machine.c_str());
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

  if (!Opts.MetricsFile.empty()) {
    if (obs::metrics().toJson().saveFile(Opts.MetricsFile))
      std::printf("metrics dumped to %s\n", Opts.MetricsFile.c_str());
    else
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   Opts.MetricsFile.c_str());
  }
  if (!Opts.EventsFile.empty()) {
    obs::EventBus::global().closeFile();
    std::printf("events streamed to %s (render: eco_cli report %s)\n",
                Opts.EventsFile.c_str(), Opts.EventsFile.c_str());
  }
  if (!Opts.ChromeTraceFile.empty()) {
    if (obs::SpanCollector::global().writeChromeTrace(
            Opts.ChromeTraceFile))
      std::printf("chrome trace written to %s (open in Perfetto or "
                  "chrome://tracing)\n",
                  Opts.ChromeTraceFile.c_str());
    else
      std::fprintf(stderr, "error: cannot write chrome trace to %s\n",
                   Opts.ChromeTraceFile.c_str());
  }

  if (R.BestVariant < 0) {
    std::fprintf(stderr, "error: tuning produced no feasible variant\n");
    return 1;
  }
  if (Opts.Report) {
    ReportOptions ROpts;
    ROpts.CostUnit = Opts.Native ? "seconds" : "cycles";
    std::printf("%s", renderReport(R, Machine, ROpts).c_str());
    return 0;
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

  if (Opts.Trace) {
    // Replay the winning variant's search; with the engine's cache warm
    // this costs almost nothing and dumps the full decision trace.
    VariantSearchResult SR = searchVariant(R.best(), Engine, Problem);
    std::printf("\nconfig,cost\n");
    for (const SearchPoint &P : SR.Trace.Points)
      std::printf("\"%s\",%.6g\n", P.Config.c_str(), P.Cost);
  }
  return 0;
}
