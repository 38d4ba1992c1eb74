//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
//   perfbench --workload tune_cold|retune_cached|serve_mixed --seed N
//             --seconds S --trace 0|1 [--git-sha SHA] [--source-hash H]
//
// Prints a host record line, then, as the last line of standard output,
// one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1 (see Catalog.h). Exits 1 without a result when the run could
// not be carried out, 2 on bad arguments.
//
//===----------------------------------------------------------------------===//

#include "Catalog.h"
#include "Host.h"
#include "Workloads.h"

#include "obs/Log.h"
#include "support/Json.h"
#include "support/ParseInt.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "tune_cold|retune_cached|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--git-sha SHA] [--source-hash H]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  RunOptions Opts;
  std::string GitSha, SourceHash;
  int64_t Seed = -1, Seconds = -1, Trace = -1;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Flag = Argv[I], Value = Argv[I + 1];
    bool Ok = true;
    if (Flag == "--workload")
      Opts.Workload = Value;
    else if (Flag == "--seed")
      Ok = eco::parseIntInRange(Value, 0, INT64_MAX, &Seed);
    else if (Flag == "--seconds")
      Ok = eco::parseIntInRange(Value, 1, 120, &Seconds);
    else if (Flag == "--trace")
      Ok = eco::parseIntInRange(Value, 0, 1, &Trace);
    else if (Flag == "--git-sha")
      GitSha = Value;
    else if (Flag == "--source-hash")
      SourceHash = Value;
    else
      return usage(("unknown flag " + Flag).c_str());
    if (!Ok)
      return usage(("bad value for " + Flag).c_str());
  }
  if (Argc % 2 == 0 || Opts.Workload.empty() || Seed < 0 || Seconds < 0 ||
      Trace < 0)
    return usage("missing arguments");
  Outcome (*Run)(const RunOptions &) = nullptr;
  if (Opts.Workload == "tune_cold")
    Run = runTuneCold;
  else if (Opts.Workload == "retune_cached")
    Run = runRetuneCached;
  else if (Opts.Workload == "serve_mixed")
    Run = runServeMixed;
  else
    return usage(("unknown workload " + Opts.Workload).c_str());
  Opts.Seed = static_cast<uint64_t>(Seed);
  Opts.Seconds = static_cast<double>(Seconds);
  Opts.Trace = Trace == 1;
  Opts.OutDir = ".bench_build/run";
  eco::obs::setLogLevel(eco::obs::LogLevel::Error);

  HostRecord Host = probeHost(GitSha, SourceHash);
  std::printf("host: %s\n", Host.toJson().dump().c_str());
  std::fflush(stdout);

  Outcome O;
  try {
    std::filesystem::create_directories(Opts.OutDir);
    O = Run(Opts);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: run aborted: %s\n", E.what());
    return 1;
  }

  double FailedRatio =
      O.Attempted ? static_cast<double>(O.Failed) / O.Attempted : 1;
  O.Metrics["ok_ratio"] = 1 - FailedRatio;
  O.Metrics["failed_ratio"] = FailedRatio;
  O.Metrics["host.effective_parallelism"] = Host.EffectiveParallelism;
  if (Opts.Trace)
    O.Metrics["sim.replay_accesses_per_s"] = replayAccessesPerSecond();

  eco::Json Metrics = eco::Json::object();
  for (const MetricDef &D : Opts.Trace ? perLayerMetrics() : endToEndMetrics()) {
    eco::Json M = eco::Json::object();
    auto It = O.Metrics.find(D.Name);
    M.set("value", It == O.Metrics.end() ? 0.0 : It->second);
    M.set("unit", D.Unit);
    Metrics.set(D.Name, std::move(M));
  }
  eco::Json Result = eco::Json::object();
  Result.set("correct", O.Failed == 0 && O.Attempted > 0);
  Result.set("attempted", static_cast<uint64_t>(std::max<size_t>(O.Attempted, 1)));
  Result.set("failed", static_cast<uint64_t>(O.Failed));
  Result.set("metrics", std::move(Metrics));
  std::printf("%s\n", Result.dump().c_str());
  return 0;
}
