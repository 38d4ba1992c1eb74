//===- perfbench/src/Workloads.h - The benchmark's workloads ---*- C++ -*-===//
///
/// \file
/// The three workloads (README.md says why each exists):
///
///  * tune_cold     — closed loop, one caller, cold tunes on fresh engines;
///  * retune_cached — the same problems re-tuned on fresh engines sharing
///                    an EvalCache filled during set-up (every point hits);
///  * serve_mixed   — open-loop Poisson traffic against an in-process
///                    daemon (TuneService + Server + one fleet worker).
///
/// Untraced runs (Trace = false) measure the end-to-end metrics; traced
/// runs measure the per-layer metrics through the decorators of Trace.h.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "Generator.h"

#include "exec/Executor.h"
#include "ir/Loop.h"
#include "machine/MachineDesc.h"

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for run artifacts (ConfigDB file, socket, span dumps).
  std::string OutDir;
};

/// What one run measured and how many of its operations went wrong.
struct Outcome {
  size_t Attempted = 0;
  size_t Failed = 0;
  std::map<std::string, double> Metrics;

  /// Counts one failed operation and logs \p Why to stderr.
  void fail(const std::string &Why);
};

Outcome runTuneCold(const RunOptions &Opts);
Outcome runRetuneCached(const RunOptions &Opts);
Outcome runServeMixed(const RunOptions &Opts);

/// A problem resolved through the serve layer's kernel/machine builders.
struct Case {
  Problem P;
  eco::LoopNest Nest;
  eco::MachineDesc Machine;
};
Case buildCase(const Problem &P);

/// Runs \p Executable under \p Config on a fresh simulator for \p Machine
/// and returns its counters; the cost the search saw is cycles().
eco::HWCounters resimulate(const eco::LoopNest &Executable,
                           const eco::Env &Config,
                           const eco::MachineDesc &Machine);

/// MemHierarchySim alone on a fixed synthetic stream (a naive ijk matmul
/// on the scaled sgi machine): simulated accesses per second.
double replayAccessesPerSecond();

/// Seconds elapsed since \p StartNs (a nowNs() stamp).
double secondsSince(uint64_t StartNs);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
