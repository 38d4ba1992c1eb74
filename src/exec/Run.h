//===- exec/Run.h - One-call simulation entry point ------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Convenience wrapper: bind named parameters, build the simulator, run a
/// nest once, and return the PAPI-style counters plus achieved MFLOPS —
/// the unit of work the empirical search evaluates at every search point.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_EXEC_RUN_H
#define ECO_EXEC_RUN_H

#include "exec/Executor.h"
#include "machine/MachineDesc.h"

#include <string>
#include <utility>
#include <vector>

namespace eco {

/// Name -> value bindings for parameters and problem sizes.
using ParamBindings = std::vector<std::pair<std::string, int64_t>>;

/// Outcome of one simulated execution.
struct RunResult {
  HWCounters Counters;
  double Mflops = 0;
  double Cycles = 0;
};

/// Builds an Env for \p Nest from \p Bindings (asserting each name
/// exists); loop variables stay unbound.
Env makeEnv(const LoopNest &Nest, const ParamBindings &Bindings);

/// The inverse of makeEnv: exports every bound Param/ProblemSize symbol
/// of \p Nest as (name, value) pairs, in symbol-table order. Loop
/// variables are skipped — their transient values are not part of a
/// configuration. This is the portable form the serve layer's ConfigDB
/// and the fleet's remote points carry, so a config can be rebound
/// against a freshly rebuilt nest whose symbol ids may differ.
ParamBindings envToBindings(const LoopNest &Nest, const Env &Config);

/// Runs \p Nest once on a fresh simulator for \p Machine.
RunResult simulateNest(const LoopNest &Nest, const ParamBindings &Bindings,
                       const MachineDesc &Machine, ExecOptions Opts = {});

} // namespace eco

#endif // ECO_EXEC_RUN_H
