//===- exec/Run.cpp - One-call simulation entry point ---------------------===//

#include "exec/Run.h"
#include "obs/Log.h"

using namespace eco;

Env eco::makeEnv(const LoopNest &Nest, const ParamBindings &Bindings) {
  Env E(Nest.Syms.size());
  for (const auto &[Name, Value] : Bindings) {
    SymbolId Id = Nest.Syms.lookup(Name);
    assert(Id >= 0 && "binding names an unknown symbol");
    assert(Nest.Syms.kind(Id) != SymbolKind::LoopVar &&
           "cannot bind a loop variable");
    E.set(Id, Value);
  }
  return E;
}

ParamBindings eco::envToBindings(const LoopNest &Nest, const Env &Config) {
  ParamBindings Bindings;
  for (SymbolId Id = 0;
       Id < static_cast<SymbolId>(Nest.Syms.size()); ++Id) {
    if (Nest.Syms.kind(Id) == SymbolKind::LoopVar)
      continue;
    int64_t Value =
        static_cast<size_t>(Id) < Config.size() ? Config.get(Id) : 0;
    Bindings.emplace_back(Nest.Syms.name(Id), Value);
  }
  return Bindings;
}

std::vector<std::vector<double>> eco::allocateArrays(const LoopNest &Nest,
                                                     const Env &Cfg) {
  std::vector<std::vector<double>> Arrays;
  Arrays.reserve(Nest.Arrays.size());
  for (const ArrayDecl &Decl : Nest.Arrays)
    Arrays.emplace_back(static_cast<size_t>(Decl.numElements(Cfg)), 0.0);
  return Arrays;
}

RunResult eco::simulateNest(const LoopNest &Nest,
                            const ParamBindings &Bindings,
                            const MachineDesc &Machine, ExecOptions Opts) {
  MemHierarchySim Sim(Machine);
  Executor Exec(Nest, makeEnv(Nest, Bindings), Sim, Opts);
  Exec.run();
  RunResult R;
  R.Counters = Sim.counters();
  R.Cycles = R.Counters.cycles();
  R.Mflops = R.Counters.Flops > 0 ? R.Counters.mflops(Machine.ClockMHz) : 0;
  ECO_LOG(Debug) << "simulateNest " << Nest.Name << ": "
                 << static_cast<uint64_t>(R.Cycles) << " cycles, "
                 << R.Counters.l1Misses() << " L1 misses, "
                 << R.Counters.TlbMisses << " TLB misses";
  return R;
}
