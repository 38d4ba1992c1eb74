//===- exec/Executor.h - Loop-nest interpreter over the simulator -*- C++ -*-//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes a (transformed) LoopNest by walking its iteration space and
/// issuing every memory access to a MemHierarchySim. This is the "run the
/// variant on the target architecture" step of the paper's empirical
/// search, with the simulator standing in for the hardware.
///
/// Two modes:
///  * counters-only (default): fast — innermost loops run a precompiled
///    fast path with incremental address generation;
///  * value mode: additionally computes the real floating-point results,
///    so tests can check that every transformation preserves semantics.
///
/// The cycle model is a balanced-superscalar one: floating-point work,
/// memory-port work, and loop control accumulate on three parallel
/// resource clocks (FP ops at FlopsPerCycle, loads/stores/prefetches at
/// MemOpsPerCycle, LoopOverheadCycles per iteration); issue time is the
/// max of the three, and every memory access additionally adds the stall
/// the simulator reports (prefetches never stall; register moves from
/// RegRotate are renames and cost nothing). This lets a register-tiled
/// kernel with enough independent work approach machine peak, as the
/// paper's ECO versions do (85% of peak on the R10000).
///
//===----------------------------------------------------------------------===//

#ifndef ECO_EXEC_EXECUTOR_H
#define ECO_EXEC_EXECUTOR_H

#include "exec/AddressMap.h"
#include "ir/Loop.h"
#include "sim/MemHierarchy.h"

#include <algorithm>
#include <vector>

namespace eco {

/// Knobs for one execution.
struct ExecOptions {
  bool ComputeValues = false;   ///< maintain real FP array contents
};

/// Interprets one LoopNest against one simulator instance.
///
/// The Env passed at construction must bind every parameter and problem
/// size the nest uses; loop variables are managed internally.
class Executor {
public:
  Executor(const LoopNest &Nest, Env Bindings, MemHierarchySim &Sim,
           ExecOptions Opts = {});

  /// Runs the nest once, accumulating into the simulator's counters.
  void run();

  /// Array contents (value mode only). Sized at construction; callers may
  /// initialize before run() and inspect afterwards.
  std::vector<double> &dataOf(ArrayId Id) {
    assert(Opts.ComputeValues && "value mode disabled");
    return Data[Id];
  }

  const AddressMap &addressMap() const { return AMap; }
  const HWCounters &counters() const { return Sim.counters(); }

  /// Total cycles so far: the busiest resource clock plus all stalls.
  double now() const {
    return std::max(FpCy, std::max(MemCy, OvhCy)) + StallCy;
  }

private:
  // --- compiled program ---------------------------------------------------
  enum class AccessKind : uint8_t { Load, Store, Prefetch };
  struct AccessPlan {
    ArrayId Arr;
    AffineExpr Flat; ///< flat element index as an affine fn of symbols
    AccessKind Kind;
  };
  struct StmtPlan {
    const Stmt *S;
    double FpCycles;  ///< FP-unit cycles this statement adds
    double MemCycles; ///< memory-port cycles (incl. prefetch slots)
    unsigned Flops;
    std::vector<AccessPlan> Accesses;
  };
  struct ItemRef {
    bool IsLoop;
    int Idx;
  };

  // --- fast-loop tables ---------------------------------------------------
  // A statements-only loop body compiles, once, into a flat access table;
  // every entry to the loop then only evaluates each access's starting
  // address and streams through the table with incremental address
  // generation. The seed re-derived this table (with heap allocations and
  // per-access coefficient lookups) on every entry — i.e. once per
  // surrounding tile iteration, squarely on the search's hot path.
  struct FastAccess { ///< hot per-iteration state, refilled on loop entry
    uint64_t Addr;
    int64_t Delta;
    AccessKind Kind;
    uint64_t Base; ///< array's first byte (prefetch bounds check)
    uint64_t End;  ///< one past the array's last byte
  };
  struct FastAccessMeta { ///< cold compile-time shape of one access
    ArrayId Arr;
    AffineExpr Flat;      ///< flat element index (copied from the plan)
    int64_t DeltaPerStep; ///< byte delta per unit step of the loop var
    AccessKind Kind;
  };
  struct FastStmt {
    double Fp, Mem;
    unsigned Flops;
    unsigned First, Count; ///< range in the flat access array
  };
  struct FastTable {
    std::vector<FastAccessMeta> Meta;
    std::vector<FastStmt> Stmts;
    std::vector<FastAccess> Hot; ///< sized to Meta; reused every entry
  };

  struct LoopPlan {
    const Loop *L;
    std::vector<ItemRef> Items;
    std::vector<ItemRef> Epilogue;
    bool StmtsOnly;    ///< Items contains no nested loops
    bool EpiStmtsOnly; ///< Epilogue contains no nested loops
    FastTable MainFast; ///< compiled Items (counters mode, StmtsOnly)
    FastTable EpiFast;  ///< compiled Epilogue (counters mode, EpiStmtsOnly)
  };

  std::vector<ItemRef> compileBody(const Body &B);
  int compileStmt(const Stmt &S);
  FastTable buildFastTable(const std::vector<ItemRef> &Items, SymbolId Var);
  AffineExpr flatIndexOf(const ArrayRef &Ref) const;

  void execItems(const std::vector<ItemRef> &Items);
  void execLoop(LoopPlan &LP);
  void execStmt(const StmtPlan &SP);
  void execCopy(const Stmt &S);

  /// Runs \p Iters iterations of a precompiled statements-only body with
  /// incremental addresses; the loop variable must be bound to its entry
  /// value (start addresses are evaluated under the current Env).
  void runFastLoop(FastTable &FT, int64_t Step, int64_t Iters);

  double evalTree(const ScalarExpr &E) const;
  int64_t flatOf(const ArrayRef &Ref) const;
  double issueAccess(const AccessPlan &AP, uint64_t Addr);

  const LoopNest &Nest;
  Env E;
  MemHierarchySim &Sim;
  ExecOptions Opts;
  AddressMap AMap;

  std::vector<StmtPlan> StmtPlans;
  std::vector<LoopPlan> LoopPlans;
  std::vector<ItemRef> Root;

  std::vector<std::vector<double>> Data; ///< value mode array contents
  std::vector<double> Regs;              ///< register file (value mode)

  double FpCy = 0;   ///< FP-unit resource clock
  double MemCy = 0;  ///< memory-port resource clock
  double OvhCy = 0;  ///< loop-control resource clock
  double StallCy = 0;
};

} // namespace eco

#endif // ECO_EXEC_EXECUTOR_H
