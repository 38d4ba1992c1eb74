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
///  * counters-only (default): fast — every loop body runs precompiled.
///    Each maximal run of plain statements is a table of accesses with
///    incremental address generation, nested loops and CopyIn run as
///    parts between tables, and accesses go to the simulator's
///    non-counting demand path with loads and stores counted in bulk;
///  * value mode: the reference interpreter. It additionally computes
///    the real floating-point results, so tests can check that every
///    transformation preserves semantics, and its counters are the
///    oracle the fast path must match bit for bit.
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

  // --- counters mode: fast tables ---------------------------------------
  // In counters mode every loop body compiles, once, into parts: each
  // maximal run of plain statements (Compute, RegLoad, RegStore,
  // RegRotate, Prefetch) becomes a FastTable, while nested loops and
  // CopyIn statements stay parts of their own. Every entry to the loop
  // refreshes each table's start addresses from the current bindings;
  // every iteration then streams through the table with incremental
  // address generation, so no affine expression is evaluated per access.
  struct FastAccess { ///< hot per-iteration state of one access
    uint64_t Addr;    ///< refreshed on loop entry, advanced by Delta
    int64_t Delta;    ///< byte step per iteration (refreshed with Addr)
    uint64_t Base;    ///< array's first byte (prefetch bounds check)
    uint64_t End;     ///< one past the array's last byte
    bool IsPrefetch;
  };
  struct FastAccessMeta { ///< cold plan-time shape of one access
    /// Byte address with every loop variable at 0: array base plus the
    /// flat index's constant and parameter terms (fixed for the run).
    uint64_t Fixed;
    unsigned FirstTerm, NumTerms; ///< loop-variable terms in Terms
    int64_t DeltaPerStep; ///< byte delta per unit step of the loop var
  };
  struct FastTerm { ///< one loop-variable term of an access's address
    SymbolId Var;
    int64_t BytesPerUnit;
  };
  struct FastStmt {
    double Fp, Mem;
    unsigned First, Count; ///< range in the access arrays
  };
  struct FastTable {
    std::vector<FastAccessMeta> Meta;
    std::vector<FastTerm> Terms;
    std::vector<FastAccess> Hot; ///< parallel to Meta
    std::vector<FastStmt> Stmts;
    /// Per-iteration demand loads/stores and flops, counted in bulk.
    uint64_t Loads = 0, Stores = 0, Flops = 0;
  };
  struct FastPart {
    enum Kind : uint8_t { Table, Loop, Copy } K;
    int Idx; ///< into FastBody::Tables, LoopPlans or StmtPlans
  };
  struct FastBody {
    std::vector<FastPart> Parts;
    std::vector<FastTable> Tables;
  };

  struct LoopPlan {
    const Loop *L;
    std::vector<ItemRef> Items;    ///< value mode: interpreted
    std::vector<ItemRef> Epilogue;
    FastBody MainFast; ///< counters mode: compiled Items
    FastBody EpiFast;  ///< counters mode: compiled Epilogue
  };

  std::vector<ItemRef> compileBody(const Body &B);
  int compileStmt(const Stmt &S);
  FastBody buildFastBody(const std::vector<ItemRef> &Items, SymbolId Var);
  FastTable buildFastTable(const std::vector<ItemRef> &Items, SymbolId Var);
  AffineExpr flatIndexOf(const ArrayRef &Ref) const;

  void execItems(const std::vector<ItemRef> &Items);
  void execLoop(LoopPlan &LP);
  void execStmt(const StmtPlan &SP);
  void execCopy(const Stmt &S);

  /// Runs \p Iters iterations of a compiled body whose loop variable
  /// \p Var starts at \p First and advances by \p Step.
  void runFastBody(FastBody &FB, SymbolId Var, int64_t First, int64_t Step,
                   int64_t Iters);
  /// Points \p FT's accesses at their addresses under the current Env,
  /// advancing by \p Step loop-variable units per iteration.
  void refreshTable(FastTable &FT, int64_t Step);
  /// Runs \p Iters passes over \p FT; \p ClosesIteration when the table
  /// is the whole loop body, so each pass also costs one loop iteration.
  void runTable(FastTable &FT, int64_t Iters, bool ClosesIteration);
  /// Counters-mode CopyIn: execCopy's accesses in its order, issued
  /// through the demand path with byte steps hoisted per dimension.
  void runCopy(const Stmt &S);

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
