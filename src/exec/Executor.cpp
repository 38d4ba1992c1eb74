//===- exec/Executor.cpp - Loop-nest interpreter over the simulator ------===//

#include "exec/Executor.h"
#include "obs/Log.h"

#include <algorithm>

using namespace eco;

Executor::Executor(const LoopNest &N, Env Bindings, MemHierarchySim &S,
                   ExecOptions O)
    : Nest(N), E(std::move(Bindings)), Sim(S), Opts(O), AMap(N, E) {
  // Make sure every symbol has a slot (loop vars may be unbound so far).
  if (Nest.Syms.size() > 0 && E.size() < Nest.Syms.size())
    E.set(static_cast<SymbolId>(Nest.Syms.size()) - 1, 0);

  if (Opts.ComputeValues) {
    Data.resize(Nest.Arrays.size());
    for (size_t A = 0; A < Nest.Arrays.size(); ++A)
      Data[A].assign(AMap.numElements(static_cast<ArrayId>(A)), 0.0);
    Regs.assign(std::max(Nest.NumRegs, 1), 0.0);
  }

  if (Nest.MaxLiveRegs > 0 &&
      static_cast<unsigned>(Nest.MaxLiveRegs) > Sim.machine().FpRegisters)
    ECO_LOG(Debug) << "nest " << Nest.Name << " needs " << Nest.MaxLiveRegs
                   << " live registers but the machine has "
                   << Sim.machine().FpRegisters
                   << "; modeling spill traffic";

  Root = compileBody(Nest.Items);
}

AffineExpr Executor::flatIndexOf(const ArrayRef &Ref) const {
  const std::vector<int64_t> &Strides = AMap.stridesOf(Ref.Array);
  unsigned ElemBytes = Nest.array(Ref.Array).ElemBytes;
  assert(Ref.Subs.size() == Strides.size() && "rank mismatch");
  AffineExpr Flat;
  for (size_t D = 0; D < Ref.Subs.size(); ++D)
    Flat = Flat + Ref.Subs[D].scaled(Strides[D] /
                                     static_cast<int64_t>(ElemBytes));
  return Flat;
}

int Executor::compileStmt(const Stmt &S) {
  StmtPlan SP;
  SP.S = &S;
  SP.Flops = 0;
  unsigned MemOps = 0;

  auto addAccess = [&](const ArrayRef &Ref, AccessKind K) {
    SP.Accesses.push_back({Ref.Array, flatIndexOf(Ref), K});
    if (K != AccessKind::Prefetch)
      ++MemOps;
  };

  switch (S.Kind) {
  case StmtKind::Compute:
    SP.Flops = S.Rhs->flops();
    S.Rhs->forEachRead([&](const ScalarExpr &Leaf) {
      addAccess(Leaf.Ref, AccessKind::Load);
    });
    if (S.LhsRef)
      addAccess(*S.LhsRef, AccessKind::Store);
    break;
  case StmtKind::RegLoad:
    addAccess(*S.MemRef, AccessKind::Load);
    break;
  case StmtKind::RegStore:
    addAccess(*S.MemRef, AccessKind::Store);
    break;
  case StmtKind::Prefetch:
    addAccess(*S.PrefetchRef, AccessKind::Prefetch);
    ++MemOps; // prefetch occupies a memory issue slot
    break;
  case StmtKind::RegRotate:
  case StmtKind::CopyIn:
    break; // costed at execution time
  }

  const MachineDesc &M = Sim.machine();
  SP.FpCycles = SP.Flops / M.FlopsPerCycle;
  SP.MemCycles = MemOps / M.MemOpsPerCycle;

  // Register pressure: when scalar replacement allocated more register
  // slots than the machine has, the backend would spill — extra memory
  // traffic on every compute statement, so the empirical search "detects
  // the largest unroll factors that do not cause register pressure"
  // (paper Section 3.1.1).
  if (S.Kind == StmtKind::Compute && Nest.MaxLiveRegs > 0 &&
      static_cast<unsigned>(Nest.MaxLiveRegs) > M.FpRegisters)
    SP.MemCycles += 2.0 * (Nest.MaxLiveRegs - M.FpRegisters) /
                    static_cast<double>(M.FpRegisters);

  StmtPlans.push_back(std::move(SP));
  return static_cast<int>(StmtPlans.size()) - 1;
}

std::vector<Executor::ItemRef> Executor::compileBody(const Body &B) {
  std::vector<ItemRef> Items;
  for (const BodyItem &Item : B) {
    if (Item.isStmt()) {
      Items.push_back({/*IsLoop=*/false, compileStmt(Item.stmt())});
      continue;
    }
    const Loop &L = Item.loop();
    LoopPlan LP;
    LP.L = &L;
    LP.Items = compileBody(L.Items);
    LP.Epilogue = compileBody(L.Epilogue);
    auto StmtsOnly = [](const std::vector<ItemRef> &V) {
      return std::all_of(V.begin(), V.end(),
                         [](const ItemRef &R) { return !R.IsLoop; });
    };
    LP.StmtsOnly = StmtsOnly(LP.Items);
    LP.EpiStmtsOnly = StmtsOnly(LP.Epilogue);
    // Compile the fast-path access tables once; every entry to the loop
    // reuses them (value mode never takes the fast path).
    if (!Opts.ComputeValues) {
      if (LP.StmtsOnly)
        LP.MainFast = buildFastTable(LP.Items, L.Var);
      if (LP.EpiStmtsOnly)
        LP.EpiFast = buildFastTable(LP.Epilogue, L.Var);
    }
    LoopPlans.push_back(std::move(LP));
    Items.push_back({/*IsLoop=*/true,
                     static_cast<int>(LoopPlans.size()) - 1});
  }
  return Items;
}

Executor::FastTable
Executor::buildFastTable(const std::vector<ItemRef> &Items, SymbolId Var) {
  FastTable FT;
  for (const ItemRef &R : Items) {
    const StmtPlan &SP = StmtPlans[R.Idx];
    FastStmt FS;
    FS.Fp = SP.FpCycles;
    FS.Mem = SP.MemCycles;
    FS.Flops = SP.Flops;
    FS.First = static_cast<unsigned>(FT.Meta.size());
    for (const AccessPlan &AP : SP.Accesses) {
      int64_t ElemBytes = Nest.array(AP.Arr).ElemBytes;
      FT.Meta.push_back(
          {AP.Arr, AP.Flat, AP.Flat.coeff(Var) * ElemBytes, AP.Kind});
    }
    FS.Count = static_cast<unsigned>(FT.Meta.size()) - FS.First;
    FT.Stmts.push_back(FS);
  }
  FT.Hot.resize(FT.Meta.size());
  return FT;
}

void Executor::run() {
  FpCy = MemCy = OvhCy = 0;
  StallCy = 0;
  execItems(Root);
  Sim.counters().IssueCycles += std::max(FpCy, std::max(MemCy, OvhCy));
  Sim.counters().StallCycles += StallCy;
}

void Executor::execItems(const std::vector<ItemRef> &Items) {
  for (const ItemRef &R : Items) {
    if (R.IsLoop)
      execLoop(LoopPlans[R.Idx]);
    else
      execStmt(StmtPlans[R.Idx]);
  }
}

double Executor::issueAccess(const AccessPlan &AP, uint64_t Addr) {
  if (AP.Kind == AccessKind::Prefetch)
    return Sim.prefetch(Addr, now());
  return Sim.access(Addr, AP.Kind == AccessKind::Store, now());
}

void Executor::execLoop(LoopPlan &LP) {
  const Loop &L = *LP.L;
  int64_t Lo = L.Lower.eval(E);
  int64_t Hi = L.Upper.eval(E);
  if (Lo > Hi)
    return;
  int64_t Step = L.hasParamStep() ? E.get(L.StepSym) : L.Step;
  assert(Step > 0 && "loop step must be positive");

  bool CanFast = !Opts.ComputeValues;
  if (L.Unroll > 1) {
    int64_t U = L.Unroll;
    // Main jammed body while a full unroll group fits.
    int64_t MainIters = (Hi - U + 1 >= Lo) ? (Hi - U + 1 - Lo) / U + 1 : 0;
    int64_t V = Lo;
    if (MainIters > 0) {
      E.set(L.Var, V);
      if (CanFast && LP.StmtsOnly) {
        runFastLoop(LP.MainFast, U, MainIters);
      } else {
        for (int64_t M = 0; M < MainIters; ++M, V += U) {
          E.set(L.Var, V);
          execItems(LP.Items);
          ++Sim.counters().LoopIters;
          OvhCy += Sim.machine().LoopOverheadCycles;
        }
      }
      V = Lo + MainIters * U;
    }
    // Epilogue, one iteration at a time.
    int64_t EpiIters = Hi - V + 1;
    if (EpiIters > 0) {
      E.set(L.Var, V);
      if (CanFast && LP.EpiStmtsOnly) {
        runFastLoop(LP.EpiFast, 1, EpiIters);
      } else {
        for (; V <= Hi; ++V) {
          E.set(L.Var, V);
          execItems(LP.Epilogue);
          ++Sim.counters().LoopIters;
          OvhCy += Sim.machine().LoopOverheadCycles;
        }
      }
    }
    return;
  }

  int64_t Iters = (Hi - Lo) / Step + 1;
  E.set(L.Var, Lo);
  if (CanFast && LP.StmtsOnly) {
    runFastLoop(LP.MainFast, Step, Iters);
    return;
  }
  for (int64_t V = Lo; V <= Hi; V += Step) {
    E.set(L.Var, V);
    execItems(LP.Items);
    ++Sim.counters().LoopIters;
    OvhCy += Sim.machine().LoopOverheadCycles;
  }
}

void Executor::runFastLoop(FastTable &FT, int64_t Step, int64_t Iters) {
  // Refresh the hot table: only the starting address (the loop variable's
  // entry value under the surrounding loops' current bindings) and the
  // step-scaled delta change between entries; shape and kinds are fixed.
  FastAccess *Accesses = FT.Hot.data();
  for (size_t A = 0, N = FT.Meta.size(); A < N; ++A) {
    const FastAccessMeta &AM = FT.Meta[A];
    Accesses[A] = {AMap.addrOfFlat(AM.Arr, AM.Flat.eval(E)),
                   AM.DeltaPerStep * Step, AM.Kind, AMap.baseOf(AM.Arr),
                   AMap.addrOfFlat(AM.Arr, AMap.numElements(AM.Arr))};
  }

  HWCounters &C = Sim.counters();
  double Overhead = Sim.machine().LoopOverheadCycles;
  for (int64_t It = 0; It < Iters; ++It) {
    for (const FastStmt &FS : FT.Stmts) {
      for (unsigned A = FS.First, End = FS.First + FS.Count; A != End; ++A) {
        FastAccess &FA = Accesses[A];
        double Now = std::max(FpCy, std::max(MemCy, OvhCy)) + StallCy;
        if (FA.Kind == AccessKind::Prefetch) {
          // Out-of-bounds prefetches are dropped (see execStmt).
          if (FA.Addr >= FA.Base && FA.Addr < FA.End)
            Sim.prefetch(FA.Addr, Now);
        } else
          StallCy += Sim.access(FA.Addr, FA.Kind == AccessKind::Store, Now);
        FA.Addr = static_cast<uint64_t>(
            static_cast<int64_t>(FA.Addr) + FA.Delta);
      }
      FpCy += FS.Fp;
      MemCy += FS.Mem;
      C.Flops += FS.Flops;
    }
    ++C.LoopIters;
    OvhCy += Overhead;
  }
}

int64_t Executor::flatOf(const ArrayRef &Ref) const {
  int64_t Flat = 0;
  const std::vector<int64_t> &Strides = AMap.stridesOf(Ref.Array);
  unsigned ElemBytes = Nest.array(Ref.Array).ElemBytes;
  for (size_t D = 0; D < Ref.Subs.size(); ++D)
    Flat += Ref.Subs[D].eval(E) *
            (Strides[D] / static_cast<int64_t>(ElemBytes));
  return Flat;
}

double Executor::evalTree(const ScalarExpr &Ex) const {
  switch (Ex.Kind) {
  case ScalarExprKind::Const:
    return Ex.ConstVal;
  case ScalarExprKind::Read: {
    int64_t Flat = flatOf(Ex.Ref);
    assert(Flat >= 0 &&
           Flat < static_cast<int64_t>(Data[Ex.Ref.Array].size()) &&
           "array read out of bounds");
    return Data[Ex.Ref.Array][Flat];
  }
  case ScalarExprKind::RegRead:
    assert(Ex.Reg >= 0 && Ex.Reg < static_cast<int>(Regs.size()));
    return Regs[Ex.Reg];
  case ScalarExprKind::Add:
    return evalTree(*Ex.Lhs) + evalTree(*Ex.Rhs);
  case ScalarExprKind::Sub:
    return evalTree(*Ex.Lhs) - evalTree(*Ex.Rhs);
  case ScalarExprKind::Mul:
    return evalTree(*Ex.Lhs) * evalTree(*Ex.Rhs);
  }
  return 0;
}

void Executor::execStmt(const StmtPlan &SP) {
  const Stmt &S = *SP.S;

  if (S.Kind == StmtKind::RegRotate) {
    if (Opts.ComputeValues)
      for (const auto &[Dst, Src] : S.Moves)
        Regs[Dst] = Regs[Src];
    return; // register renaming: free
  }
  if (S.Kind == StmtKind::CopyIn) {
    execCopy(S);
    return;
  }

  // Issue the planned accesses in order. A prefetch whose address fell
  // outside its array (e.g. distance overshooting the last iterations)
  // is dropped: hardware treats faulting prefetch hints as no-ops, and
  // letting it through would charge the sim for a phantom line.
  for (const AccessPlan &AP : SP.Accesses) {
    int64_t Flat = AP.Flat.eval(E);
    if (AP.Kind == AccessKind::Prefetch &&
        (Flat < 0 || Flat >= AMap.numElements(AP.Arr)))
      continue;
    uint64_t Addr = AMap.addrOfFlat(AP.Arr, Flat);
    StallCy += issueAccess(AP, Addr);
  }
  FpCy += SP.FpCycles;
  MemCy += SP.MemCycles;
  Sim.counters().Flops += SP.Flops;

  if (!Opts.ComputeValues)
    return;

  // Value semantics.
  switch (S.Kind) {
  case StmtKind::Compute: {
    double V = evalTree(*S.Rhs);
    if (S.LhsRef) {
      int64_t Flat = flatOf(*S.LhsRef);
      assert(Flat >= 0 &&
             Flat < static_cast<int64_t>(Data[S.LhsRef->Array].size()) &&
             "array write out of bounds");
      Data[S.LhsRef->Array][Flat] = V;
    } else {
      assert(S.LhsReg >= 0);
      Regs[S.LhsReg] = V;
    }
    break;
  }
  case StmtKind::RegLoad:
    Regs[S.Reg] = Data[S.MemRef->Array][flatOf(*S.MemRef)];
    break;
  case StmtKind::RegStore:
    Data[S.MemRef->Array][flatOf(*S.MemRef)] = Regs[S.Reg];
    break;
  default:
    break;
  }
}

void Executor::execCopy(const Stmt &S) {
  const unsigned Rank = static_cast<unsigned>(S.Region.size());
  assert(Rank > 0 && "empty copy region");

  // Evaluate region starts/sizes once.
  std::vector<int64_t> Start(Rank), Size(Rank);
  for (unsigned D = 0; D < Rank; ++D) {
    Start[D] = S.Region[D].Start.eval(E);
    Size[D] = S.Region[D].Size.eval(E);
    if (Size[D] <= 0)
      return; // empty tile at the boundary
  }

  const std::vector<int64_t> &SrcStr = AMap.stridesOf(S.CopySrc);
  const std::vector<int64_t> &DstStr = AMap.stridesOf(S.CopyDst);
  unsigned SrcElem = Nest.array(S.CopySrc).ElemBytes;
  unsigned DstElem = Nest.array(S.CopyDst).ElemBytes;

  const MachineDesc &M = Sim.machine();
  // One load + one store per element, plus modest loop control.
  double PerElemMem = 2.0 / M.MemOpsPerCycle;
  double PerElemOvh = 0.5 * M.LoopOverheadCycles;

  // Iterate the region with an odometer; dimension 0 innermost.
  std::vector<int64_t> Idx(Rank, 0);
  int64_t SrcFlat = 0, DstFlat = 0;
  for (unsigned D = 0; D < Rank; ++D)
    SrcFlat += Start[D] * (SrcStr[D] / static_cast<int64_t>(SrcElem));

  bool Done = false;
  while (!Done) {
    uint64_t SrcAddr = AMap.addrOfFlat(S.CopySrc, SrcFlat);
    uint64_t DstAddr = AMap.addrOfFlat(S.CopyDst, DstFlat);
    StallCy += Sim.access(SrcAddr, /*IsWrite=*/false, now());
    StallCy += Sim.access(DstAddr, /*IsWrite=*/true, now());
    MemCy += PerElemMem;
    OvhCy += PerElemOvh;
    if (Opts.ComputeValues)
      Data[S.CopyDst][DstFlat] = Data[S.CopySrc][SrcFlat];

    // Advance the odometer.
    Done = true;
    for (unsigned D = 0; D < Rank; ++D) {
      int64_t SrcStep = SrcStr[D] / static_cast<int64_t>(SrcElem);
      int64_t DstStep = DstStr[D] / static_cast<int64_t>(DstElem);
      if (++Idx[D] < Size[D]) {
        SrcFlat += SrcStep;
        DstFlat += DstStep;
        Done = false;
        break;
      }
      Idx[D] = 0;
      SrcFlat -= SrcStep * (Size[D] - 1);
      DstFlat -= DstStep * (Size[D] - 1);
    }
  }
}
