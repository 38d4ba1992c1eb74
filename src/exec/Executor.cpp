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
    // Fast tables fold every non-loop-variable symbol into constants.
    assert(Nest.Syms.kind(L.Var) == SymbolKind::LoopVar &&
           "loop binds a symbol that is not a loop variable");
    LoopPlan LP;
    LP.L = &L;
    LP.Items = compileBody(L.Items);
    LP.Epilogue = compileBody(L.Epilogue);
    // Compile the counters-mode bodies once; every entry to the loop
    // reuses them (value mode interprets the items instead).
    if (!Opts.ComputeValues) {
      LP.MainFast = buildFastBody(LP.Items, L.Var);
      LP.EpiFast = buildFastBody(LP.Epilogue, L.Var);
    }
    LoopPlans.push_back(std::move(LP));
    Items.push_back({/*IsLoop=*/true,
                     static_cast<int>(LoopPlans.size()) - 1});
  }
  return Items;
}

Executor::FastBody
Executor::buildFastBody(const std::vector<ItemRef> &Items, SymbolId Var) {
  FastBody FB;
  std::vector<ItemRef> Run; // the current run of plain statements
  auto EndRun = [&] {
    if (Run.empty())
      return;
    FB.Parts.push_back(
        {FastPart::Table, static_cast<int>(FB.Tables.size())});
    FB.Tables.push_back(buildFastTable(Run, Var));
    Run.clear();
  };
  for (const ItemRef &R : Items) {
    // A CopyIn reads its region bounds from the current bindings on
    // every execution, so it is a part of its own, never a table row.
    bool IsCopy = !R.IsLoop && StmtPlans[R.Idx].S->Kind == StmtKind::CopyIn;
    if (!R.IsLoop && !IsCopy) {
      Run.push_back(R);
      continue;
    }
    EndRun();
    FB.Parts.push_back({R.IsLoop ? FastPart::Loop : FastPart::Copy, R.Idx});
  }
  EndRun();
  return FB;
}

Executor::FastTable
Executor::buildFastTable(const std::vector<ItemRef> &Items, SymbolId Var) {
  FastTable FT;
  for (const ItemRef &R : Items) {
    const StmtPlan &SP = StmtPlans[R.Idx];
    assert(!R.IsLoop && SP.S->Kind != StmtKind::CopyIn &&
           "fast tables hold plain statements only");
    // A register rename touches no clock or counter: leave it out.
    if (SP.Accesses.empty() && SP.FpCycles == 0 && SP.MemCycles == 0)
      continue;
    FastStmt FS;
    FS.Fp = SP.FpCycles;
    FS.Mem = SP.MemCycles;
    FS.First = static_cast<unsigned>(FT.Meta.size());
    FT.Flops += SP.Flops;
    for (const AccessPlan &AP : SP.Accesses) {
      int64_t ElemBytes = Nest.array(AP.Arr).ElemBytes;
      // Constants and parameters are fixed for the whole run: fold them
      // into the start address now and keep only loop-variable terms.
      int64_t FixedFlat = AP.Flat.constTerm();
      FastAccessMeta AM;
      AM.FirstTerm = static_cast<unsigned>(FT.Terms.size());
      for (SymbolId S : AP.Flat.symbols()) {
        if (Nest.Syms.kind(S) == SymbolKind::LoopVar)
          FT.Terms.push_back({S, AP.Flat.coeff(S) * ElemBytes});
        else
          FixedFlat += AP.Flat.coeff(S) * E.get(S);
      }
      AM.NumTerms = static_cast<unsigned>(FT.Terms.size()) - AM.FirstTerm;
      AM.Fixed = AMap.addrOfFlat(AP.Arr, FixedFlat);
      AM.DeltaPerStep = AP.Flat.coeff(Var) * ElemBytes;
      FT.Meta.push_back(AM);
      FT.Hot.push_back({0, 0, AMap.baseOf(AP.Arr),
                        AMap.addrOfFlat(AP.Arr, AMap.numElements(AP.Arr)),
                        AP.Kind == AccessKind::Prefetch});
      FT.Loads += AP.Kind == AccessKind::Load;
      FT.Stores += AP.Kind == AccessKind::Store;
    }
    FS.Count = static_cast<unsigned>(FT.Meta.size()) - FS.First;
    FT.Stmts.push_back(FS);
  }
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

  // Runs Iters iterations of one body from First, compiled in counters
  // mode and interpreted in value mode.
  auto RunBody = [&](const std::vector<ItemRef> &Items, FastBody &Fast,
                     int64_t First, int64_t By, int64_t Iters) {
    if (!Opts.ComputeValues) {
      runFastBody(Fast, L.Var, First, By, Iters);
      return;
    }
    for (int64_t It = 0, V = First; It < Iters; ++It, V += By) {
      E.set(L.Var, V);
      execItems(Items);
      ++Sim.counters().LoopIters;
      OvhCy += Sim.machine().LoopOverheadCycles;
    }
  };

  if (L.Unroll <= 1) {
    RunBody(LP.Items, LP.MainFast, Lo, Step, (Hi - Lo) / Step + 1);
    return;
  }
  // Main jammed body while a full unroll group fits, then the epilogue
  // one iteration at a time.
  int64_t U = L.Unroll;
  int64_t MainIters = (Hi - U + 1 >= Lo) ? (Hi - U + 1 - Lo) / U + 1 : 0;
  if (MainIters > 0)
    RunBody(LP.Items, LP.MainFast, Lo, U, MainIters);
  int64_t V = Lo + MainIters * U;
  if (Hi - V + 1 > 0)
    RunBody(LP.Epilogue, LP.EpiFast, V, 1, Hi - V + 1);
}

void Executor::runFastBody(FastBody &FB, SymbolId Var, int64_t First,
                           int64_t Step, int64_t Iters) {
  // Every table's start addresses depend only on the surrounding loops'
  // bindings and this loop's entry value: nested loops bind only their
  // own variables, which no statement of this body can read.
  E.set(Var, First);
  for (FastTable &FT : FB.Tables)
    refreshTable(FT, Step);
  if (FB.Parts.size() == 1 && FB.Parts.front().K == FastPart::Table) {
    runTable(FB.Tables.front(), Iters, /*ClosesIteration=*/true);
    return;
  }
  const double Overhead = Sim.machine().LoopOverheadCycles;
  for (int64_t It = 0, V = First; It < Iters; ++It, V += Step) {
    E.set(Var, V); // nested loop bounds and copy regions read it
    for (const FastPart &P : FB.Parts) {
      switch (P.K) {
      case FastPart::Table:
        runTable(FB.Tables[P.Idx], 1, /*ClosesIteration=*/false);
        break;
      case FastPart::Loop:
        execLoop(LoopPlans[P.Idx]);
        break;
      case FastPart::Copy:
        runCopy(*StmtPlans[P.Idx].S);
        break;
      }
    }
    ++Sim.counters().LoopIters;
    OvhCy += Overhead;
  }
}

void Executor::refreshTable(FastTable &FT, int64_t Step) {
  const int64_t *Vals = E.data();
  const FastTerm *Terms = FT.Terms.data();
  for (size_t A = 0, N = FT.Meta.size(); A < N; ++A) {
    const FastAccessMeta &AM = FT.Meta[A];
    uint64_t Addr = AM.Fixed;
    for (unsigned T = AM.FirstTerm, End = T + AM.NumTerms; T != End; ++T)
      Addr += static_cast<uint64_t>(Terms[T].BytesPerUnit) *
              static_cast<uint64_t>(Vals[Terms[T].Var]);
    FT.Hot[A].Addr = Addr;
    FT.Hot[A].Delta = AM.DeltaPerStep * Step;
  }
}

void Executor::runTable(FastTable &FT, int64_t Iters, bool ClosesIteration) {
  // The resource clocks live in locals for the whole table run.
  double Fp = FpCy, Mem = MemCy, Ovh = OvhCy, Stall = StallCy;
  const double Overhead = Sim.machine().LoopOverheadCycles;
  FastAccess *Accesses = FT.Hot.data();
  for (int64_t It = 0; It < Iters; ++It) {
    for (const FastStmt &FS : FT.Stmts) {
      for (FastAccess *A = Accesses + FS.First, *End = A + FS.Count;
           A != End; ++A) {
        double Now = std::max(Fp, std::max(Mem, Ovh)) + Stall;
        if (A->IsPrefetch) {
          // Out-of-bounds prefetches are dropped (see execStmt).
          if (A->Addr >= A->Base && A->Addr < A->End)
            Sim.prefetch(A->Addr, Now);
        } else if (double S = Sim.demand(A->Addr, Now); S != 0) {
          Stall += S; // skipping += 0 is exact: Stall is never -0
        }
        A->Addr += static_cast<uint64_t>(A->Delta);
      }
      Fp += FS.Fp;
      Mem += FS.Mem;
    }
    if (ClosesIteration)
      Ovh += Overhead;
  }
  FpCy = Fp;
  MemCy = Mem;
  OvhCy = Ovh;
  StallCy = Stall;

  HWCounters &C = Sim.counters();
  uint64_t N = static_cast<uint64_t>(Iters);
  C.Loads += FT.Loads * N;
  C.Stores += FT.Stores * N;
  C.Flops += FT.Flops * N;
  if (ClosesIteration)
    C.LoopIters += N;
}

void Executor::runCopy(const Stmt &S) {
  const unsigned Rank = static_cast<unsigned>(S.Region.size());
  assert(Rank > 0 && "empty copy region");
  const std::vector<int64_t> &SrcStr = AMap.stridesOf(S.CopySrc);
  const std::vector<int64_t> &DstStr = AMap.stridesOf(S.CopyDst);

  // Byte addresses throughout: strides are already byte steps, and the
  // buffer region starts at the destination's first element.
  std::vector<int64_t> Size(Rank), Idx(Rank, 0);
  uint64_t Src = AMap.baseOf(S.CopySrc), Dst = AMap.baseOf(S.CopyDst);
  for (unsigned D = 0; D < Rank; ++D) {
    Size[D] = S.Region[D].Size.eval(E);
    if (Size[D] <= 0)
      return; // empty tile at the boundary
    Src += static_cast<uint64_t>(S.Region[D].Start.eval(E) * SrcStr[D]);
  }

  const MachineDesc &M = Sim.machine();
  // One load + one store per element, plus modest loop control.
  const double PerElemMem = 2.0 / M.MemOpsPerCycle;
  const double PerElemOvh = 0.5 * M.LoopOverheadCycles;
  const double Fp = FpCy;
  double Mem = MemCy, Ovh = OvhCy, Stall = StallCy;
  const uint64_t SrcRow = static_cast<uint64_t>(SrcStr[0]);
  const uint64_t DstRow = static_cast<uint64_t>(DstStr[0]);
  auto Issue = [&](uint64_t Addr) {
    double Now = std::max(Fp, std::max(Mem, Ovh)) + Stall;
    if (double St = Sim.demand(Addr, Now); St != 0)
      Stall += St;
  };
  uint64_t Elems = 0;
  for (;;) {
    // Dimension 0 innermost, as execCopy's odometer runs it.
    for (int64_t I = 0; I < Size[0]; ++I, Src += SrcRow, Dst += DstRow) {
      Issue(Src);
      Issue(Dst);
      Mem += PerElemMem;
      Ovh += PerElemOvh;
    }
    Elems += static_cast<uint64_t>(Size[0]);
    Src -= SrcRow * static_cast<uint64_t>(Size[0]);
    Dst -= DstRow * static_cast<uint64_t>(Size[0]);
    unsigned D = 1;
    for (; D < Rank; ++D) {
      if (++Idx[D] < Size[D]) {
        Src += static_cast<uint64_t>(SrcStr[D]);
        Dst += static_cast<uint64_t>(DstStr[D]);
        break;
      }
      Idx[D] = 0;
      Src -= static_cast<uint64_t>(SrcStr[D] * (Size[D] - 1));
      Dst -= static_cast<uint64_t>(DstStr[D] * (Size[D] - 1));
    }
    if (D == Rank)
      break;
  }
  MemCy = Mem;
  OvhCy = Ovh;
  StallCy = Stall;
  Sim.counters().Loads += Elems;
  Sim.counters().Stores += Elems;
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
