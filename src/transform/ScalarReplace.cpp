//===- transform/ScalarReplace.cpp - Scalar replacement -------------------===//

#include "transform/ScalarReplace.h"
#include "transform/Utils.h"

#include <algorithm>
#include <iterator>
#include <optional>

using namespace eco;

namespace {

/// One loop-invariant reference the rewrite may keep in a register;
/// structurally equal refs share one candidate.
struct Candidate {
  ArrayRef Ref;
  bool Read = false, Written = false;
  int Reg = -1; ///< -1 until the candidate passes the alias filter
};

/// Redirects the read leaf \p Leaf to register \p Reg.
void readFromReg(ScalarExpr &Leaf, int Reg, ScalarReplaceStats &Stats) {
  Leaf.Kind = ScalarExprKind::RegRead;
  Leaf.Reg = Reg;
  Leaf.Ref = ArrayRef();
  ++Stats.RefsReplaced;
}

} // namespace

ScalarReplaceStats eco::scalarReplaceInvariant(LoopNest &Nest,
                                               SymbolId InnerVar) {
  ScalarReplaceStats Stats;

  // Occurrence indices shift as we insert loads/stores, so re-locate after
  // each processed loop.
  for (size_t Occ = 0;; ++Occ) {
    std::vector<LoopLocation> Locs = findLoopOccurrences(Nest, InnerVar);
    if (Occ >= Locs.size())
      break;
    LoopLocation Loc = Locs[Occ];
    Loop &L = *Loc.L;

    // Collect invariant candidate refs from direct Compute statements, in
    // first-occurrence order (stable for codegen).
    std::vector<Candidate> Cands;
    auto find = [&Cands](const ArrayRef &Ref) -> Candidate * {
      for (Candidate &C : Cands)
        if (C.Ref == Ref)
          return &C;
      return nullptr;
    };
    auto consider = [&](const ArrayRef &Ref, bool Write) {
      if (Ref.uses(InnerVar))
        return;
      Candidate *C = find(Ref);
      if (!C)
        C = &Cands.emplace_back(Candidate{Ref});
      (Write ? C->Written : C->Read) = true;
    };
    // An unrolled loop runs leftover iterations through its epilogue; the
    // register stays live across both, so both bodies participate.
    for (Body *B : {&L.Items, &L.Epilogue})
      for (BodyItem &Item : *B) {
        if (!Item.isStmt() || Item.stmt().Kind != StmtKind::Compute)
          continue;
        Stmt &S = Item.stmt();
        if (S.LhsRef)
          consider(*S.LhsRef, /*Write=*/true);
        S.Rhs->forEachRead(
            [&](ScalarExpr &Leaf) { consider(Leaf.Ref, false); });
      }

    // References the rewrite will NOT redirect to registers: anything
    // inside nested loops, refs of non-Compute statements, and direct
    // refs that use the inner variable. Caching a candidate that aliases
    // a write among these reads stale values; a cached WRITE that aliases
    // any such ref defers its store past observers. CopyIn moves whole
    // arrays, so it taints both of its arrays. The body is not edited
    // until the filter is done, so pointing into it is safe.
    std::vector<std::pair<const ArrayRef *, bool>> Hidden;
    std::vector<std::pair<ArrayId, bool>> HiddenArrays;
    for (Body *B : {&L.Items, &L.Epilogue})
      for (BodyItem &Item : *B) {
        if (Item.isStmt() && Item.stmt().Kind == StmtKind::Compute) {
          Stmt &S = Item.stmt();
          if (S.LhsRef && S.LhsRef->uses(InnerVar))
            Hidden.push_back({&*S.LhsRef, true});
          S.Rhs->forEachRead([&](ScalarExpr &Leaf) {
            if (Leaf.Ref.uses(InnerVar))
              Hidden.push_back({&Leaf.Ref, false});
          });
          continue;
        }
        auto addStmt = [&](Stmt &S) {
          S.forEachRef([&](ArrayRef &Ref, bool IsWrite) {
            Hidden.push_back({&Ref, IsWrite});
          });
          if (S.Kind == StmtKind::CopyIn) {
            HiddenArrays.push_back({S.CopyDst, true});
            HiddenArrays.push_back({S.CopySrc, false});
          }
        };
        if (Item.isStmt()) {
          addStmt(Item.stmt());
        } else {
          forEachStmtIn(Item.loop().Items, addStmt);
          forEachStmtIn(Item.loop().Epilogue, addStmt);
        }
      }

    // Provably different elements: subscripts that differ only in their
    // constants, and in at least one dimension.
    auto distinct = [](const ArrayRef &A, const ArrayRef &B) {
      if (A.Array != B.Array || A.rank() != B.rank())
        return false;
      bool Differ = false;
      for (unsigned D = 0; D < A.rank(); ++D) {
        if (!A.Subs[D].sameTerms(B.Subs[D]))
          return false;
        Differ |= A.Subs[D].constTerm() != B.Subs[D].constTerm();
      }
      return Differ;
    };

    // Filter: drop candidates that may alias an unredirected ref (with a
    // write on either side), or another candidate of the same array
    // (again with a write involved) — two registers for one address lose
    // updates. Structurally identical refs share one register and stay
    // safe. Survivors get registers in candidate order.
    int Regs = 0;
    for (Candidate &C : Cands) {
      bool Ok = true;
      for (const auto &[Arr, ArrWrite] : HiddenArrays)
        if (Arr == C.Ref.Array && (ArrWrite || C.Written)) {
          Ok = false;
          break;
        }
      if (Ok)
        for (const auto &[H, HWrite] : Hidden) {
          if (H->Array != C.Ref.Array || (!HWrite && !C.Written))
            continue;
          if (!distinct(C.Ref, *H)) {
            Ok = false;
            break;
          }
        }
      if (Ok)
        for (const Candidate &Other : Cands) {
          if (&Other == &C || Other.Ref.Array != C.Ref.Array)
            continue;
          if (!C.Written && !Other.Written)
            continue;
          if (!distinct(C.Ref, Other.Ref)) {
            Ok = false;
            break;
          }
        }
      if (Ok) {
        C.Reg = Nest.allocReg();
        ++Regs;
      }
    }
    if (Regs == 0) {
      ++Stats.LoopsProcessed;
      continue;
    }

    // Rewrite both loop bodies.
    auto regOf = [&](const ArrayRef &Ref) {
      const Candidate *C = find(Ref);
      return C ? C->Reg : -1;
    };
    for (Body *B : {&L.Items, &L.Epilogue})
      for (BodyItem &Item : *B) {
        if (!Item.isStmt() || Item.stmt().Kind != StmtKind::Compute)
          continue;
        Stmt &S = Item.stmt();
        if (S.LhsRef && !S.LhsRef->uses(InnerVar)) {
          if (int Reg = regOf(*S.LhsRef); Reg >= 0) {
            S.LhsReg = Reg;
            S.LhsRef.reset();
            ++Stats.RefsReplaced;
          }
        }
        S.Rhs->forEachRead([&](ScalarExpr &Leaf) {
          if (Leaf.Ref.uses(InnerVar))
            return;
          if (int Reg = regOf(Leaf.Ref); Reg >= 0)
            readFromReg(Leaf, Reg, Stats);
        });
      }

    // Insert loads before the loop (reads only) and stores after it.
    Body &Parent = *Loc.Parent;
    size_t Pos = Loc.Index;
    for (const Candidate &C : Cands) {
      if (C.Reg < 0 || !C.Read)
        continue;
      Parent.insert(Parent.begin() + Pos,
                    BodyItem(Stmt::makeRegLoad(C.Reg, C.Ref)));
      ++Pos;
    }
    size_t After = Pos + 1; // now points just past the loop
    for (const Candidate &C : Cands) {
      if (C.Reg < 0 || !C.Written)
        continue;
      Parent.insert(Parent.begin() + After,
                    BodyItem(Stmt::makeRegStore(C.Ref, C.Reg)));
      ++After;
    }

    Nest.noteLiveRegs(Regs);
    Stats.RegsAllocated += Regs;
    ++Stats.LoopsProcessed;
  }
  return Stats;
}

namespace {

/// A chain of read leaves marching along the inner loop: member (T, Leaf)
/// reads *Rep shifted by T iterations.
struct Chain {
  const ArrayRef *Rep; ///< the first member's ref (T = 0)
  std::vector<std::pair<int64_t, ScalarExpr *>> Members;
  int64_t TMin = 0, TMax = 0;
};

/// Iterations of \p InnerVar that carry \p Rep onto \p Ref (every
/// subscript advances by T times its InnerVar coefficient), or nullopt if
/// \p Ref is not on \p Rep's chain.
std::optional<int64_t> stepsFrom(const ArrayRef &Rep, const ArrayRef &Ref,
                                 SymbolId InnerVar) {
  if (Rep.Array != Ref.Array || Rep.rank() != Ref.rank())
    return std::nullopt;
  std::optional<int64_t> T;
  for (unsigned D = 0; D < Ref.rank(); ++D) {
    const AffineExpr &From = Rep.Subs[D], &To = Ref.Subs[D];
    if (!From.sameTerms(To))
      return std::nullopt;
    int64_t Off = To.constTerm() - From.constTerm();
    int64_t Delta = To.coeff(InnerVar);
    if (Delta == 0) {
      if (Off != 0)
        return std::nullopt;
      continue;
    }
    if (Off % Delta != 0 || (T && *T != Off / Delta))
      return std::nullopt;
    T = Off / Delta;
  }
  return T.value_or(0);
}

/// Ref shifted by Steps iterations of the inner variable: every subscript
/// dimension advances by Steps * its InnerVar coefficient.
ArrayRef shiftAlong(const ArrayRef &Ref, SymbolId InnerVar, int64_t Steps) {
  ArrayRef Out = Ref;
  for (AffineExpr &S : Out.Subs)
    S = S + S.coeff(InnerVar) * Steps; // offset only; coefficient stays
  return Out;
}

} // namespace

ScalarReplaceStats eco::rotatingScalarReplace(LoopNest &Nest,
                                              SymbolId InnerVar) {
  ScalarReplaceStats Stats;

  for (size_t Occ = 0;; ++Occ) {
    std::vector<LoopLocation> Locs = findLoopOccurrences(Nest, InnerVar);
    if (Occ >= Locs.size())
      break;
    LoopLocation Loc = Locs[Occ];
    Loop &L = *Loc.L;
    if (L.Unroll != 1 || L.hasParamStep() || L.Step != 1) {
      ++Stats.LoopsProcessed;
      continue; // rotation assumes unit advance
    }

    // Arrays written inside the loop are not eligible (values change).
    std::vector<bool> Written(Nest.Arrays.size(), false);
    forEachStmtIn(L.Items, [&](Stmt &S) {
      S.forEachRef([&](ArrayRef &Ref, bool IsWrite) {
        if (IsWrite)
          Written[Ref.Array] = true;
      });
    });

    // Gather read leaves (direct Compute statements only) that use the
    // inner variable, grouped into chains.
    std::vector<Chain> Chains;
    auto addLeaf = [&](ScalarExpr &Leaf) {
      const ArrayRef &Ref = Leaf.Ref;
      if (!Ref.uses(InnerVar) || Written[Ref.Array])
        return;
      for (Chain &C : Chains)
        if (std::optional<int64_t> T = stepsFrom(*C.Rep, Ref, InnerVar)) {
          C.Members.push_back({*T, &Leaf});
          C.TMin = std::min(C.TMin, *T);
          C.TMax = std::max(C.TMax, *T);
          return;
        }
      Chains.push_back(Chain{&Ref, {{0, &Leaf}}});
    };
    for (BodyItem &Item : L.Items) {
      if (!Item.isStmt() || Item.stmt().Kind != StmtKind::Compute)
        continue;
      Item.stmt().Rhs->forEachRead(addLeaf);
    }

    Body Prologue;          // before the loop
    Body TopLoads;          // at the top of each iteration
    std::vector<std::pair<int, int>> Rotates; // dst <- src at iteration end
    int LiveRegs = 0;

    for (Chain &C : Chains) {
      // A single position read once needs no register; read several
      // times, one load serves them all.
      if (C.TMin == C.TMax && C.Members.size() < 2)
        continue;
      // A window over [TMin, TMax] in contiguous registers: position T
      // lives in Base + (T - TMin). The leading element is loaded each
      // iteration; the rest are preloaded at Var = Lower and rotate down
      // (reg[T] <- reg[T+1], ascending T) at the bottom.
      int Width = static_cast<int>(C.TMax - C.TMin) + 1;
      int Base = Nest.allocReg();
      for (int W = 1; W < Width; ++W)
        Nest.allocReg();
      LiveRegs += Width;
      Stats.RegsAllocated += Width;
      for (int64_t T = C.TMin; T < C.TMax; ++T) {
        ArrayRef RefT = shiftAlong(*C.Rep, InnerVar, T);
        for (AffineExpr &S : RefT.Subs)
          S = S.substitute(InnerVar, L.Lower);
        int Reg = Base + static_cast<int>(T - C.TMin);
        Prologue.push_back(BodyItem(Stmt::makeRegLoad(Reg, RefT)));
        Rotates.push_back({Reg, Reg + 1});
      }
      TopLoads.push_back(BodyItem(Stmt::makeRegLoad(
          Base + Width - 1, shiftAlong(*C.Rep, InnerVar, C.TMax))));
      for (auto [T, Leaf] : C.Members)
        readFromReg(*Leaf, Base + static_cast<int>(T - C.TMin), Stats);
    }

    if (LiveRegs == 0) {
      ++Stats.LoopsProcessed;
      continue;
    }

    // Splice: top loads at body start, rotate at body end, prologue
    // before the loop.
    L.Items.insert(L.Items.begin(), std::make_move_iterator(TopLoads.begin()),
                   std::make_move_iterator(TopLoads.end()));
    if (!Rotates.empty())
      L.Items.push_back(BodyItem(Stmt::makeRegRotate(std::move(Rotates))));
    Body &Parent = *Loc.Parent;
    Parent.insert(Parent.begin() + Loc.Index,
                  std::make_move_iterator(Prologue.begin()),
                  std::make_move_iterator(Prologue.end()));

    Nest.noteLiveRegs(LiveRegs);
    ++Stats.LoopsProcessed;
  }
  return Stats;
}
