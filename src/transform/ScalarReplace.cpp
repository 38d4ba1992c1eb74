//===- transform/ScalarReplace.cpp - Scalar replacement -------------------===//

#include "transform/ScalarReplace.h"
#include "transform/Utils.h"

#include <algorithm>
#include <map>

using namespace eco;

namespace {

/// One loop-invariant reference the rewrite may keep in a register;
/// structurally equal refs share one candidate.
struct Candidate {
  ArrayRef Ref;
  bool Read = false, Written = false;
  int Reg = -1; ///< -1 until the candidate passes the alias filter
};

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

    // Provably different elements: a constant per-dimension offset with
    // some nonzero component.
    auto distinct = [](const ArrayRef &A, const ArrayRef &B) {
      auto Off = A.constOffsetTo(B);
      if (!Off)
        return false;
      for (int64_t C : *Off)
        if (C != 0)
          return true;
      return false;
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
          int Reg = regOf(Leaf.Ref);
          if (Reg < 0)
            return;
          Leaf.Reg = Reg;
          Leaf.Kind = ScalarExprKind::RegRead;
          Leaf.Ref = ArrayRef();
          ++Stats.RefsReplaced;
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

/// A chain of references marching along the inner loop: members share all
/// subscript structure except a multiple of Delta (the per-iteration
/// subscript advance).
struct Chain {
  std::vector<int64_t> BaseOffset;          ///< offset of the t=0 member
  std::map<int64_t, std::vector<ScalarExpr *>> MembersByT;
  ArrayRef RepRef;                          ///< ref of some member
  int64_t RepT = 0;                         ///< its t value
};

/// Solves Diff == t * Delta; nullopt if not aligned.
std::optional<int64_t> alignT(const std::vector<int64_t> &Diff,
                              const std::vector<int64_t> &Delta) {
  std::optional<int64_t> T;
  for (size_t D = 0; D < Diff.size(); ++D) {
    if (Delta[D] == 0) {
      if (Diff[D] != 0)
        return std::nullopt;
      continue;
    }
    if (Diff[D] % Delta[D] != 0)
      return std::nullopt;
    int64_t Cand = Diff[D] / Delta[D];
    if (T && *T != Cand)
      return std::nullopt;
    T = Cand;
  }
  return T ? T : std::optional<int64_t>(0);
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
                                              SymbolId InnerVar,
                                              bool CseSingleRefs) {
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
      // Per-iteration advance of each subscript.
      std::vector<int64_t> Delta;
      for (const AffineExpr &S : Ref.Subs)
        Delta.push_back(S.coeff(InnerVar));
      for (Chain &C : Chains) {
        if (C.RepRef.Array != Ref.Array)
          continue;
        auto Off = C.RepRef.constOffsetTo(Ref);
        if (!Off)
          continue;
        auto T = alignT(*Off, Delta);
        if (!T)
          continue;
        C.MembersByT[C.RepT + *T].push_back(&Leaf);
        return;
      }
      Chain C;
      C.RepRef = Ref;
      C.RepT = 0;
      C.MembersByT[0].push_back(&Leaf);
      Chains.push_back(std::move(C));
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
      int64_t TMin = C.MembersByT.begin()->first;
      int64_t TMax = C.MembersByT.rbegin()->first;

      if (TMin == TMax) {
        // No rotation possible; optionally CSE duplicate reads.
        auto &Members = C.MembersByT.begin()->second;
        if (!CseSingleRefs || Members.size() < 2) {
          continue;
        }
        int Reg = Nest.allocReg();
        ++LiveRegs;
        TopLoads.push_back(
            BodyItem(Stmt::makeRegLoad(Reg, Members.front()->Ref)));
        for (ScalarExpr *Leaf : Members) {
          Leaf->Kind = ScalarExprKind::RegRead;
          Leaf->Reg = Reg;
          Leaf->Ref = ArrayRef();
          ++Stats.RefsReplaced;
        }
        ++Stats.RegsAllocated;
        continue;
      }

      // Rotating window over [TMin, TMax].
      std::map<int64_t, int> RegAt;
      for (int64_t T = TMin; T <= TMax; ++T) {
        RegAt[T] = Nest.allocReg();
        ++LiveRegs;
        ++Stats.RegsAllocated;
      }
      // A reference with the chain's leading position.
      const ArrayRef &SomeRef = C.MembersByT.rbegin()->second.front()->Ref;
      int64_t SomeT = TMax;

      // Prologue: preload window positions TMin..TMax-1 at Var = Lower.
      for (int64_t T = TMin; T < TMax; ++T) {
        ArrayRef RefT = shiftAlong(SomeRef, InnerVar, T - SomeT);
        for (AffineExpr &S : RefT.Subs)
          S = S.substitute(InnerVar, L.Lower);
        Prologue.push_back(BodyItem(Stmt::makeRegLoad(RegAt[T], RefT)));
      }
      // Per-iteration load of the leading element.
      TopLoads.push_back(BodyItem(Stmt::makeRegLoad(
          RegAt[TMax], shiftAlong(SomeRef, InnerVar, TMax - SomeT))));
      // Rotation at the bottom: reg[t] <- reg[t+1], ascending t.
      for (int64_t T = TMin; T < TMax; ++T)
        Rotates.push_back({RegAt[T], RegAt[T + 1]});

      // Rewrite member leaves.
      for (auto &[T, Members] : C.MembersByT)
        for (ScalarExpr *Leaf : Members) {
          Leaf->Kind = ScalarExprKind::RegRead;
          Leaf->Reg = RegAt.at(T);
          Leaf->Ref = ArrayRef();
          ++Stats.RefsReplaced;
        }
    }

    if (LiveRegs == 0) {
      ++Stats.LoopsProcessed;
      continue;
    }

    // Splice: top loads at body start, rotate at body end, prologue
    // before the loop.
    for (size_t T = TopLoads.size(); T-- > 0;)
      L.Items.insert(L.Items.begin(), std::move(TopLoads[T]));
    if (!Rotates.empty())
      L.Items.push_back(BodyItem(Stmt::makeRegRotate(std::move(Rotates))));
    Body &Parent = *Loc.Parent;
    size_t Pos = Loc.Index;
    for (size_t P = 0; P < Prologue.size(); ++P, ++Pos)
      Parent.insert(Parent.begin() + Pos, std::move(Prologue[P]));

    Nest.noteLiveRegs(LiveRegs);
    ++Stats.LoopsProcessed;
  }
  return Stats;
}
