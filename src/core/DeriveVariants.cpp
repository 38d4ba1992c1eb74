//===- core/DeriveVariants.cpp - Phase 1: derive variants -----------------===//

#include "core/DeriveVariants.h"
#include "analysis/Dependence.h"
#include "analysis/Reuse.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "obs/Metrics.h"
#include "support/StringUtils.h"
#include "transform/Copy.h"
#include "transform/Permute.h"
#include "transform/Tile.h"
#include "transform/TransformError.h"
#include "transform/Utils.h"

#include <algorithm>
#include <set>

using namespace eco;

namespace {

/// One partially expanded variant during level-by-level derivation.
struct Partial {
  SymbolId RegLoop = -1;
  int RegFamily = -1;
  ArrayId RegArray = -1;
  std::vector<SymbolId> UnrollLoops;
  std::vector<CacheLevelPlan> Levels;
  std::vector<SymbolId> PushOrder; ///< innermost first
  std::set<int> Exploited;
  std::vector<SymbolId> Remaining;
  std::set<SymbolId> Tiled;
};

/// Distinct loop variables in \p Ref's subscripts.
std::set<SymbolId> refVars(const ArrayRef &Ref) {
  std::set<SymbolId> Vars;
  for (const AffineExpr &S : Ref.Subs)
    for (SymbolId V : S.symbols())
      Vars.insert(V);
  return Vars;
}

/// The loop variable driving \p Ref's contiguous dimension (or -1).
SymbolId contigVarOf(const ArrayRef &Ref, const ArrayDecl &Decl) {
  unsigned D = Decl.Order == Layout::ColMajor ? 0 : Ref.rank() - 1;
  std::vector<SymbolId> Vars = Ref.Subs[D].symbols();
  return Vars.size() == 1 ? Vars.front() : -1;
}

/// Keeps \p Vars in the order they appear in \p Spine.
std::vector<SymbolId> inSpineOrder(const std::set<SymbolId> &Vars,
                                   const std::vector<SymbolId> &Spine) {
  std::vector<SymbolId> Out;
  for (SymbolId V : Spine)
    if (Vars.count(V))
      Out.push_back(V);
  return Out;
}

/// Control-loop naming: I -> II, KK-style doubling for one-letter names.
std::string controlName(const std::string &VarName) {
  return VarName.size() == 1 ? VarName + VarName : VarName + "_c";
}

/// True if the nest is a perfect spine: each level holds exactly one
/// loop until the innermost, whose body holds only statements. The
/// transformation pipeline (permutation in particular) requires this.
bool isPerfectSpine(const LoopNest &Nest) {
  const Body *Level = &Nest.Items;
  while (true) {
    size_t Loops = 0, Stmts = 0;
    for (const BodyItem &Item : *Level)
      (Item.isLoop() ? Loops : Stmts)++;
    if (Loops == 0)
      return true; // innermost: statements only
    if (Loops != 1 || Stmts != 0 || Level->size() != 1)
      return false;
    const Loop &L = (*Level)[0].loop();
    if (L.Unroll != 1 || !L.Epilogue.empty() || L.hasParamStep())
      return false;
    Level = &L.Items;
  }
}

} // namespace

std::vector<DerivedVariant>
eco::deriveVariants(const LoopNest &Original, const MachineDesc &Machine,
                    const DeriveOptions &Opts, size_t *RejectedOut) {
  if (RejectedOut)
    *RejectedOut = 0;
  // Bind problem sizes to the representative size for the reuse models.
  Env SizeEnv(Original.Syms.size());
  for (size_t S = 0; S < Original.Syms.size(); ++S)
    if (Original.Syms.kind(static_cast<SymbolId>(S)) ==
        SymbolKind::ProblemSize)
      SizeEnv.set(static_cast<SymbolId>(S), Opts.RepresentativeSize);

  int64_t LineElems = std::max<int64_t>(Machine.cache(0).LineBytes / 8, 1);
  ReuseAnalysis RA(Original, SizeEnv, LineElems);
  DependenceInfo DI = analyzeDependences(Original);
  std::vector<SymbolId> Spine = RA.loops();

  // Not provably permutable, or not a perfect nest (statements between
  // loops): the only safe variant is the original.
  if (!DI.FullyPermutable || Spine.empty() || !isPerfectSpine(Original)) {
    DerivedVariant DV;
    DV.Spec.Name = "v0-untransformed";
    DV.Spec.RegLoop = Spine.empty() ? -1 : Spine.back();
    DV.Spec.FinalOrder = Spine;
    DV.Skeleton = Original.clone();
    DV.refreshFingerprint();
    std::vector<DerivedVariant> Out;
    Out.push_back(std::move(DV));
    return Out;
  }

  // --- Register level -----------------------------------------------------
  std::vector<Partial> Partials;
  for (SymbolId L : RA.mostProfitableLoops(Spine, {},
                                           /*SpatialTieBreak=*/false)) {
    Partial P;
    P.RegLoop = L;
    std::vector<int> Fams = RA.mostProfitableRefs(L, {});
    if (!Fams.empty()) {
      P.RegFamily = Fams.front();
      P.RegArray = RA.familyRep(Fams.front()).Array;
      P.Exploited.insert(Fams.begin(), Fams.end());
    }
    for (SymbolId V : Spine)
      if (V != L) {
        P.UnrollLoops.push_back(V);
        P.Remaining.push_back(V);
      }
    P.PushOrder.push_back(L);
    Partials.push_back(std::move(P));
  }

  // --- Cache levels --------------------------------------------------------
  for (unsigned Level = 0; Level < Machine.numCacheLevels(); ++Level) {
    std::vector<Partial> Next;
    for (const Partial &P : Partials) {
      if (P.Remaining.empty()) {
        Next.push_back(P);
        continue;
      }

      // Which families are eligible? Unmapped first; if none carries
      // reuse, fall back to register-mapped families (paper Section
      // 3.1.1, MostProfitableLoops discussion).
      std::set<int> Used = P.Exploited;
      double MaxTW = 0;
      for (SymbolId V : P.Remaining)
        MaxTW = std::max(MaxTW, RA.temporalWeight(V, Used));
      if (MaxTW <= 0 && P.RegFamily >= 0)
        Used.erase(P.RegFamily);

      for (SymbolId L : RA.mostProfitableLoops(P.Remaining, Used)) {
        std::vector<int> Fams = RA.mostProfitableRefs(L, Used);
        int RetFam = Fams.empty() ? -1 : Fams.front();
        ArrayId RetArr =
            RetFam >= 0 ? RA.familyRep(RetFam).Array : ArrayId(-1);

        // Loops "inside l": already-pushed prefix if l is placed, else
        // everything placed so far plus the rest of Remaining.
        std::set<SymbolId> Inside;
        auto It = std::find(P.PushOrder.begin(), P.PushOrder.end(), L);
        if (It != P.PushOrder.end()) {
          Inside.insert(P.PushOrder.begin(), It);
        } else {
          Inside.insert(P.PushOrder.begin(), P.PushOrder.end());
          for (SymbolId V : P.Remaining)
            if (V != L)
              Inside.insert(V);
        }

        // Full tiling set.
        std::set<SymbolId> TileSet;
        for (SymbolId V : P.Remaining)
          if (V != L)
            TileSet.insert(V);
        std::set<SymbolId> RetVars;
        if (RetFam >= 0)
          RetVars = refVars(RA.familyRep(RetFam));
        for (SymbolId V : RetVars)
          if (Inside.count(V))
            TileSet.insert(V);
        for (SymbolId V : P.Tiled)
          TileSet.erase(V);
        TileSet.erase(L);

        // Tiling forks: full, plus the TLB-pruned set that leaves the
        // contiguous dimension of a rank>=3 retained array untiled.
        std::vector<std::set<SymbolId>> TileSets = {TileSet};
        if (Opts.ForkPrunedTilings && RetFam >= 0 &&
            RA.familyRep(RetFam).rank() >= 3) {
          SymbolId Contig = contigVarOf(RA.familyRep(RetFam),
                                        Original.array(RetArr));
          if (Contig >= 0 && TileSet.count(Contig)) {
            std::set<SymbolId> Pruned = TileSet;
            Pruned.erase(Contig);
            TileSets.push_back(std::move(Pruned));
          }
        }

        for (const std::set<SymbolId> &TS : TileSets) {
          // Copy fork: the copy region needs every retained dimension
          // tiled, so the with-copy variant extends the tiling set (this
          // is how the paper's MM v2 acquires its L2 tiling of J). The
          // family must be offset-free and not indexed by l itself.
          std::set<SymbolId> CopyTS = TS;
          bool CopyOk = Opts.ForkCopyVariants && RetFam >= 0 &&
                        RA.familyOffsetsAllZero(RetFam) && !RetVars.count(L);
          // The simple tile-region construction also needs every
          // subscript dimension to be exactly one loop variable (unit
          // coefficient, no constant — found by fuzzing: a +c offset
          // reads past the copied tile).
          if (CopyOk)
            for (const AffineExpr &Sub : RA.familyRep(RetFam).Subs) {
              std::vector<SymbolId> SubVars = Sub.symbols();
              if (SubVars.size() != 1 || Sub.coeff(SubVars[0]) != 1 ||
                  Sub.constTerm() != 0)
                CopyOk = false;
            }
          // Copy retargeting rewrites every reference to the array, so
          // the retained family must be the array's only access pattern
          // (found by fuzzing: a second family with different
          // coefficients would read outside the copied tile). CopyIn has
          // no copy-back, so written arrays are ineligible (also found
          // by fuzzing: a copied reduction output lost its updates).
          if (CopyOk)
            for (const RefInfo &RI : RA.refs())
              if (RI.Ref.Array == RetArr &&
                  (RI.Family != RetFam || RI.IsWrite))
                CopyOk = false;
          if (CopyOk)
            for (SymbolId V : RetVars)
              if (!P.Tiled.count(V))
                CopyTS.insert(V);

          for (bool Copy : CopyOk ? std::vector<bool>{false, true}
                                  : std::vector<bool>{false}) {
            const std::set<SymbolId> &UsedTS = Copy ? CopyTS : TS;
            Partial Q = P;
            CacheLevelPlan CL;
            CL.Level = Level;
            CL.TheLoop = L;
            CL.NewTiledLoops = inSpineOrder(UsedTS, Spine);
            CL.RetainedFamily = RetFam;
            CL.RetainedArray = RetArr;
            CL.WithCopy = Copy;
            Q.Levels.push_back(CL);
            Q.Tiled.insert(UsedTS.begin(), UsedTS.end());
            Q.Exploited.insert(Fams.begin(), Fams.end());
            for (SymbolId V : P.Remaining)
              if (V != L && std::find(Q.PushOrder.begin(),
                                      Q.PushOrder.end(),
                                      V) == Q.PushOrder.end())
                Q.PushOrder.push_back(V);
            if (std::find(Q.PushOrder.begin(), Q.PushOrder.end(), L) ==
                Q.PushOrder.end())
              Q.PushOrder.push_back(L);
            Q.Remaining.erase(std::find(Q.Remaining.begin(),
                                        Q.Remaining.end(), L));
            Next.push_back(std::move(Q));
            if (Next.size() >= Opts.MaxVariants)
              break;
          }
          if (Next.size() >= Opts.MaxVariants)
            break;
        }
        if (Next.size() >= Opts.MaxVariants)
          break;
      }
      if (Next.size() >= Opts.MaxVariants)
        break;
    }
    if (!Next.empty())
      Partials = std::move(Next);
  }

  // --- Materialize each partial into a DerivedVariant ---------------------
  std::vector<DerivedVariant> Variants;
  int Index = 1;
  for (const Partial &P : Partials) {
    try {
    DerivedVariant DV;
    DV.Spec.Name = "v" + std::to_string(Index++);
    DV.Spec.RegLoop = P.RegLoop;
    DV.Spec.RegFamily = P.RegFamily;
    DV.Spec.RegArray = P.RegArray;
    DV.Spec.CacheLevels = P.Levels;
    DV.Skeleton = Original.clone();
    LoopNest &Nest = DV.Skeleton;

    // Tile in level order.
    for (const CacheLevelPlan &CL : P.Levels)
      for (SymbolId V : CL.NewTiledLoops) {
        const std::string &VarName = Nest.Syms.name(V);
        TileResult TR =
            tileLoop(Nest, V, controlName(VarName), "T" + VarName);
        DV.TileParamOf[V] = TR.TileParam;
        DV.ControlVarOf[V] = TR.ControlVar;
      }

    // Order the tile-controlling loops: outermost = the control whose
    // parameter matters at the outermost level; ties resolved so the
    // retained array's contiguous-dimension control goes outer.
    struct ControlRank {
      SymbolId Var;
      int MaxLevel;
      int ContigBonus;
      int SpinePos;
    };
    std::vector<ControlRank> Ranks;
    for (const auto &[Var, Param] : DV.TileParamOf) {
      ControlRank R{Var, -1, 0, 0};
      for (const CacheLevelPlan &CL : P.Levels) {
        if (CL.RetainedFamily < 0)
          continue;
        const ArrayRef &Rep = RA.familyRep(CL.RetainedFamily);
        if (!refVars(Rep).count(Var))
          continue;
        int Lv = static_cast<int>(CL.Level);
        if (Lv >= R.MaxLevel) {
          R.MaxLevel = Lv;
          R.ContigBonus =
              contigVarOf(Rep, Original.array(CL.RetainedArray)) == Var ? 1
                                                                        : 0;
        }
      }
      R.SpinePos = static_cast<int>(
          std::find(Spine.begin(), Spine.end(), Var) - Spine.begin());
      Ranks.push_back(R);
    }
    std::sort(Ranks.begin(), Ranks.end(),
              [](const ControlRank &A, const ControlRank &B) {
                if (A.MaxLevel != B.MaxLevel)
                  return A.MaxLevel > B.MaxLevel;
                if (A.ContigBonus != B.ContigBonus)
                  return A.ContigBonus > B.ContigBonus;
                return A.SpinePos < B.SpinePos;
              });

    std::vector<SymbolId> FinalOrder;
    for (const ControlRank &R : Ranks)
      FinalOrder.push_back(DV.ControlVarOf.at(R.Var));
    // Element loops: pushes were innermost-first; unplaced loops (levels
    // exhausted early) go outermost in spine order.
    std::vector<SymbolId> Elements(P.PushOrder.rbegin(),
                                   P.PushOrder.rend());
    for (SymbolId V : P.Remaining)
      if (std::find(Elements.begin(), Elements.end(), V) ==
          Elements.end())
        Elements.insert(Elements.begin(), V);
    for (SymbolId V : Elements)
      FinalOrder.push_back(V);
    DV.Spec.FinalOrder = FinalOrder;
    permuteSpine(Nest, FinalOrder);

    // Insert copies (innermost governing control determines placement).
    static const char *BufferNames[] = {"P", "Q", "R", "S"};
    int BufIdx = 0;
    for (CacheLevelPlan &CL : DV.Spec.CacheLevels) {
      if (!CL.WithCopy)
        continue;
      const ArrayRef &Rep = RA.familyRep(CL.RetainedFamily);
      // Find the innermost control of the tile's dimensions, then the
      // next loop inside it in the final order.
      size_t InnermostPos = 0;
      for (SymbolId V : refVars(Rep)) {
        SymbolId CV = DV.ControlVarOf.at(V);
        size_t Pos = std::find(FinalOrder.begin(), FinalOrder.end(), CV) -
                     FinalOrder.begin();
        InnermostPos = std::max(InnermostPos, Pos);
      }
      assert(InnermostPos + 1 < FinalOrder.size() &&
             "copy has no loop to wrap");
      SymbolId BeforeLoop = FinalOrder[InnermostPos + 1];

      std::vector<CopyDimSpec> Dims;
      for (const AffineExpr &Sub : Rep.Subs) {
        std::vector<SymbolId> Vars = Sub.symbols();
        assert(Vars.size() == 1 && "copy tile needs single-variable dims");
        SymbolId V = Vars.front();
        SymbolId CV = DV.ControlVarOf.at(V);
        SymbolId T = DV.TileParamOf.at(V);
        // Size = min(T, original upper bounds + 1 - CV).
        Bound Size(AffineExpr::sym(T));
        const Loop *Element = Nest.findLoop(V);
        assert(Element && "tiled element loop vanished");
        for (const AffineExpr &Ub : Element->Upper.exprs())
          if (!Ub.uses(T))
            Size.clampTo(Ub + 1 - AffineExpr::sym(CV));
        Dims.push_back({AffineExpr::sym(CV), T, Size});
      }
      CL.CopyBuffer = applyCopy(Nest, CL.RetainedArray, BeforeLoop,
                                BufferNames[BufIdx++ % 4], Dims);
    }

    // Unroll-factor parameters.
    for (SymbolId V : P.UnrollLoops) {
      UnrollSpec U;
      U.Loop = V;
      U.FactorParam = Nest.declareParam("U" + Nest.Syms.name(V));
      DV.Spec.Unrolls.push_back(U);
    }

    // Prefetch candidates: arrays referenced in the register loop (after
    // copy retargeting), except the register-resident one.
    {
      std::set<ArrayId> Candidates;
      if (const Loop *RegL = Nest.findLoop(P.RegLoop))
        forEachStmtIn(const_cast<Loop *>(RegL)->Items, [&](Stmt &S) {
          S.forEachRef([&](ArrayRef &Ref, bool) {
            if (Ref.Array != P.RegArray)
              Candidates.insert(Ref.Array);
          });
        });
      for (ArrayId A : Candidates) {
        PrefetchSpec PF;
        PF.Array = A;
        PF.DistanceParam =
            Nest.declareParam("PF" + Nest.array(A).Name);
        DV.Prefetch.push_back(PF);
      }
    }

    // Constraints: registers, each cache level's footprint, TLB.
    if (P.RegFamily >= 0 && !DV.Spec.Unrolls.empty()) {
      ExtentMap RegExtents;
      for (const UnrollSpec &U : DV.Spec.Unrolls)
        RegExtents[U.Loop] = VarExtent::param(U.FactorParam);
      Constraint C;
      C.Terms.push_back(
          familyFootprintElems(RA.familyRep(P.RegFamily), RegExtents));
      C.Limit = Machine.FpRegisters;
      C.Note = "register file";
      DV.RegConstraintIdx = static_cast<int>(DV.Constraints.size());
      DV.Constraints.push_back(std::move(C));
    }
    for (CacheLevelPlan &CL : DV.Spec.CacheLevels) {
      if (CL.RetainedFamily < 0)
        continue;
      ExtentMap Extents;
      for (const UnrollSpec &U : DV.Spec.Unrolls)
        Extents[U.Loop] = VarExtent::param(U.FactorParam);
      for (const auto &[Var, Param] : DV.TileParamOf)
        Extents[Var] = VarExtent::param(Param); // tiles override unrolls
      const ArrayRef &Rep = RA.familyRep(CL.RetainedFamily);
      Constraint C;
      C.Terms.push_back(familyFootprintElems(Rep, Extents));
      C.Limit = effectiveCapacityElems(Machine.cache(CL.Level), 8);
      C.Note = strformat("L%u footprint of %s tile", CL.Level + 1,
                         Original.array(CL.RetainedArray).Name.c_str());
      CL.CapConstraintIdx = static_cast<int>(DV.Constraints.size());
      DV.Constraints.push_back(std::move(C));

      Constraint Tlb;
      Tlb.Terms.push_back(familyFootprintPages(
          Rep, Original.array(CL.RetainedArray), Extents, SizeEnv,
          Machine.Tlb.PageBytes));
      Tlb.Limit = Machine.Tlb.Entries;
      Tlb.Note = strformat("TLB pages of %s tile",
                           Original.array(CL.RetainedArray).Name.c_str());
      CL.TlbConstraintIdx = static_cast<int>(DV.Constraints.size());
      DV.Constraints.push_back(std::move(Tlb));
    }

    Variants.push_back(std::move(DV));
    } catch (const TransformError &E) {
      // A transform refused this partial's tiling/ordering plan: the plan
      // would have produced wrong code, so rejection is variant pruning,
      // not an error.
      ECO_LOG(Warn) << "variant pruned (illegal transform): " << E.what();
      if (RejectedOut)
        ++*RejectedOut;
      if (obs::metricsEnabled())
        obs::metrics().counter("transform.rejected").inc();
      if (obs::eventsEnabled()) {
        // Kept 1:1 with the transform.rejected counter bump above — the
        // event audit counts on that pairing.
        Json F = Json::object();
        F.set("plan", "v" + std::to_string(Index - 1));
        F.set("reason", std::string(E.what()));
        obs::publishEvent("variant.rejected", std::move(F));
      }
    }
  }

  // Every plan was rejected: fall back to the (always legal) original so
  // the tuner still has something to run.
  if (Variants.empty()) {
    DerivedVariant DV;
    DV.Spec.Name = "v0-untransformed";
    DV.Spec.RegLoop = Spine.empty() ? -1 : Spine.back();
    DV.Spec.FinalOrder = Spine;
    DV.Skeleton = Original.clone();
    Variants.push_back(std::move(DV));
  }
  // Computed once here rather than lazily on the first evaluation, which
  // may run on a warm-batch lane.
  for (DerivedVariant &DV : Variants)
    DV.refreshFingerprint();
  return Variants;
}
