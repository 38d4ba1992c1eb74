//===- check/Fuzz.cpp - Randomized loop-nest + transform fuzzing ----------===//

#include "check/Fuzz.h"
#include "check/DiffCheck.h"
#include "codegen/NativeRunner.h"
#include "exec/Run.h"
#include "ir/Verifier.h"
#include "obs/Log.h"
#include "support/Rng.h"
#include "support/StringUtils.h"
#include "transform/Copy.h"
#include "transform/Pad.h"
#include "transform/Permute.h"
#include "transform/Prefetch.h"
#include "transform/ScalarReplace.h"
#include "transform/Tile.h"
#include "transform/TransformError.h"
#include "transform/UnrollJam.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>

using namespace eco;
using namespace eco::check;

namespace {

//===----------------------------------------------------------------------===//
// Case specification: everything a case needs, mutable for shrinking.
//===----------------------------------------------------------------------===//

/// One subscript dimension: Sign * loopvar + Off (Sign=-1 reverses the
/// traversal; Off then sits at Bound-1.. so values stay nonnegative).
struct DimSpec {
  int Var = 0;
  int Sign = 1;
  int64_t Off = 0;
};

struct RefSpec {
  int Array = 0;
  std::vector<DimSpec> Dims;
};

/// Out = [Out +] reads folded with Ops (0=Add, 1=Sub, 2=Mul).
struct StmtSpec {
  RefSpec Lhs;
  bool SelfRead = false; ///< reduction / accumulating update
  std::vector<RefSpec> Reads;
  std::vector<int> Ops;
};

enum class StepKind {
  Permute,
  Tile,
  UnrollJam,
  ScalarInvariant,
  ScalarRotate,
  Pad,
  Prefetch,
  Copy,
};

/// One pipeline step. Key selects targets (loop, array, permutation);
/// P1/P2 are numeric parameters (tile size, unroll factor, pad, distance).
struct StepSpec {
  StepKind K = StepKind::Permute;
  uint64_t Key = 0;
  int64_t P1 = 0;
  int64_t P2 = 0;
};

struct CaseSpec {
  std::vector<int64_t> Bounds;  ///< loop extents, outermost first
  std::vector<int> ArrayRanks;  ///< original arrays
  std::vector<StmtSpec> Stmts;
  std::vector<StepSpec> Steps;
};

const char *stepName(StepKind K) {
  switch (K) {
  case StepKind::Permute:
    return "permute";
  case StepKind::Tile:
    return "tile";
  case StepKind::UnrollJam:
    return "unroll-jam";
  case StepKind::ScalarInvariant:
    return "scalar-replace";
  case StepKind::ScalarRotate:
    return "rotating-scalar-replace";
  case StepKind::Pad:
    return "pad";
  case StepKind::Prefetch:
    return "prefetch";
  case StepKind::Copy:
    return "copy";
  }
  return "?";
}

std::string describeSteps(const std::vector<StepSpec> &Steps) {
  std::string Out;
  for (const StepSpec &S : Steps)
    Out += strformat("%s(key=%llu p1=%lld p2=%lld) ", stepName(S.K),
                     (unsigned long long)S.Key, (long long)S.P1,
                     (long long)S.P2);
  if (!Out.empty())
    Out.pop_back();
  return Out;
}

//===----------------------------------------------------------------------===//
// Generation
//===----------------------------------------------------------------------===//

/// Odd / prime trip counts — the cleanup-heavy corner for every tiling
/// and unrolling decision.
const int64_t BoundPool[] = {2, 3, 5, 7, 9, 11, 13};

RefSpec randomRef(Rng &R, int Array, int Rank, int NumLoops,
                  const std::vector<int64_t> &Bounds) {
  RefSpec Ref;
  Ref.Array = Array;
  for (int D = 0; D < Rank; ++D) {
    DimSpec Dim;
    Dim.Var = static_cast<int>(R.nextInt(0, NumLoops - 1));
    if (R.nextBool(0.15)) { // reversed traversal (transpose-with-flip)
      Dim.Sign = -1;
      Dim.Off = Bounds[Dim.Var] - 1 + R.nextInt(0, 2);
    } else {
      Dim.Sign = 1;
      Dim.Off = R.nextBool(0.3) ? R.nextInt(1, 2) : 0;
    }
    Ref.Dims.push_back(Dim);
  }
  return Ref;
}

CaseSpec generateCase(uint64_t CaseSeed) {
  Rng R(CaseSeed);
  CaseSpec C;

  int NumLoops = static_cast<int>(R.nextInt(1, 4));
  for (int L = 0; L < NumLoops; ++L)
    C.Bounds.push_back(BoundPool[R.nextInt(0, 6)]);

  int NumArrays = static_cast<int>(R.nextInt(1, 3));
  for (int A = 0; A < NumArrays; ++A)
    C.ArrayRanks.push_back(
        static_cast<int>(R.nextInt(1, std::min(NumLoops, 3))));

  int NumStmts = R.nextBool(0.8) ? 1 : 2;
  for (int S = 0; S < NumStmts; ++S) {
    StmtSpec St;
    int OutArr = static_cast<int>(R.nextInt(0, NumArrays - 1));
    St.Lhs = randomRef(R, OutArr, C.ArrayRanks[OutArr], NumLoops, C.Bounds);
    // A write whose subscripts drop loops is only deterministic as a
    // reduction (the same cell is hit repeatedly); identity writes may
    // be plain assignments.
    std::set<int> LhsVars;
    for (const DimSpec &D : St.Lhs.Dims)
      LhsVars.insert(D.Var);
    St.SelfRead =
        LhsVars.size() < static_cast<size_t>(NumLoops) || R.nextBool(0.5);

    int NumReads = static_cast<int>(R.nextInt(1, 3));
    for (int Rd = 0; Rd < NumReads; ++Rd) {
      int Arr = static_cast<int>(R.nextInt(0, NumArrays - 1));
      St.Reads.push_back(
          randomRef(R, Arr, C.ArrayRanks[Arr], NumLoops, C.Bounds));
      St.Ops.push_back(static_cast<int>(R.nextInt(0, 2)));
    }
    C.Stmts.push_back(std::move(St));
  }

  int NumSteps = static_cast<int>(R.nextInt(1, 6));
  for (int S = 0; S < NumSteps; ++S) {
    StepSpec Step;
    int Kind = static_cast<int>(R.nextInt(0, 9));
    // Weight the structural transforms higher than pad/prefetch.
    if (Kind <= 1)
      Step.K = StepKind::Permute;
    else if (Kind <= 3)
      Step.K = StepKind::Tile;
    else if (Kind <= 5)
      Step.K = StepKind::UnrollJam;
    else if (Kind == 6)
      Step.K = R.nextBool() ? StepKind::ScalarInvariant
                            : StepKind::ScalarRotate;
    else if (Kind == 7)
      Step.K = StepKind::Pad;
    else if (Kind == 8)
      Step.K = StepKind::Prefetch;
    else
      Step.K = StepKind::Copy;
    Step.Key = R.next();
    switch (Step.K) {
    case StepKind::Tile:
      Step.P1 = R.nextInt(1, 8);
      break;
    case StepKind::UnrollJam:
      Step.P1 = R.nextInt(1, 4);
      break;
    case StepKind::Pad:
      Step.P1 = R.nextInt(0, 2);
      Step.P2 = R.nextInt(0, 2);
      break;
    case StepKind::Prefetch:
      Step.P1 = R.nextInt(0, 4);
      break;
    default:
      Step.P1 = R.nextInt(1, 8);
      break;
    }
    C.Steps.push_back(Step);
  }
  return C;
}

//===----------------------------------------------------------------------===//
// Nest construction from a spec
//===----------------------------------------------------------------------===//

struct BuiltNest {
  LoopNest Nest;
  std::vector<SymbolId> LoopVars; ///< outermost first
  std::vector<ArrayId> Arrays;    ///< the original (comparable) arrays
  /// Per array: logical (pre-pad) extents. Fills and comparisons address
  /// elements by logical coordinate so padding — which changes the flat
  /// layout but not the logical contents — stays comparable.
  std::vector<std::vector<int64_t>> LogicalExtents;
};

int64_t maxSubValue(const DimSpec &D, const std::vector<int64_t> &Bounds) {
  return D.Sign > 0 ? D.Off + Bounds[D.Var] - 1 : D.Off;
}

AffineExpr subExpr(const DimSpec &D, const std::vector<SymbolId> &Vars) {
  AffineExpr V = AffineExpr::sym(Vars[D.Var]);
  if (D.Sign < 0)
    return AffineExpr::constant(D.Off) - V;
  return V + AffineExpr::constant(D.Off);
}

BuiltNest buildNest(const CaseSpec &C) {
  BuiltNest B;
  B.Nest.Name = "fuzz";
  int NumLoops = static_cast<int>(C.Bounds.size());
  for (int L = 0; L < NumLoops; ++L)
    B.LoopVars.push_back(B.Nest.declareLoopVar("v" + std::to_string(L)));

  // Extents: cover the largest subscript any reference produces.
  std::vector<std::vector<int64_t>> Extents(C.ArrayRanks.size());
  for (size_t A = 0; A < C.ArrayRanks.size(); ++A)
    Extents[A].assign(static_cast<size_t>(C.ArrayRanks[A]), 1);
  auto Widen = [&](const RefSpec &Ref) {
    for (size_t D = 0; D < Ref.Dims.size(); ++D)
      Extents[static_cast<size_t>(Ref.Array)][D] =
          std::max(Extents[static_cast<size_t>(Ref.Array)][D],
                   maxSubValue(Ref.Dims[D], C.Bounds) + 1);
  };
  for (const StmtSpec &St : C.Stmts) {
    Widen(St.Lhs);
    for (const RefSpec &Rd : St.Reads)
      Widen(Rd);
  }
  for (size_t A = 0; A < C.ArrayRanks.size(); ++A) {
    std::vector<AffineExpr> Ext;
    for (int64_t E : Extents[A])
      Ext.push_back(AffineExpr::constant(E));
    B.Arrays.push_back(
        B.Nest.declareArray({"F" + std::to_string(A), Ext}));
    B.LogicalExtents.push_back(Extents[A]);
  }

  Body Inner;
  for (const StmtSpec &St : C.Stmts) {
    auto RefOf = [&](const RefSpec &Ref) {
      std::vector<AffineExpr> Subs;
      for (const DimSpec &D : Ref.Dims)
        Subs.push_back(subExpr(D, B.LoopVars));
      return ArrayRef(B.Arrays[static_cast<size_t>(Ref.Array)], Subs);
    };
    ArrayRef Lhs = RefOf(St.Lhs);
    std::unique_ptr<ScalarExpr> Rhs = ScalarExpr::makeRead(RefOf(St.Reads[0]));
    for (size_t Rd = 1; Rd < St.Reads.size(); ++Rd) {
      ScalarExprKind K = St.Ops[Rd] == 0   ? ScalarExprKind::Add
                         : St.Ops[Rd] == 1 ? ScalarExprKind::Sub
                                           : ScalarExprKind::Mul;
      Rhs = ScalarExpr::makeBinary(K, std::move(Rhs),
                                   ScalarExpr::makeRead(RefOf(St.Reads[Rd])));
    }
    if (St.SelfRead)
      Rhs = ScalarExpr::makeBinary(ScalarExprKind::Add,
                                   ScalarExpr::makeRead(Lhs), std::move(Rhs));
    Inner.push_back(BodyItem(Stmt::makeCompute(Lhs, std::move(Rhs))));
  }

  Body Current = std::move(Inner);
  for (int L = NumLoops - 1; L >= 0; --L) {
    auto Lp = std::make_unique<Loop>(B.LoopVars[L], AffineExpr::constant(0),
                                     Bound(AffineExpr::constant(
                                         C.Bounds[L] - 1)));
    Lp->Items = std::move(Current);
    Current.clear();
    Current.push_back(BodyItem(std::move(Lp)));
  }
  B.Nest.Items = std::move(Current);
  return B;
}

//===----------------------------------------------------------------------===//
// Pipeline application
//===----------------------------------------------------------------------===//

enum class StepOutcome { Applied, Rejected, Skipped };

struct PipelineState {
  int TileCount = 0;
  int CopyCount = 0;
  std::map<SymbolId, SymbolId> ControlVarOf; ///< element var -> control var
  std::map<SymbolId, SymbolId> TileParamOf;  ///< element var -> tile param
  std::vector<std::pair<SymbolId, int64_t>> ParamValues;
};

std::vector<SymbolId> spineVars(const LoopNest &Nest) {
  std::vector<SymbolId> Vars;
  for (const Loop *L : Nest.spine())
    Vars.push_back(L->Var);
  return Vars;
}

std::vector<SymbolId> allLoopVars(const LoopNest &Nest) {
  std::vector<SymbolId> Vars;
  std::set<SymbolId> Seen;
  Nest.forEachLoop([&](const Loop &L) {
    if (Seen.insert(L.Var).second)
      Vars.push_back(L.Var);
  });
  return Vars;
}

StepOutcome applyStep(LoopNest &Nest, const StepSpec &S, PipelineState &PS,
                      std::string *RejectReason) {
  try {
    switch (S.K) {
    case StepKind::Permute: {
      std::vector<SymbolId> Order = spineVars(Nest);
      if (Order.size() < 2)
        return StepOutcome::Skipped;
      // Fisher-Yates driven by the step key.
      Rng PR(S.Key);
      for (size_t I = Order.size() - 1; I > 0; --I)
        std::swap(Order[I],
                  Order[static_cast<size_t>(PR.nextInt(0, (int64_t)I))]);
      permuteSpine(Nest, Order);
      return StepOutcome::Applied;
    }
    case StepKind::Tile: {
      std::vector<SymbolId> Spine = spineVars(Nest);
      if (Spine.empty())
        return StepOutcome::Skipped;
      SymbolId Var = Spine[S.Key % Spine.size()];
      std::string N = std::to_string(PS.TileCount++);
      TileResult TR = tileLoop(Nest, Var, "c" + N, "Tc" + N);
      PS.ControlVarOf[Var] = TR.ControlVar;
      PS.TileParamOf[Var] = TR.TileParam;
      PS.ParamValues.push_back({TR.TileParam, S.P1});
      return StepOutcome::Applied;
    }
    case StepKind::UnrollJam: {
      std::vector<SymbolId> Vars = allLoopVars(Nest);
      if (Vars.empty())
        return StepOutcome::Skipped;
      unrollAndJam(Nest, Vars[S.Key % Vars.size()],
                   static_cast<int>(S.P1));
      return StepOutcome::Applied;
    }
    case StepKind::ScalarInvariant: {
      std::vector<SymbolId> Vars = allLoopVars(Nest);
      if (Vars.empty())
        return StepOutcome::Skipped;
      scalarReplaceInvariant(Nest, Vars[S.Key % Vars.size()]);
      return StepOutcome::Applied;
    }
    case StepKind::ScalarRotate: {
      std::vector<SymbolId> Vars = allLoopVars(Nest);
      if (Vars.empty())
        return StepOutcome::Skipped;
      rotatingScalarReplace(Nest, Vars[S.Key % Vars.size()]);
      return StepOutcome::Applied;
    }
    case StepKind::Pad: {
      if (S.P1 == 0 && S.P2 == 0)
        return StepOutcome::Skipped;
      padDims(Nest, {S.P1, S.P2});
      return StepOutcome::Applied;
    }
    case StepKind::Prefetch: {
      std::vector<SymbolId> Spine = spineVars(Nest);
      if (Spine.empty() || Nest.Arrays.empty())
        return StepOutcome::Skipped;
      ArrayId Target =
          static_cast<ArrayId>(S.Key % Nest.Arrays.size());
      insertPrefetch(Nest, Target, Spine.back(),
                     static_cast<int>(S.P1),
                     /*LineElems=*/4);
      return StepOutcome::Applied;
    }
    case StepKind::Copy: {
      if (Nest.Arrays.empty())
        return StepOutcome::Skipped;
      ArrayId Src = static_cast<ArrayId>(S.Key % Nest.Arrays.size());
      if (Nest.array(Src).Role != ArrayRole::Data)
        return StepOutcome::Skipped;
      // Find a reference to Src whose subscripts are plain tiled
      // variables (coefficient 1, no offset) — the shape the copy
      // optimization handles.
      std::optional<ArrayRef> Found;
      Nest.forEachStmt([&](const Stmt &St) {
        St.forEachRef([&](const ArrayRef &Ref, bool) {
          if (!Found && Ref.Array == Src)
            Found = Ref;
        });
      });
      if (!Found)
        return StepOutcome::Skipped;
      std::vector<SymbolId> Spine = spineVars(Nest);
      size_t InnermostPos = 0;
      std::vector<CopyDimSpec> Dims;
      for (const AffineExpr &Sub : Found->Subs) {
        std::vector<SymbolId> Vars = Sub.symbols();
        if (Vars.size() != 1 || Sub.coeff(Vars[0]) != 1 ||
            Sub.constTerm() != 0)
          return StepOutcome::Skipped;
        SymbolId V = Vars[0];
        auto CVIt = PS.ControlVarOf.find(V);
        auto TPIt = PS.TileParamOf.find(V);
        if (CVIt == PS.ControlVarOf.end() || TPIt == PS.TileParamOf.end())
          return StepOutcome::Skipped;
        size_t Pos = std::find(Spine.begin(), Spine.end(), CVIt->second) -
                     Spine.begin();
        if (Pos >= Spine.size())
          return StepOutcome::Skipped;
        InnermostPos = std::max(InnermostPos, Pos);
        const Loop *Element = Nest.findLoop(V);
        if (!Element)
          return StepOutcome::Skipped;
        Bound Size{AffineExpr::sym(TPIt->second)};
        for (const AffineExpr &Ub : Element->Upper.exprs())
          if (!Ub.uses(TPIt->second))
            Size.clampTo(Ub + 1 - AffineExpr::sym(CVIt->second));
        Dims.push_back(
            {AffineExpr::sym(CVIt->second), TPIt->second, Size});
      }
      if (InnermostPos + 1 >= Spine.size())
        return StepOutcome::Skipped;
      applyCopy(Nest, Src, Spine[InnermostPos + 1],
                "P" + std::to_string(PS.CopyCount++), Dims);
      return StepOutcome::Applied;
    }
    }
  } catch (const TransformError &E) {
    if (RejectReason)
      *RejectReason = E.what();
    return StepOutcome::Rejected;
  }
  return StepOutcome::Skipped;
}

//===----------------------------------------------------------------------===//
// Execution legs
//===----------------------------------------------------------------------===//

Env makeConfig(const LoopNest &Nest, const PipelineState &PS) {
  Env Cfg(Nest.Syms.size());
  for (const auto &[Param, Val] : PS.ParamValues)
    Cfg.set(Param, Val);
  return Cfg;
}

/// Deterministic per-element fill value in [-0.5, 0.5), addressed by the
/// element's LOGICAL index so padded and unpadded layouts receive the
/// same logical contents.
double fillValue(uint64_t Seed, int64_t LogicalIdx) {
  Rng R(Seed ^ (0x9E3779B97F4A7C15ULL *
                static_cast<uint64_t>(LogicalIdx + 1)));
  return R.nextDouble() - 0.5;
}

int64_t flatIndex(const std::vector<int64_t> &Idx,
                  const std::vector<int64_t> &Ext, Layout Order) {
  int64_t Flat = 0, Stride = 1;
  if (Order == Layout::ColMajor) {
    for (size_t D = 0; D < Idx.size(); ++D) {
      Flat += Idx[D] * Stride;
      Stride *= Ext[D];
    }
  } else {
    for (size_t D = Idx.size(); D-- > 0;) {
      Flat += Idx[D] * Stride;
      Stride *= Ext[D];
    }
  }
  return Flat;
}

/// Calls \p F(A, Flat, LogicalFlat) for every element of every original
/// array A of \p B at \p Cfg, in logical order: Flat addresses it in the
/// (possibly padded) storage, LogicalFlat counts logical positions.
template <class Fn>
void forEachLogical(const BuiltNest &B, const Env &Cfg, Fn &&F) {
  for (size_t A = 0; A < B.LogicalExtents.size(); ++A) {
    const ArrayDecl &Decl = B.Nest.array(static_cast<ArrayId>(A));
    std::vector<int64_t> Ext;
    for (const AffineExpr &E : Decl.Extents)
      Ext.push_back(E.eval(Cfg));
    const std::vector<int64_t> &Logical = B.LogicalExtents[A];
    std::vector<int64_t> Idx(Logical.size(), 0);
    int64_t LogicalFlat = 0;
    size_t D;
    do {
      F(A, static_cast<size_t>(flatIndex(Idx, Ext, Decl.Order)),
        LogicalFlat++);
      for (D = 0; D < Logical.size() && ++Idx[D] == Logical[D]; ++D)
        Idx[D] = 0;
    } while (D < Logical.size());
  }
}

/// Storage for every array of \p B at \p Cfg, each original array
/// filled by logical coordinate; arrays the transforms added (copy
/// buffers) start zeroed.
std::vector<std::vector<double>> fillLogical(const BuiltNest &B,
                                             const Env &Cfg) {
  std::vector<std::vector<double>> Arrays = allocateArrays(B.Nest, Cfg);
  forEachLogical(B, Cfg, [&](size_t A, size_t Flat, int64_t LogicalFlat) {
    Arrays[A][Flat] = fillValue(FillSeedBase + A, LogicalFlat);
  });
  return Arrays;
}

/// The logical contents of each original array of \p B in \p Arrays.
std::vector<std::vector<double>>
gatherLogical(const std::vector<std::vector<double>> &Arrays,
              const BuiltNest &B, const Env &Cfg) {
  std::vector<std::vector<double>> Out(B.LogicalExtents.size());
  forEachLogical(B, Cfg, [&](size_t A, size_t Flat, int64_t) {
    Out[A].push_back(Arrays[A][Flat]);
  });
  return Out;
}

/// Self-feeding multiply-accumulate cases can legitimately overflow; at
/// that point ulp comparison is meaningless, so anything non-finite or
/// astronomically large lands in one "overflowed" equivalence class.
bool overflowed(double V) {
  return !std::isfinite(V) || std::abs(V) > 1e100;
}

/// Element-wise ulp comparison across all original arrays; returns a
/// description of the first offending element, or nullopt.
///
/// Besides the ulp bound, an element passes if its absolute error is
/// tiny relative to the largest magnitude in the array. Permuting two
/// reduction dimensions legitimately reorders additions, and when the
/// accumulated terms span magnitudes the drift can reach a few hundred
/// ulps of a near-zero result — semantically fine, and categorically
/// different from real miscompiles, which we have only ever observed at
/// >= 1e14 ulps (wrong cells entirely). 1e-9 relative is ~1e6 times
/// looser than reassociation noise and ~1e5 times tighter than any bug.
std::optional<std::string>
compareArrays(const std::vector<std::vector<double>> &Got,
              const std::vector<std::vector<double>> &Want,
              uint64_t MaxUlps) {
  for (size_t A = 0; A < Want.size(); ++A) {
    if (A >= Got.size() || Got[A].size() != Want[A].size())
      return strformat("array %zu: size %zu != %zu", A,
                       A < Got.size() ? Got[A].size() : 0, Want[A].size());
    double Mag = 0;
    for (double W : Want[A])
      if (!overflowed(W))
        Mag = std::max(Mag, std::abs(W));
    for (size_t X = 0; X < Want[A].size(); ++X) {
      if (overflowed(Got[A][X]) && overflowed(Want[A][X]))
        continue;
      uint64_t U = ulpDiff(Got[A][X], Want[A][X]);
      if (U > MaxUlps &&
          std::abs(Got[A][X] - Want[A][X]) > 1e-9 * Mag)
        return strformat("array %zu idx %zu: got %.17g want %.17g "
                         "(%llu ulps)",
                         A, X, Got[A][X], Want[A][X],
                         (unsigned long long)U);
    }
  }
  return std::nullopt;
}

/// The first HWCounters field in which the counters-mode run \p Got
/// differs from the value-mode run \p Want (cycles compared bitwise), or
/// nullopt.
std::optional<std::string> compareCounters(const HWCounters &Got,
                                           const HWCounters &Want) {
  static_assert(MaxCacheLevels == 4, "one row per cache level below");
  const std::pair<const char *, std::pair<uint64_t, uint64_t>> Counts[] = {
      {"loads", {Got.Loads, Want.Loads}},
      {"stores", {Got.Stores, Want.Stores}},
      {"prefetches", {Got.Prefetches, Want.Prefetches}},
      {"flops", {Got.Flops, Want.Flops}},
      {"loop iters", {Got.LoopIters, Want.LoopIters}},
      {"L1 misses", {Got.CacheMisses[0], Want.CacheMisses[0]}},
      {"L2 misses", {Got.CacheMisses[1], Want.CacheMisses[1]}},
      {"L3 misses", {Got.CacheMisses[2], Want.CacheMisses[2]}},
      {"L4 misses", {Got.CacheMisses[3], Want.CacheMisses[3]}},
      {"TLB misses", {Got.TlbMisses, Want.TlbMisses}}};
  for (const auto &[Field, V] : Counts)
    if (V.first != V.second)
      return strformat("%s: counters mode %llu, value mode %llu", Field,
                       (unsigned long long)V.first,
                       (unsigned long long)V.second);
  const std::pair<const char *, std::pair<double, double>> Cycles[] = {
      {"issue cycles", {Got.IssueCycles, Want.IssueCycles}},
      {"stall cycles", {Got.StallCycles, Want.StallCycles}}};
  for (const auto &[Field, V] : Cycles)
    if (std::bit_cast<uint64_t>(V.first) != std::bit_cast<uint64_t>(V.second))
      return strformat("%s: counters mode %.17g, value mode %.17g", Field,
                       V.first, V.second);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// One case end-to-end
//===----------------------------------------------------------------------===//

struct CaseResult {
  bool Failed = false;
  std::string Leg;
  std::string Detail;
  int Applied = 0;
  int Rejected = 0;
  int Skipped = 0;
  bool RanNative = false;
};

/// Runs one case; \p Dump prints its nests and bindings to stderr.
CaseResult runCase(const CaseSpec &C, bool Native, uint64_t MaxUlps,
                   bool Dump = false) {
  CaseResult R;

  BuiltNest Orig = buildNest(C);
  std::vector<std::string> Problems = verify(Orig.Nest);
  if (!Problems.empty()) {
    R.Failed = true;
    R.Leg = "verify";
    R.Detail = "generated nest rejected: " + Problems.front();
    return R;
  }

  const MachineDesc Machine = MachineDesc::sgiR10000();
  Env OrigCfg(Orig.Nest.Syms.size());
  std::vector<std::vector<double>> Want = gatherLogical(
      simLeg(Orig.Nest, OrigCfg, Machine, fillLogical(Orig, OrigCfg)),
      Orig, OrigCfg);

  BuiltNest Trans = buildNest(C);
  PipelineState PS;
  for (const StepSpec &S : C.Steps) {
    std::string Reason;
    switch (applyStep(Trans.Nest, S, PS, &Reason)) {
    case StepOutcome::Applied: {
      ++R.Applied;
      std::vector<std::string> After = verify(Trans.Nest);
      if (!After.empty()) {
        R.Failed = true;
        R.Leg = "verify";
        R.Detail = strformat("%s left ill-formed nest: %s", stepName(S.K),
                             After.front().c_str());
        return R;
      }
      break;
    }
    case StepOutcome::Rejected:
      ++R.Rejected;
      break;
    case StepOutcome::Skipped:
      ++R.Skipped;
      break;
    }
  }

  Env Cfg = makeConfig(Trans.Nest, PS);
  // The reproducer prints the case's nests and configuration: with
  // --seed/--iter that is the whole debugging loop for a fuzzer-found
  // failure.
  if (Dump) {
    std::fprintf(stderr, "=== original ===\n%s=== transformed ===\n%s",
                 Orig.Nest.print().c_str(), Trans.Nest.print().c_str());
    for (size_t S = 0; S < Trans.Nest.Syms.size(); ++S)
      std::fprintf(stderr, "  %s = %lld\n",
                   Trans.Nest.Syms.name(static_cast<SymbolId>(S)).c_str(),
                   static_cast<long long>(Cfg.get(static_cast<SymbolId>(S))));
  }
  std::vector<std::vector<double>> Fills = fillLogical(Trans, Cfg);
  HWCounters ValueCounters;
  if (std::optional<std::string> Bad = compareArrays(
          gatherLogical(simLeg(Trans.Nest, Cfg, Machine, Fills,
                               &ValueCounters),
                        Trans, Cfg),
          Want, MaxUlps)) {
    R.Failed = true;
    R.Leg = "sim";
    R.Detail = *Bad;
    return R;
  }

  // The tuner runs the counters-mode fast path, not the value-mode
  // interpreter the sim leg checks: its counters must match bitwise.
  MemHierarchySim Sim(Machine);
  Executor(Trans.Nest, Cfg, Sim).run();
  if (std::optional<std::string> Bad =
          compareCounters(Sim.counters(), ValueCounters)) {
    R.Failed = true;
    R.Leg = "counters";
    R.Detail = *Bad;
    return R;
  }

  if (Native) {
    R.RanNative = true;
    NativeKernelCache Kernels;
    std::string Error;
    std::optional<std::vector<std::vector<double>>> GotN =
        nativeLeg(Trans.Nest, Cfg, Kernels, std::move(Fills), &Error);
    if (!GotN) {
      R.Failed = true;
      R.Leg = "native-compile";
      R.Detail = Error;
      return R;
    }
    if (std::optional<std::string> Bad = compareArrays(
            gatherLogical(*GotN, Trans, Cfg), Want, MaxUlps)) {
      R.Failed = true;
      R.Leg = "native";
      R.Detail = *Bad;
      return R;
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Shrinking: steps, then parameters, then loop bounds.
//===----------------------------------------------------------------------===//

/// Re-executions a whole run may spend while minimizing failures.
constexpr int ShrinkRunBudget = 300;

bool stillFails(const CaseSpec &C, bool Native, uint64_t MaxUlps,
                FuzzReport &Report) {
  if (Report.ShrinkRuns >= ShrinkRunBudget)
    return false; // out of budget: stop accepting shrinks
  ++Report.ShrinkRuns;
  try {
    return runCase(C, Native, MaxUlps).Failed;
  } catch (const std::exception &) {
    return true; // a crash is as good a failure as a mismatch
  }
}

CaseSpec shrinkCase(CaseSpec C, bool Native, uint64_t MaxUlps,
                    FuzzReport &Report) {
  // 1. Drop pipeline steps.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t S = 0; S < C.Steps.size(); ++S) {
      CaseSpec Cand = C;
      Cand.Steps.erase(Cand.Steps.begin() + static_cast<long>(S));
      if (stillFails(Cand, Native, MaxUlps, Report)) {
        C = std::move(Cand);
        Changed = true;
        break;
      }
    }
  }
  // 2. Shrink step parameters toward the smallest value generation
  // draws: 0 for pad and prefetch, 1 otherwise (a tile size of 0 would
  // make a zero loop step, which the executor asserts against).
  for (size_t SI = 0; SI < C.Steps.size(); ++SI) {
    StepKind K = C.Steps[SI].K;
    int64_t Floor = K == StepKind::Pad || K == StepKind::Prefetch ? 0 : 1;
    for (int64_t Cand : {int64_t(0), int64_t(1), C.Steps[SI].P1 / 2}) {
      if (Cand < Floor || Cand >= C.Steps[SI].P1)
        continue;
      CaseSpec Copy = C;
      Copy.Steps[SI].P1 = Cand;
      if (stillFails(Copy, Native, MaxUlps, Report)) {
        C.Steps[SI].P1 = Cand;
        break;
      }
    }
  }
  // 3. Shrink loop bounds.
  for (size_t L = 0; L < C.Bounds.size(); ++L)
    for (int64_t Cand : {int64_t(1), int64_t(2), int64_t(3)}) {
      if (Cand >= C.Bounds[L])
        break;
      CaseSpec Copy = C;
      Copy.Bounds[L] = Cand;
      // Reversed subscripts pinned their offset to the old bound; keep
      // them consistent so the case stays valid.
      if (stillFails(Copy, Native, MaxUlps, Report)) {
        C.Bounds[L] = Cand;
        break;
      }
    }
  return C;
}

uint64_t caseSeed(uint64_t MasterSeed, int Iter) {
  return MasterSeed * 0x100000001b3ULL + static_cast<uint64_t>(Iter) + 1;
}

} // namespace

std::string FuzzReport::summary() const {
  std::string Out = strformat(
      "eco-fuzz: %d iteration(s), %d step(s) applied, %d rejected, "
      "%d skipped, %d native run(s), %d shrink run(s) -> %zu failure(s)\n",
      Iterations, StepsApplied, StepsRejected, StepsSkipped, NativeRuns,
      ShrinkRuns, Failures.size());
  for (const FuzzFailure &F : Failures) {
    Out += strformat("  FAIL iter=%d leg=%s: %s\n", F.Iter, F.Leg.c_str(),
                     F.Detail.c_str());
    Out += "    pipeline: " +
           (F.Pipeline.empty() ? std::string("<empty>") : F.Pipeline) +
           "\n";
    Out += "    " + F.ReproLine + "\n";
  }
  return Out;
}

FuzzReport eco::check::runFuzz(const FuzzOptions &Opts) {
  FuzzReport Report;

  int First = Opts.OnlyIter >= 0 ? Opts.OnlyIter : 0;
  int Last = Opts.OnlyIter >= 0 ? Opts.OnlyIter + 1 : Opts.Iters;
  for (int Iter = First; Iter < Last; ++Iter) {
    ++Report.Iterations;
    bool Native =
        Opts.NativeEvery > 0 && (Iter % Opts.NativeEvery) == 0;
    CaseSpec C = generateCase(caseSeed(Opts.Seed, Iter));

    CaseResult R;
    try {
      R = runCase(C, Native, Opts.MaxUlps, /*Dump=*/Opts.OnlyIter >= 0);
    } catch (const std::exception &E) {
      R.Failed = true;
      R.Leg = "crash";
      R.Detail = E.what();
    }
    Report.StepsApplied += R.Applied;
    Report.StepsRejected += R.Rejected;
    Report.StepsSkipped += R.Skipped;
    if (R.RanNative)
      ++Report.NativeRuns;

    if (Opts.Verbose) {
      ECO_LOG(Info) << "fuzz iter " << Iter << ": " << R.Applied
                    << " applied, " << R.Rejected << " rejected"
                    << (R.Failed ? " FAILED (" + R.Leg + ")"
                                 : std::string());
    }

    if (!R.Failed)
      continue;

    CaseSpec Min = shrinkCase(C, Native, Opts.MaxUlps, Report);
    CaseResult MinR;
    try {
      MinR = runCase(Min, Native, Opts.MaxUlps);
    } catch (const std::exception &E) {
      MinR.Failed = true;
      MinR.Leg = "crash";
      MinR.Detail = E.what();
    }
    if (!MinR.Failed)
      MinR = R; // shrink budget exhausted mid-way: report the original

    FuzzFailure F;
    F.Seed = Opts.Seed;
    F.Iter = Iter;
    F.Leg = MinR.Leg;
    F.Detail = MinR.Detail;
    F.Pipeline = describeSteps(Min.Steps);
    F.NestDump = buildNest(Min).Nest.print();
    F.ReproLine =
        strformat("repro: eco_fuzz --seed=%llu --iter=%d",
                  (unsigned long long)Opts.Seed, Iter);
    ECO_LOG(Error) << "fuzz failure at iter " << Iter << " (" << F.Leg
                   << "): " << F.Detail << " | " << F.ReproLine;
    Report.Failures.push_back(std::move(F));
  }
  return Report;
}
