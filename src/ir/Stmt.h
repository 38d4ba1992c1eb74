//===- ir/Stmt.h - Statements ----------------------------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statement forms a transformed loop nest can contain:
///
///  * Compute      — LHS = RHS where LHS is an array element or a register
///                   and RHS is a ScalarExpr tree;
///  * RegLoad      — r = A[...]    (inserted by scalar replacement);
///  * RegStore     — A[...] = r;
///  * RegRotate    — register renaming at the bottom of a loop body,
///                   realizing group-temporal reuse across iterations
///                   (the Jacobi "load B[I+1,...]; reuse B[I-1..I]" idiom);
///  * CopyIn       — copy a rectangular tile into a contiguous buffer
///                   (the copy optimization);
///  * Prefetch     — software prefetch of one element's cache line, with
///                   the distance already folded into the subscripts.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_IR_STMT_H
#define ECO_IR_STMT_H

#include "ir/ScalarExpr.h"

#include <memory>
#include <optional>
#include <utility>
#include <vector>

namespace eco {

enum class StmtKind { Compute, RegLoad, RegStore, RegRotate, CopyIn,
                      Prefetch };

/// One dimension of a CopyIn region: elements
/// [Start, Start + Size - 1] of the source dimension map to
/// [0, Size - 1] of the buffer dimension.
struct CopyRegionDim {
  AffineExpr Start;
  Bound Size; ///< may be clamped, e.g. min(TK, N-KK)
};

/// A statement. One struct covers all kinds (fields unused by a kind stay
/// defaulted) so bodies need no class hierarchy or casting.
struct Stmt {
  StmtKind Kind;

  // --- Compute ---
  std::optional<ArrayRef> LhsRef; ///< array destination (if any)
  int LhsReg = -1;                ///< register destination (if >= 0)
  std::unique_ptr<ScalarExpr> Rhs;

  // --- RegLoad / RegStore ---
  int Reg = -1;
  std::optional<ArrayRef> MemRef; ///< source (RegLoad) or dest (RegStore)

  // --- RegRotate ---
  std::vector<std::pair<int, int>> Moves; ///< Dst <- Src, in order

  // --- CopyIn ---
  ArrayId CopyDst = -1; ///< contiguous buffer (ArrayRole::CopyBuffer)
  ArrayId CopySrc = -1;
  std::vector<CopyRegionDim> Region; ///< one per source dimension

  // --- Prefetch ---
  std::optional<ArrayRef> PrefetchRef;

  explicit Stmt(StmtKind K) : Kind(K) {}

  static std::unique_ptr<Stmt> makeCompute(ArrayRef Lhs,
                                           std::unique_ptr<ScalarExpr> R) {
    auto S = std::make_unique<Stmt>(StmtKind::Compute);
    S->LhsRef = std::move(Lhs);
    S->Rhs = std::move(R);
    return S;
  }

  static std::unique_ptr<Stmt> makeRegLoad(int Reg, ArrayRef Src) {
    auto S = std::make_unique<Stmt>(StmtKind::RegLoad);
    S->Reg = Reg;
    S->MemRef = std::move(Src);
    return S;
  }

  static std::unique_ptr<Stmt> makeRegStore(ArrayRef Dst, int Reg) {
    auto S = std::make_unique<Stmt>(StmtKind::RegStore);
    S->Reg = Reg;
    S->MemRef = std::move(Dst);
    return S;
  }

  static std::unique_ptr<Stmt>
  makeRegRotate(std::vector<std::pair<int, int>> Moves) {
    auto S = std::make_unique<Stmt>(StmtKind::RegRotate);
    S->Moves = std::move(Moves);
    return S;
  }

  static std::unique_ptr<Stmt> makeCopyIn(ArrayId Dst, ArrayId Src,
                                          std::vector<CopyRegionDim> Region) {
    auto S = std::make_unique<Stmt>(StmtKind::CopyIn);
    S->CopyDst = Dst;
    S->CopySrc = Src;
    S->Region = std::move(Region);
    return S;
  }

  static std::unique_ptr<Stmt> makePrefetch(ArrayRef Target) {
    auto S = std::make_unique<Stmt>(StmtKind::Prefetch);
    S->PrefetchRef = std::move(Target);
    return S;
  }

  std::unique_ptr<Stmt> clone() const;

  /// Applies a symbol substitution to every expression in the statement.
  void substitute(SymbolId Sym, const AffineExpr &Replacement);

  /// Calls \p F with every ArrayRef this statement reads or writes
  /// (mutable). Covers Compute LHS/RHS, RegLoad/RegStore, Prefetch.
  template <typename Fn> void forEachRef(Fn &&F) {
    if (LhsRef)
      F(*LhsRef, /*IsWrite=*/true);
    if (Rhs)
      Rhs->forEachRead([&F](ScalarExpr &Leaf) { F(Leaf.Ref, false); });
    if (MemRef)
      F(*MemRef, Kind == StmtKind::RegStore);
    if (PrefetchRef)
      F(*PrefetchRef, false);
  }

  template <typename Fn> void forEachRef(Fn &&F) const {
    if (LhsRef)
      F(*LhsRef, /*IsWrite=*/true);
    if (Rhs)
      Rhs->forEachRead(
          [&F](const ScalarExpr &Leaf) { F(Leaf.Ref, false); });
    if (MemRef)
      F(*MemRef, Kind == StmtKind::RegStore);
    if (PrefetchRef)
      F(*PrefetchRef, false);
  }

  /// Renders one line of paper-style pseudo-code (no indentation).
  std::string str(const SymbolTable &Syms,
                  const std::vector<ArrayDecl> &Arrays) const;
};

} // namespace eco

#endif // ECO_IR_STMT_H
