//===- ir/ScalarExpr.h - Right-hand-side expression trees ------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Floating-point expression trees for statement right-hand sides, e.g.
/// C[I,J] + A[I,K]*B[K,J] or c*(B[I-1,J,K] + ... ). Leaves are constants,
/// array reads, or register reads (after scalar replacement). Keeping real
/// value semantics lets the test suite verify that every transformation
/// preserves the computed result bit-for-bit modulo FP reassociation we
/// never perform.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_IR_SCALAREXPR_H
#define ECO_IR_SCALAREXPR_H

#include "ir/Array.h"

#include <memory>

namespace eco {

enum class ScalarExprKind { Const, Read, RegRead, Add, Sub, Mul };

/// A node in an RHS expression tree.
struct ScalarExpr {
  ScalarExprKind Kind;
  double ConstVal = 0;                 ///< Const
  ArrayRef Ref;                        ///< Read
  int Reg = -1;                        ///< RegRead
  std::unique_ptr<ScalarExpr> Lhs;     ///< Add/Sub/Mul
  std::unique_ptr<ScalarExpr> Rhs;     ///< Add/Sub/Mul

  explicit ScalarExpr(ScalarExprKind K) : Kind(K) {}

  static std::unique_ptr<ScalarExpr> makeConst(double V) {
    auto E = std::make_unique<ScalarExpr>(ScalarExprKind::Const);
    E->ConstVal = V;
    return E;
  }

  static std::unique_ptr<ScalarExpr> makeRead(ArrayRef R) {
    auto E = std::make_unique<ScalarExpr>(ScalarExprKind::Read);
    E->Ref = std::move(R);
    return E;
  }

  static std::unique_ptr<ScalarExpr> makeBinary(
      ScalarExprKind K, std::unique_ptr<ScalarExpr> L,
      std::unique_ptr<ScalarExpr> R) {
    assert((K == ScalarExprKind::Add || K == ScalarExprKind::Sub ||
            K == ScalarExprKind::Mul) &&
           "not a binary kind");
    auto E = std::make_unique<ScalarExpr>(K);
    E->Lhs = std::move(L);
    E->Rhs = std::move(R);
    return E;
  }

  std::unique_ptr<ScalarExpr> clone() const;

  /// Number of FP operations in the tree.
  unsigned flops() const;

  /// Number of array-read leaves.
  unsigned numReads() const;

  /// Calls \p F on every Read leaf (mutable, so passes can rewrite refs or
  /// splice in register reads at a higher level).
  template <typename Fn> void forEachRead(Fn &&F) {
    if (Kind == ScalarExprKind::Read) {
      F(*this);
      return;
    }
    if (Lhs)
      Lhs->forEachRead(F);
    if (Rhs)
      Rhs->forEachRead(F);
  }

  template <typename Fn> void forEachRead(Fn &&F) const {
    if (Kind == ScalarExprKind::Read) {
      F(*this);
      return;
    }
    if (Lhs)
      Lhs->forEachRead(F);
    if (Rhs)
      Rhs->forEachRead(F);
  }

  /// Applies a symbol substitution to every array read in the tree.
  void substitute(SymbolId Sym, const AffineExpr &Replacement);

  /// Renders e.g. "C[I,J]+A[I,K]*B[K,J]" (with precedence parentheses).
  std::string str(const SymbolTable &Syms,
                  const std::vector<ArrayDecl> &Arrays) const;
};

} // namespace eco

#endif // ECO_IR_SCALAREXPR_H
