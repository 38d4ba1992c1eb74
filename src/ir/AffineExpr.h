//===- ir/AffineExpr.h - Affine expressions and min-bounds -----*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Affine (linear + constant) integer expressions over symbols, and Bound —
/// the minimum of several affine expressions. These are the subscript and
/// loop-bound language of the IR: tiling introduces bounds of the form
/// min(JJ+TJ-1, N), and unrolling substitutes I -> I + c into subscripts.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_IR_AFFINEEXPR_H
#define ECO_IR_AFFINEEXPR_H

#include "ir/Symbols.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace eco {

/// Constant + sum of Coeff * Symbol terms. Terms are kept sorted by symbol
/// id with nonzero coefficients, so structural equality is a plain compare.
class AffineExpr {
public:
  AffineExpr() = default;

  /// The constant expression \p C.
  static AffineExpr constant(int64_t C) {
    AffineExpr E;
    E.Const = C;
    return E;
  }

  /// The expression 1 * \p Sym.
  static AffineExpr sym(SymbolId Sym) {
    AffineExpr E;
    E.Terms.push_back({Sym, 1});
    return E;
  }

  int64_t constTerm() const { return Const; }

  /// Coefficient of \p Sym (0 if absent).
  int64_t coeff(SymbolId Sym) const {
    for (const Term &T : Terms)
      if (T.Sym == Sym)
        return T.Coeff;
    return 0;
  }

  bool isConstant() const { return Terms.empty(); }

  /// True if \p Sym occurs with nonzero coefficient.
  bool uses(SymbolId Sym) const { return coeff(Sym) != 0; }

  /// The symbols occurring in this expression.
  std::vector<SymbolId> symbols() const {
    std::vector<SymbolId> Result;
    Result.reserve(Terms.size());
    for (const Term &T : Terms)
      Result.push_back(T.Sym);
    return Result;
  }

  AffineExpr operator+(const AffineExpr &O) const;
  AffineExpr operator-(const AffineExpr &O) const;
  AffineExpr operator+(int64_t C) const;
  AffineExpr operator-(int64_t C) const;
  /// Multiplies every term and the constant by \p Factor.
  AffineExpr scaled(int64_t Factor) const;

  bool operator==(const AffineExpr &O) const {
    return Const == O.Const && Terms == O.Terms;
  }

  /// True if this and \p O differ only in their constants, i.e. this - O
  /// is constant (terms are canonical, so a plain compare decides it).
  bool sameTerms(const AffineExpr &O) const { return Terms == O.Terms; }

  /// Replaces \p Sym with \p Replacement (e.g. I -> I + 2 for unrolling,
  /// or I -> Lower for hoisting out of a loop).
  AffineExpr substitute(SymbolId Sym, const AffineExpr &Replacement) const;

  /// Evaluates under \p E.
  int64_t eval(const Env &E) const {
    int64_t V = Const;
    for (const Term &T : Terms)
      V += T.Coeff * E.get(T.Sym);
    return V;
  }

  /// Renders e.g. "I+2", "N-1", "2*K+TJ".
  std::string str(const SymbolTable &Syms) const;

private:
  struct Term {
    SymbolId Sym;
    int64_t Coeff;
    bool operator==(const Term &O) const = default;
  };

  void addTerm(SymbolId Sym, int64_t Coeff);

  int64_t Const = 0;
  std::vector<Term> Terms; ///< sorted by Sym, Coeff != 0
};

/// The minimum of one or more affine expressions; used as an (inclusive)
/// upper loop bound after tiling: DO J = JJ, min(JJ+TJ-1, N).
class Bound {
public:
  Bound() = default;
  /*implicit*/ Bound(AffineExpr E) { Exprs.push_back(std::move(E)); }

  static Bound min(AffineExpr A, AffineExpr B) {
    Bound Result(std::move(A));
    Result.clampTo(std::move(B));
    return Result;
  }

  /// Adds another expression to the minimum (dropping duplicates).
  void clampTo(AffineExpr E) {
    if (std::find(Exprs.begin(), Exprs.end(), E) == Exprs.end())
      Exprs.push_back(std::move(E));
  }

  bool isSimple() const { return Exprs.size() == 1; }
  const std::vector<AffineExpr> &exprs() const { return Exprs; }

  /// Applies an expression-wise rewrite (substitution, offsets, ...).
  template <typename Fn> Bound map(Fn &&F) const {
    Bound Result;
    for (const AffineExpr &E : Exprs)
      Result.Exprs.push_back(F(E));
    return Result;
  }

  int64_t eval(const Env &E) const {
    assert(!Exprs.empty() && "empty bound");
    int64_t V = Exprs.front().eval(E);
    for (size_t I = 1; I < Exprs.size(); ++I)
      V = std::min(V, Exprs[I].eval(E));
    return V;
  }

  bool uses(SymbolId Sym) const {
    for (const AffineExpr &E : Exprs)
      if (E.uses(Sym))
        return true;
    return false;
  }

  /// Renders e.g. "min(JJ+TJ-1,N)".
  std::string str(const SymbolTable &Syms) const;

private:
  std::vector<AffineExpr> Exprs;
};

} // namespace eco

#endif // ECO_IR_AFFINEEXPR_H
