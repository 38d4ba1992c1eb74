//===- ir/Array.h - Array declarations and references ----------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dense rectangular arrays and affine references into them. The paper's
/// kernels are Fortran, so arrays default to column-major layout (first
/// subscript contiguous); subscripts here are 0-based.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_IR_ARRAY_H
#define ECO_IR_ARRAY_H

#include "ir/AffineExpr.h"

#include <optional>
#include <string>
#include <vector>

namespace eco {

/// Index of an array within its LoopNest.
using ArrayId = int;

/// Element order in memory.
enum class Layout {
  ColMajor, ///< Fortran order: first subscript contiguous
  RowMajor, ///< C order: last subscript contiguous
};

/// Why the array exists.
enum class ArrayRole {
  Data,       ///< a kernel input/output
  CopyBuffer, ///< temporary introduced by the copy optimization
};

/// A dense rectangular array. Extents are affine in problem sizes and
/// parameters (copy buffers are sized by tile parameters).
struct ArrayDecl {
  std::string Name;
  std::vector<AffineExpr> Extents;
  unsigned ElemBytes = 8; ///< double precision throughout the paper
  Layout Order = Layout::ColMajor;
  ArrayRole Role = ArrayRole::Data;

  unsigned rank() const { return static_cast<unsigned>(Extents.size()); }

  /// Total elements under \p E.
  int64_t numElements(const Env &E) const {
    int64_t N = 1;
    for (const AffineExpr &Extent : Extents)
      N *= Extent.eval(E);
    return N;
  }
};

/// A subscripted reference A[s0, s1, ...] with affine subscripts.
struct ArrayRef {
  ArrayId Array = -1;
  std::vector<AffineExpr> Subs;

  ArrayRef() = default;
  ArrayRef(ArrayId A, std::vector<AffineExpr> S)
      : Array(A), Subs(std::move(S)) {}

  unsigned rank() const { return static_cast<unsigned>(Subs.size()); }

  bool operator==(const ArrayRef &O) const {
    return Array == O.Array && Subs == O.Subs;
  }

  /// True if any subscript uses \p Sym.
  bool uses(SymbolId Sym) const {
    for (const AffineExpr &S : Subs)
      if (S.uses(Sym))
        return true;
    return false;
  }

  /// Applies a substitution to every subscript.
  ArrayRef substitute(SymbolId Sym, const AffineExpr &Replacement) const {
    ArrayRef Result = *this;
    for (AffineExpr &S : Result.Subs)
      S = S.substitute(Sym, Replacement);
    return Result;
  }

  /// If this and \p O reference the same array with subscripts that differ
  /// only in constant terms, returns the per-dimension offset
  /// (O.Subs - Subs); otherwise nullopt. This is the "uniformly generated"
  /// test underlying group-reuse analysis and register rotation.
  std::optional<std::vector<int64_t>> constOffsetTo(const ArrayRef &O) const;

  /// Renders e.g. "B[K,J+1]".
  std::string str(const SymbolTable &Syms,
                  const std::vector<ArrayDecl> &Arrays) const;
};

} // namespace eco

#endif // ECO_IR_ARRAY_H
