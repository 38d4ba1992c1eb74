//===- transform/ScalarReplace.h - Scalar replacement ----------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scalar replacement harvests the register reuse that unroll-and-jam
/// exposes, in two flavors:
///
///  * Invariant replacement (Matrix Multiply): references invariant in the
///    innermost loop (C[I+di,J+dj] w.r.t. K) are loaded into registers
///    before the loop, used there, and stored back after — the paper's
///    "load C[...] into registers ... store C[...]" idiom.
///
///  * Rotating replacement (Jacobi): read-only references marching along
///    the innermost loop in constant-offset chains (B[I-1], B[I+1]) keep a
///    window of registers: the chain's leading element is loaded each
///    iteration, older elements come from register renaming (RegRotate),
///    and the window is preloaded before the loop — the paper's "load
///    B[1..2,...]; loop { load B[I+1,...]; compute }" idiom.
///
/// Both run after unroll-and-jam with concrete factors (registers must be
/// explicitly named, Section 3.1.1), process every main/epilogue loop
/// occurrence, and record register pressure via LoopNest::noteLiveRegs.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_TRANSFORM_SCALARREPLACE_H
#define ECO_TRANSFORM_SCALARREPLACE_H

#include "ir/Loop.h"

namespace eco {

/// Statistics for tests and reporting.
struct ScalarReplaceStats {
  int RegsAllocated = 0;
  int LoopsProcessed = 0;
  int RefsReplaced = 0;
};

/// Replaces references invariant in loop \p InnerVar (every occurrence)
/// with registers, inserting loads before and stores after the loop.
/// Only direct Compute statements of the loop body are considered.
ScalarReplaceStats scalarReplaceInvariant(LoopNest &Nest, SymbolId InnerVar);

/// Rotating replacement along loop \p InnerVar (every occurrence) for
/// read-only reference chains. A reference that appears several times per
/// iteration without forming a chain is also registered (one load instead
/// of several).
ScalarReplaceStats rotatingScalarReplace(LoopNest &Nest, SymbolId InnerVar);

} // namespace eco

#endif // ECO_TRANSFORM_SCALARREPLACE_H
