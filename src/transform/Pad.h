//===- transform/Pad.h - Array padding -------------------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Array padding (Bacon et al., cited as [1] in the paper): enlarging an
/// array's leading dimension so that pathologically-strided rows/planes
/// stop aliasing in set-associative caches. The paper notes for Jacobi
/// that "array padding can be used to stabilize this behavior" — the
/// conflict-miss craters both ECO and the native compiler show at
/// power-of-two sizes.
///
/// Padding only changes the address mapping: subscript ranges and
/// computed values are untouched (the padded elements are never
/// referenced), so it composes with every other transformation.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_TRANSFORM_PAD_H
#define ECO_TRANSFORM_PAD_H

#include "ir/Loop.h"

namespace eco {

/// Adds \p PadPerDim[d] to dimension d of every rank>=2 data array in
/// \p Nest (entries beyond an array's rank are ignored). Copy buffers are
/// left alone — they are contiguous by construction. A small empirical
/// search over these pads is how "manual experiments" stabilize
/// conflict-prone sizes. Returns the number of arrays padded.
int padDims(LoopNest &Nest, const std::vector<int64_t> &PadPerDim);

} // namespace eco

#endif // ECO_TRANSFORM_PAD_H
