//===- transform/Prefetch.h - Software prefetch insertion ------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Software prefetch insertion for one data structure at a time, exactly
/// as the paper's search phase adds them (Section 3.2): prefetches for the
/// given array are placed at the top of the innermost loop's body, with
/// the inner variable advanced by the prefetch distance. Distinct
/// references are deduplicated at cache-line granularity along the
/// contiguous dimension — A[I..I+UI-1, K] needs one prefetch per line,
/// not one per unrolled copy.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_TRANSFORM_PREFETCH_H
#define ECO_TRANSFORM_PREFETCH_H

#include "ir/Loop.h"

namespace eco {

/// Inserts prefetches for \p Target into every occurrence of loop
/// \p InnerVar. \p Distance is in iterations of that loop; \p LineElems
/// is the cache-line length in elements used for deduplication. Returns
/// the number of prefetch statements inserted per main-body iteration.
int insertPrefetch(LoopNest &Nest, ArrayId Target, SymbolId InnerVar,
                   int Distance, int LineElems);

} // namespace eco

#endif // ECO_TRANSFORM_PREFETCH_H
