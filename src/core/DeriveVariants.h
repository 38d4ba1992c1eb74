//===- core/DeriveVariants.h - Phase 1: derive variants --------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 3 algorithm: walk the memory hierarchy from
/// registers outward; at each level pick the loop(s) carrying the most
/// unexploited reuse (ties fork variants), decide what to unroll / tile /
/// copy, and record parameter constraints from the footprint models.
///
/// Level rules (validated against Table 4 and Figures 1-2):
///  * registers: the most-temporal-reuse loop goes innermost (no spatial
///    tie-break), all other loops get unroll-and-jam, the retained family
///    is register-allocated, and the unroll product is bounded by the
///    register file;
///  * cache level with loop l: tile the not-yet-assigned loops other than
///    l, plus any already-placed loop inside l whose variable appears in
///    the retained family's subscripts (this is how TK joins both MM
///    variants); the retained family's tile footprint is bounded by
///    (n-1)/n of the level's capacity and its page footprint by the TLB;
///  * each cache level forks a with-copy variant when the retained tile
///    is fully tiled with offset-free subscripts (CreateCopyVariant);
///  * optionally forks a "TLB-pruned" tiling that leaves the contiguous
///    dimension untiled for rank >= 3 arrays — the paper's Jacobi pruning
///    discussion (Section 4.2), which yields exactly Figure 2(b)'s shape.
///
/// Loop order: levels push loops innermost-outward (register loop first);
/// tile-controlling loops are then ordered outermost — sorted by the
/// outermost level whose constraint involves their tile parameter, tie
/// broken so the control of the retained array's contiguous dimension
/// goes outer (the paper's TLB-guided control ordering).
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CORE_DERIVEVARIANTS_H
#define ECO_CORE_DERIVEVARIANTS_H

#include "core/Variant.h"

namespace eco {

/// Hard cap on derived variants (derivation order is stable).
inline constexpr size_t MaxDerivedVariants = 24;

/// Knobs for variant derivation.
struct DeriveOptions {
  int64_t RepresentativeSize = 256; ///< problem size for trip-count models
  /// True once the caller pinned RepresentativeSize explicitly (via
  /// setRepresentativeSize). eco::tune substitutes the actual problem
  /// size only while this is false — sentinel-comparing against the
  /// default (the old behavior) stomped explicit overrides as soon as a
  /// second, larger problem binding was folded in.
  bool RepresentativeSizeSet = false;
  bool ForkCopyVariants = true;

  /// Pins the representative size; eco::tune will not override it.
  void setRepresentativeSize(int64_t Size) {
    RepresentativeSize = Size;
    RepresentativeSizeSet = true;
  }
};

/// Derives the parameterized variants of \p Original for \p Machine.
///
/// If the nest is not provably fully permutable, a single untransformed
/// variant is returned (the compiler must not speculate).
///
/// \p RejectedOut (optional) receives the number of tiling/ordering
/// plans pruned because a transform refused them (TransformError) — the
/// derivation-time half of the paper's model-pruning story, surfaced so
/// TuneResult and the flight recorder can account for every plan.
std::vector<DerivedVariant> deriveVariants(const LoopNest &Original,
                                           const MachineDesc &Machine,
                                           const DeriveOptions &Opts = {},
                                           size_t *RejectedOut = nullptr);

} // namespace eco

#endif // ECO_CORE_DERIVEVARIANTS_H
