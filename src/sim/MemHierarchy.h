//===- sim/MemHierarchy.h - Full memory-hierarchy simulator ----*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Trace-driven simulator of a complete memory hierarchy (TLB + N cache
/// levels + memory) parameterized by a MachineDesc. This is the substitute
/// for the paper's SGI R10000 / Sun UltraSparc IIe hardware and its PAPI
/// counters (see DESIGN.md): the empirical-search phase "executes" code
/// variants against this simulator and reads back HWCounters.
///
/// Timing model:
///  * demand access: TLB miss penalty + the hit latency of the level that
///    services it (L1 hit is free, memory costs MemLatency), except that a
///    line filled by an in-flight prefetch only charges the cycles still
///    remaining until the line is ready;
///  * prefetch: counts as a load but never stalls and never shows up in
///    the miss counters — it stages the line at the machine's prefetch
///    fill level (L2 by default) with a ready-cycle in the future.
///    Levels faster than the fill target are probed non-destructively:
///    an L2-targeted prefetch cannot promote or evict L1 lines.
///
/// The demand path is branch-light: a one-entry MRU filter short-circuits
/// same-line runs, and the TLB + L1 probes are fused so the common L1 hit
/// never enters the per-level walk. sim/GoldenSim.h freezes the seed
/// model; tests/test_sim_equiv.cpp proves both produce bit-identical
/// HWCounters on randomized traces.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SIM_MEMHIERARCHY_H
#define ECO_SIM_MEMHIERARCHY_H

#include "machine/MachineDesc.h"
#include "sim/Cache.h"
#include "sim/Counters.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace eco {

/// Simulates TLB + caches + memory for a stream of addresses.
class MemHierarchySim {
public:
  explicit MemHierarchySim(const MachineDesc &M);

  /// Simulates a demand load/store of the byte at \p Addr at time \p Now
  /// (cycles). Returns the stall cycles the access incurs. Counters are
  /// updated (Loads/Stores, per-level misses, TLB misses). Defined below,
  /// in the header, so the executor's L1-hit path inlines it.
  double access(uint64_t Addr, bool IsWrite, double Now);

  /// Simulates a software prefetch of the line holding \p Addr issued at
  /// time \p Now. Never stalls; returns 0 for convenience.
  double prefetch(uint64_t Addr, double Now);

  /// Counter access.
  HWCounters &counters() { return Counters; }
  const HWCounters &counters() const { return Counters; }

  /// Clears caches, TLB, and counters.
  void reset();

  const MachineDesc &machine() const { return Machine; }

  /// Direct cache access for white-box tests.
  SetAssocCache &cacheLevel(unsigned Level) {
    assert(Level < Caches.size());
    return Caches[Level];
  }
  SetAssocCache &tlb() { return Tlb; }

private:
  /// Walks the cache levels for \p Addr starting at \p StartLevel (the
  /// demand path probes L1 inline and enters at 1 on a miss), filling
  /// every missing level from \p FillFromLevel outward with a ready time
  /// of Now + stall. Returns the stall a demand access pays; a prefetch
  /// ignores the return value and thereby leaves the fill "in flight".
  /// Prefetch walks pass CountMisses = false: hardware miss counters see
  /// only demand traffic (the paper's Table 1 shows prefetching adding
  /// loads while miss counts stay flat).
  double walkCaches(uint64_t Addr, double Now, unsigned StartLevel = 0,
                    unsigned FillFromLevel = 0, bool CountMisses = true);

  static CacheLevelDesc tlbAsCache(const TlbDesc &T);

  MachineDesc Machine;
  std::vector<SetAssocCache> Caches;
  SetAssocCache Tlb; ///< modeled as a cache whose "lines" are pages
  HWCounters Counters;

  /// Hot-path constants hoisted out of MachineDesc at construction.
  double L1HitLatency = 0;
  double TlbMissPenalty = 0;
  unsigned PrefetchFillFrom = 0; ///< clamped Machine.PrefetchFillLevel

  /// One-entry MRU filter: repeated accesses to the same L1 line (the
  /// dominant pattern in dense loops) skip the full walk. Exact: repeated
  /// hits on the MRU line change no LRU state. Invalidated by any other
  /// access or prefetch.
  uint64_t LastL1Line = ~0ULL;
  uint64_t LastPage = ~0ULL;
};

inline double MemHierarchySim::access(uint64_t Addr, bool IsWrite,
                                      double Now) {
  if (IsWrite)
    ++Counters.Stores;
  else
    ++Counters.Loads;

  // Fast path: same L1 line and page as the previous access. Exact
  // w.r.t. LRU state and, since a prior demand access already waited for
  // the line, free of residual stall.
  uint64_t L1Line = Caches.front().lineOf(Addr);
  uint64_t Page = Tlb.lineOf(Addr);
  if (L1Line == LastL1Line && Page == LastPage)
    return 0;

  // Fused TLB + L1 probe: the dominant post-filter pattern in dense
  // loops is a new line (or new array) that still hits L1, so the hit
  // path runs straight through here without entering the level walk.
  double Stall = 0;
  if (Page != LastPage) {
    CacheProbe TlbProbe = Tlb.access(Addr);
    if (!TlbProbe.Hit) {
      ++Counters.TlbMisses;
      Stall += TlbMissPenalty;
      Tlb.fill(Addr, /*ReadyCycle=*/0);
    }
    LastPage = Page;
  }
  LastL1Line = L1Line;

  CacheProbe L1Probe = Caches.front().access(Addr);
  if (L1Probe.Hit) {
    // Same arithmetic as the walk's hit case, inlined for the fast path.
    double HitStall = std::max<double>(L1HitLatency,
                                       L1Probe.ReadyCycle - (Now + Stall));
    return Stall + std::max(HitStall, 0.0);
  }
  ++Counters.CacheMisses[0];
  Stall += walkCaches(Addr, Now + Stall, /*StartLevel=*/1);
  return Stall;
}

} // namespace eco

#endif // ECO_SIM_MEMHIERARCHY_H
