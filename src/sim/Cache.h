//===- sim/Cache.h - Set-associative LRU cache model -----------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative LRU cache model. Each resident line carries a
/// ready-cycle so that non-blocking prefetches can fill a line "in flight":
/// a demand access that arrives before the line is ready stalls only for
/// the remaining cycles. This is what makes the paper's prefetch-distance
/// search (Section 3.2) meaningful in simulation — too-short distances pay
/// partial stalls, long-enough distances hide the full latency.
///
/// Replacement state is an age-stamp (clock) representation of exact LRU:
/// every touch stamps the way with a monotonically increasing counter, and
/// the fill victim is the way with the smallest stamp. This is
/// semantically identical to the classic recency-ordered representation
/// (the seed kept ways sorted MRU-first and shifted up to Assoc entries on
/// every hit and fill — see sim/GoldenSim.h for that frozen model), but a
/// hit now costs one store instead of a memmove, which matters because the
/// simulator's probe loop *is* the empirical search's hot path.
///
/// Stamps leave resident lines at stable way positions, so a plain tag
/// scan averages Assoc/2 compares — a regression against the seed for the
/// 64-entry fully-associative TLB, where MRU ordering kept hot pages at
/// the front of the scan. Wide caches therefore carry a way-hint table: a
/// small hash-indexed array mapping a line to the way that last held it.
/// A correct hint resolves a hit in O(1); a stale or colliding hint just
/// falls back to the scan. Hints only short-circuit a lookup that would
/// have succeeded anyway — replacement state, counters, and timings are
/// unaffected, and the trace-equivalence suite (tests/test_sim_equiv.cpp)
/// proves HWCounters stay bit-identical to the seed.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SIM_CACHE_H
#define ECO_SIM_CACHE_H

#include "machine/MachineDesc.h"

#include <cstdint>
#include <vector>

namespace eco {

/// Result of probing one cache level.
struct CacheProbe {
  bool Hit = false;
  double ReadyCycle = 0; ///< valid on hit: when the line's data arrives
};

/// One level of set-associative cache with true-LRU replacement.
class SetAssocCache {
public:
  explicit SetAssocCache(const CacheLevelDesc &Desc);

  /// Probes and, on hit, promotes the line to MRU. Does not fill on miss;
  /// callers fill explicitly so they control the ready cycle. Defined
  /// below, in the header, so the executor's L1-hit path inlines it.
  CacheProbe access(uint64_t Addr);

  /// Inserts the line holding \p Addr (evicting LRU if needed), marking its
  /// data available at \p ReadyCycle. If already resident, just updates
  /// recency (and ready time if the new one is earlier).
  void fill(uint64_t Addr, double ReadyCycle);

  /// True if the line holding \p Addr is resident. Purely observational:
  /// no recency update, so non-destructive probes (prefetch filtering,
  /// white-box tests) cannot perturb replacement state.
  bool contains(uint64_t Addr) const;

  /// Empties the cache.
  void reset();

  unsigned lineBytes() const { return Desc.LineBytes; }
  uint64_t numSets() const { return Sets; }
  unsigned assoc() const { return Desc.Assoc; }

  /// The line-granular tag for an address (address / line size); a shift
  /// when the line size is a power of two.
  uint64_t lineOf(uint64_t Addr) const {
    return LineShift >= 0 ? Addr >> LineShift : Addr / Desc.LineBytes;
  }

private:
  CacheLevelDesc Desc;
  uint64_t Sets;
  int LineShift = -1;     ///< log2(LineBytes) when a power of two, else -1
  int64_t SetMask = -1;   ///< Sets - 1 when a power of two, else -1

  /// Way state, structure-of-arrays (Sets x Assoc each): the tag scan in
  /// access() touches only Lines, so a probe walks one dense array.
  /// Invalid ways hold Line = ~0 and Stamp = 0; valid ways always carry a
  /// stamp >= 1, so empty ways are preferred victims automatically.
  std::vector<uint64_t> Lines;
  std::vector<double> Ready;
  std::vector<uint64_t> Stamps;
  uint64_t Clock = 0; ///< per-cache LRU clock; bumped on every touch

  /// Way-hint table (wide caches only, empty otherwise): Fibonacci-hashed
  /// line -> global way index that last held it. Purely an accelerator —
  /// every use re-validates against Lines before trusting it.
  std::vector<uint32_t> Hint;
  int HintShift = 0; ///< 64 - log2(Hint.size())

  uint64_t setOf(uint64_t Line) const {
    return SetMask >= 0 ? (Line & static_cast<uint64_t>(SetMask))
                        : Line % Sets;
  }

  size_t hintSlot(uint64_t Line) const {
    return static_cast<size_t>((Line * 0x9E3779B97F4A7C15ULL) >> HintShift);
  }
};

inline CacheProbe SetAssocCache::access(uint64_t Addr) {
  uint64_t Line = lineOf(Addr);
  if (!Hint.empty()) {
    // O(1) fast path: a validated hint is exactly the way the scan would
    // find (a line is resident in at most one way).
    uint32_t W = Hint[hintSlot(Line)];
    if (W < Lines.size() && Lines[W] == Line) {
      Stamps[W] = ++Clock;
      return {/*Hit=*/true, Ready[W]};
    }
  }
  size_t Base = setOf(Line) * Desc.Assoc;
  for (unsigned W = 0; W < Desc.Assoc; ++W) {
    if (Lines[Base + W] != Line)
      continue;
    // Promote to MRU: one stamp store (the seed shifted up to Assoc ways).
    Stamps[Base + W] = ++Clock;
    if (!Hint.empty())
      Hint[hintSlot(Line)] = static_cast<uint32_t>(Base + W);
    return {/*Hit=*/true, Ready[Base + W]};
  }
  return {/*Hit=*/false, 0};
}

} // namespace eco

#endif // ECO_SIM_CACHE_H
