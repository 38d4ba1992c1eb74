//===- sim/GoldenSim.h - Frozen seed simulator (exactness oracle) -*- C++ -*-//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A frozen copy of the seed memory-hierarchy model, kept as the golden
/// oracle for the production simulator's exactness contract:
///
///  * GoldenCache keeps the seed's recency-ordered LRU representation —
///    within a set, index 0 is MRU and index Assoc-1 is LRU, so every hit
///    and fill shifts up to Assoc Way entries. The production
///    SetAssocCache replaced this with age stamps (sim/Cache.h); the two
///    must be observationally identical.
///  * GoldenMemHierarchySim keeps the seed's uniform probe-from-L1 walk
///    (the production simulator fuses the TLB + L1 probe into a
///    branch-light fast path).
///
/// Divergence policy: this model is byte-faithful to the seed for all
/// demand traffic. The one deliberate difference is the PR-2 prefetch
/// fidelity fix — a prefetch targeting level FillFromLevel probes the
/// faster levels non-destructively instead of promoting a resident L1
/// line to MRU — which is applied to BOTH models so the randomized
/// trace-equivalence suite (tests/test_sim_equiv.cpp) can cover prefetch
/// streams too. The seed's buggy behavior is characterized separately in
/// tests/test_sim.cpp (PrefetchDoesNotPerturbL1Lru).
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SIM_GOLDENSIM_H
#define ECO_SIM_GOLDENSIM_H

#include "machine/MachineDesc.h"
#include "sim/Cache.h"
#include "sim/Counters.h"

#include <cstdint>
#include <vector>

namespace eco {

/// The seed's set-associative LRU cache: ways stored in recency order.
class GoldenCache {
public:
  explicit GoldenCache(const CacheLevelDesc &Desc);

  CacheProbe access(uint64_t Addr);
  void fill(uint64_t Addr, double ReadyCycle);
  bool contains(uint64_t Addr) const;
  void reset();

  unsigned lineBytes() const { return Desc.LineBytes; }
  uint64_t numSets() const { return Sets; }
  uint64_t lineOf(uint64_t Addr) const { return Addr / Desc.LineBytes; }

private:
  struct Way {
    uint64_t Line = ~0ULL; ///< line number, ~0 = invalid
    double Ready = 0;
  };

  CacheLevelDesc Desc;
  uint64_t Sets;
  /// Sets x Assoc entries; within a set, index 0 is MRU, Assoc-1 is LRU.
  std::vector<Way> Ways;

  uint64_t setOf(uint64_t Line) const { return Line % Sets; }
};

/// The seed's TLB + caches + memory walk over GoldenCache levels.
class GoldenMemHierarchySim {
public:
  explicit GoldenMemHierarchySim(const MachineDesc &M);

  /// Same contract as MemHierarchySim::access.
  double access(uint64_t Addr, bool IsWrite, double Now);

  /// Same contract as MemHierarchySim::prefetch.
  double prefetch(uint64_t Addr, double Now);

  HWCounters &counters() { return Counters; }
  const HWCounters &counters() const { return Counters; }

  void reset();

private:
  double walkCaches(uint64_t Addr, double Now, unsigned FillFromLevel = 0,
                    bool CountMisses = true);

  static CacheLevelDesc tlbAsCache(const TlbDesc &T);

  MachineDesc Machine;
  std::vector<GoldenCache> Caches;
  GoldenCache Tlb;
  HWCounters Counters;

  uint64_t LastL1Line = ~0ULL;
  uint64_t LastPage = ~0ULL;
};

} // namespace eco

#endif // ECO_SIM_GOLDENSIM_H
