//===- sim/MemHierarchy.cpp - Full memory-hierarchy simulator ------------===//

#include "sim/MemHierarchy.h"

#include <algorithm>
#include <cassert>

using namespace eco;

CacheLevelDesc MemHierarchySim::tlbAsCache(const TlbDesc &T) {
  CacheLevelDesc D;
  D.Name = "TLB";
  D.CapacityBytes = static_cast<uint64_t>(T.Entries) * T.PageBytes;
  D.Assoc = T.Assoc;
  D.LineBytes = static_cast<unsigned>(T.PageBytes);
  D.HitLatency = 0;
  return D;
}

MemHierarchySim::MemHierarchySim(const MachineDesc &M)
    : Machine(M), Tlb(tlbAsCache(M.Tlb)) {
  assert(!M.Caches.empty() && "machine must have at least one cache level");
  assert(M.Caches.size() <= MaxCacheLevels && "too many cache levels");
  Caches.reserve(M.Caches.size()); // every eval builds one: no regrowth
  for (const CacheLevelDesc &Level : M.Caches)
    Caches.emplace_back(Level);
  L1HitLatency = M.Caches.front().HitLatency;
  TwoLevel = M.Caches.size() == 2;
  L2HitLatency = TwoLevel ? M.Caches[1].HitLatency : 0;
  MemLatency = M.MemLatency;
  TlbMissPenalty = M.Tlb.MissPenalty;
  PrefetchFillFrom = std::min<unsigned>(
      Machine.PrefetchFillLevel,
      static_cast<unsigned>(Caches.size()) - 1);
}

void MemHierarchySim::reset() {
  for (SetAssocCache &C : Caches)
    C.reset();
  Tlb.reset();
  Counters = HWCounters();
  LastL1Line = ~0ULL;
  LastPage = ~0ULL;
}

double MemHierarchySim::walkCaches(uint64_t Addr, double Now,
                                   unsigned StartLevel,
                                   unsigned FillFromLevel,
                                   bool CountMisses) {
  // Probe from StartLevel outward until a level hits.
  for (unsigned Level = StartLevel; Level < Caches.size(); ++Level) {
    CacheProbe Probe = Caches[Level].access(Addr);
    if (!Probe.Hit) {
      if (CountMisses)
        ++Counters.CacheMisses[Level];
      continue;
    }
    double Stall = std::max<double>(Machine.Caches[Level].HitLatency,
                                    Probe.ReadyCycle - Now);
    Stall = std::max(Stall, 0.0);
    // Fill the faster levels with the line; data is there once the stall
    // (or the in-flight prefetch) completes.
    double Ready = Now + Stall;
    for (unsigned Upper = FillFromLevel; Upper < Level; ++Upper)
      Caches[Upper].fill(Addr, Ready);
    return Stall;
  }
  // Missed everywhere: go to memory.
  double Stall = Machine.MemLatency;
  double Ready = Now + Stall;
  for (unsigned Level = FillFromLevel; Level < Caches.size(); ++Level)
    Caches[Level].fill(Addr, Ready);
  return Stall;
}

double MemHierarchySim::missTwoLevel(uint64_t Addr, double Now) {
  // walkCaches(Addr, Now, /*StartLevel=*/1) for two levels, unrolled.
  CacheProbe Probe = Caches[1].access(Addr);
  if (Probe.Hit) {
    double Stall = std::max<double>(L2HitLatency, Probe.ReadyCycle - Now);
    Stall = std::max(Stall, 0.0);
    Caches[0].fill(Addr, Now + Stall);
    return Stall;
  }
  ++Counters.CacheMisses[1];
  double Ready = Now + MemLatency;
  Caches[0].fill(Addr, Ready);
  Caches[1].fill(Addr, Ready);
  return MemLatency;
}

double MemHierarchySim::prefetch(uint64_t Addr, double Now) {
  // PAPI convention (Table 1): the prefetch instruction is a load, but
  // the hardware miss counters see only demand traffic — prefetching
  // raises Loads while L1/L2/TLB miss counts stay essentially flat.
  ++Counters.Prefetches;
  ++Counters.Loads;

  CacheProbe TlbProbe = Tlb.access(Addr);
  if (!TlbProbe.Hit)
    Tlb.fill(Addr, /*ReadyCycle=*/0);

  // The L1-line MRU filter must not short-circuit the next demand access
  // to this line (it may still need to pay the in-flight remainder).
  LastL1Line = ~0ULL;

  // A prefetch targets PrefetchFillFrom (L2 by default): levels faster
  // than the target are probed non-destructively, because a fill staged
  // in L2 must not promote or evict anything in L1 — the seed probed L1
  // with a recency-updating access here, so an L2-targeted prefetch of a
  // line resident in L1 reordered the L1 LRU stack in a way real
  // hardware would not (see tests/test_sim.cpp PrefetchDoesNotPerturbL1Lru).
  for (unsigned Level = 0; Level < PrefetchFillFrom; ++Level)
    if (Caches[Level].contains(Addr))
      return 0; // already resident somewhere faster: nothing to stage

  // The prefetched data arrives after the cycles a demand access would
  // have stalled; walkCaches stamps the filled lines with that ready time,
  // so a demand access arriving earlier pays only the remainder.
  walkCaches(Addr, Now, /*StartLevel=*/PrefetchFillFrom, PrefetchFillFrom,
             /*CountMisses=*/false);
  return 0;
}
