//===- sim/Cache.cpp - Set-associative LRU cache model --------------------===//

#include "sim/Cache.h"

#include <algorithm>
#include <cassert>

using namespace eco;

namespace {

/// log2(V) when V is a power of two, else -1.
int log2Exact(uint64_t V) {
  if (V == 0 || (V & (V - 1)) != 0)
    return -1;
  int Shift = 0;
  while ((V >> Shift) != 1)
    ++Shift;
  return Shift;
}

} // namespace

SetAssocCache::SetAssocCache(const CacheLevelDesc &D) : Desc(D) {
  assert(Desc.LineBytes > 0 && "line size must be positive");
  assert(Desc.Assoc > 0 && "associativity must be positive");
  Sets = Desc.numSets();
  assert(Sets > 0 && "capacity smaller than one set");
  LineShift = log2Exact(Desc.LineBytes);
  SetMask = log2Exact(Sets) >= 0 ? static_cast<int64_t>(Sets - 1) : -1;
  Lines.assign(Sets * Desc.Assoc, ~0ULL);
  Ready.assign(Sets * Desc.Assoc, 0.0);
  Stamps.assign(Sets * Desc.Assoc, 0);

  // Wide sets (the fully-associative TLB above all) get a way-hint table
  // sized ~4x the way count so hash collisions stay rare; narrow sets
  // resolve in a couple of compares anyway.
  if (Desc.Assoc >= 8) {
    size_t Slots = 64;
    while (Slots < 4 * Lines.size())
      Slots *= 2;
    Hint.assign(Slots, UINT32_MAX);
    HintShift = 64;
    while ((size_t(1) << (64 - HintShift)) < Slots)
      --HintShift;
  }
}

void SetAssocCache::fill(uint64_t Addr, double ReadyCycle) {
  uint64_t Line = lineOf(Addr);
  size_t Base = setOf(Line) * Desc.Assoc;
  unsigned Victim = 0;
  uint64_t Oldest = ~0ULL;
  for (unsigned W = 0; W < Desc.Assoc; ++W) {
    if (Lines[Base + W] == Line) {
      // Re-fill of a resident line: refresh recency, keep the earlier
      // ready time (a later fill must not delay data already in flight).
      Stamps[Base + W] = ++Clock;
      Ready[Base + W] = std::min(ReadyCycle, Ready[Base + W]);
      return;
    }
    if (Stamps[Base + W] < Oldest) {
      Oldest = Stamps[Base + W];
      Victim = W;
    }
  }
  // Victim is the smallest stamp: an empty way if one exists (stamp 0),
  // otherwise the exact-LRU way. Distinct valid ways never tie — stamps
  // are unique — and empty ways are interchangeable.
  Lines[Base + Victim] = Line;
  Ready[Base + Victim] = ReadyCycle;
  Stamps[Base + Victim] = ++Clock;
  if (!Hint.empty())
    Hint[hintSlot(Line)] = static_cast<uint32_t>(Base + Victim);
}

bool SetAssocCache::contains(uint64_t Addr) const {
  uint64_t Line = lineOf(Addr);
  size_t Base = setOf(Line) * Desc.Assoc;
  for (unsigned W = 0; W < Desc.Assoc; ++W)
    if (Lines[Base + W] == Line)
      return true;
  return false;
}

void SetAssocCache::reset() {
  std::fill(Lines.begin(), Lines.end(), ~0ULL);
  std::fill(Ready.begin(), Ready.end(), 0.0);
  std::fill(Stamps.begin(), Stamps.end(), 0);
  std::fill(Hint.begin(), Hint.end(), UINT32_MAX);
  Clock = 0;
}
