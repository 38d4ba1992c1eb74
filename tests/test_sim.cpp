//===- tests/test_sim.cpp - sim/ unit tests -------------------------------===//

#include "sim/MemHierarchy.h"

#include <gtest/gtest.h>

using namespace eco;

namespace {

/// A tiny 2-level machine for white-box cache tests: L1 = 4 sets x 2 ways
/// x 32B lines (256B), L2 = 1KB 2-way 64B lines.
MachineDesc tinyMachine() {
  MachineDesc M;
  M.Name = "tiny";
  M.ClockMHz = 100;
  M.Caches = {
      {"L1", 256, /*Assoc=*/2, /*LineBytes=*/32, /*HitLatency=*/0},
      {"L2", 1024, /*Assoc=*/2, /*LineBytes=*/64, /*HitLatency=*/10},
  };
  M.Tlb = {/*Entries=*/4, /*Assoc=*/4, /*PageBytes=*/4096,
           /*MissPenalty=*/25};
  M.MemLatency = 100;
  return M;
}

} // namespace

TEST(SetAssocCache, MissThenHit) {
  SetAssocCache C({"L1", 256, 2, 32, 0});
  EXPECT_FALSE(C.access(0x1000).Hit);
  C.fill(0x1000, 0);
  EXPECT_TRUE(C.access(0x1000).Hit);
  // Same line, different byte.
  EXPECT_TRUE(C.access(0x101f).Hit);
  // Next line misses.
  EXPECT_FALSE(C.access(0x1020).Hit);
}

TEST(SetAssocCache, LruEviction) {
  // 4 sets x 2 ways x 32B lines. Lines 0, 4, 8 (x32B spacing by set
  // count * line) all map to set 0.
  SetAssocCache C({"L1", 256, 2, 32, 0});
  uint64_t SetStride = C.numSets() * C.lineBytes(); // 128
  C.fill(0 * SetStride, 0);
  C.fill(1 * SetStride, 0);
  EXPECT_TRUE(C.access(0 * SetStride).Hit); // 0 now MRU
  C.fill(2 * SetStride, 0);                 // evicts 1 (LRU)
  EXPECT_TRUE(C.access(0 * SetStride).Hit);
  EXPECT_FALSE(C.access(1 * SetStride).Hit);
  EXPECT_TRUE(C.access(2 * SetStride).Hit);
}

TEST(SetAssocCache, DirectMappedConflicts) {
  SetAssocCache C({"L1", 128, 1, 32, 0}); // 4 sets x 1 way
  uint64_t SetStride = C.numSets() * C.lineBytes(); // 128
  C.fill(0, 0);
  EXPECT_TRUE(C.access(0).Hit);
  C.fill(SetStride, 0); // same set, evicts
  EXPECT_FALSE(C.access(0).Hit);
}

TEST(SetAssocCache, FillAfterMissTakesEmptyWayThenLruWay) {
  // fill() follows a miss of the same line: it inserts the line as MRU
  // with the given ready cycle, into an empty way while the set has one,
  // else over the LRU way.
  SetAssocCache C({"L1", 256, 2, 32, 0});
  uint64_t SetStride = C.numSets() * C.lineBytes(); // 128
  ASSERT_FALSE(C.access(0).Hit);
  C.fill(0, 100);
  ASSERT_FALSE(C.access(SetStride).Hit);
  C.fill(SetStride, 200); // the empty way: line 0 stays
  EXPECT_DOUBLE_EQ(C.access(0).ReadyCycle, 100);
  EXPECT_DOUBLE_EQ(C.access(SetStride).ReadyCycle, 200); // 0 is now LRU
  ASSERT_FALSE(C.access(2 * SetStride).Hit);
  C.fill(2 * SetStride, 300);
  EXPECT_FALSE(C.contains(0));
  EXPECT_TRUE(C.contains(SetStride));
  EXPECT_DOUBLE_EQ(C.access(2 * SetStride).ReadyCycle, 300);
}

TEST(SetAssocCache, ResetEmpties) {
  SetAssocCache C({"L1", 256, 2, 32, 0});
  C.fill(0x40, 0);
  ASSERT_TRUE(C.contains(0x40));
  C.reset();
  EXPECT_FALSE(C.contains(0x40));
}

TEST(MemHierarchy, ColdMissCostsMemLatencyPlusTlb) {
  MemHierarchySim Sim(tinyMachine());
  double Stall = Sim.access(0x10000, false, 0);
  // TLB miss (25) + memory (100).
  EXPECT_DOUBLE_EQ(Stall, 125);
  EXPECT_EQ(Sim.counters().Loads, 1u);
  EXPECT_EQ(Sim.counters().l1Misses(), 1u);
  EXPECT_EQ(Sim.counters().l2Misses(), 1u);
  EXPECT_EQ(Sim.counters().TlbMisses, 1u);
}

TEST(MemHierarchy, RepeatAccessHitsForFree) {
  MemHierarchySim Sim(tinyMachine());
  Sim.access(0x10000, false, 0);
  double Stall = Sim.access(0x10000, false, 200);
  EXPECT_DOUBLE_EQ(Stall, 0);
  EXPECT_EQ(Sim.counters().Loads, 2u);
  EXPECT_EQ(Sim.counters().l1Misses(), 1u); // no new miss
}

TEST(MemHierarchy, SameLineDifferentByteHits) {
  MemHierarchySim Sim(tinyMachine());
  Sim.access(0x10000, false, 0);
  EXPECT_DOUBLE_EQ(Sim.access(0x10008, false, 200), 0);
  EXPECT_EQ(Sim.counters().l1Misses(), 1u);
}

TEST(MemHierarchy, L2HitCostsL2Latency) {
  MachineDesc M = tinyMachine();
  MemHierarchySim Sim(M);
  // Fill L1 set 0 with 3 conflicting lines; the first one gets evicted
  // from L1 but stays in L2.
  uint64_t SetStride = 128; // L1: 4 sets x 32B
  Sim.access(0x10000, false, 0);
  Sim.access(0x10000 + SetStride, false, 1000);
  Sim.access(0x10000 + 2 * SetStride, false, 2000);
  // 0x10000 is out of L1. L2 (8 sets x 64B lines, 2-way: stride 512) still
  // holds it.
  double Stall = Sim.access(0x10000, false, 3000);
  EXPECT_DOUBLE_EQ(Stall, 10); // L2 hit latency
  EXPECT_EQ(Sim.counters().l1Misses(), 4u);
  EXPECT_EQ(Sim.counters().l2Misses(), 3u);
}

TEST(MemHierarchy, PrefetchCountsAsLoadButNeitherMissesNorStalls) {
  MemHierarchySim Sim(tinyMachine());
  double Stall = Sim.prefetch(0x10000, 0);
  EXPECT_DOUBLE_EQ(Stall, 0);
  EXPECT_EQ(Sim.counters().Loads, 1u);
  EXPECT_EQ(Sim.counters().Prefetches, 1u);
  // Miss counters see only demand traffic (Table 1 convention).
  EXPECT_EQ(Sim.counters().l1Misses(), 0u);
  EXPECT_EQ(Sim.counters().l2Misses(), 0u);
  EXPECT_EQ(Sim.counters().TlbMisses, 0u);
}

TEST(MemHierarchy, PrefetchFarEnoughHidesMemoryLatency) {
  MemHierarchySim Sim(tinyMachine());
  Sim.prefetch(0x10000, 0);
  // Demand access after the line has arrived. Prefetches stage into L2
  // (PrefetchFillLevel = 1), so the demand access pays the L2 hit
  // latency instead of the full memory latency.
  double Stall = Sim.access(0x10000, false, 500);
  EXPECT_DOUBLE_EQ(Stall, 10);
}

TEST(MemHierarchy, PrefetchIntoL1WhenConfigured) {
  MachineDesc M = tinyMachine();
  M.PrefetchFillLevel = 0;
  MemHierarchySim Sim(M);
  Sim.prefetch(0x10000, 0);
  double Stall = Sim.access(0x10000, false, 500);
  EXPECT_DOUBLE_EQ(Stall, 0);
}

TEST(MemHierarchy, PrefetchTooLatePaysPartialStall) {
  MemHierarchySim Sim(tinyMachine());
  Sim.prefetch(0x10000, 0); // staged into L2, ready at cycle 100
  double Stall = Sim.access(0x10000, false, 40);
  // The line is in flight to L2; pay the remainder (60), not the full
  // memory latency (100) — and not a fresh TLB walk.
  EXPECT_GT(Stall, 0);
  EXPECT_LT(Stall, 100);
  EXPECT_EQ(Sim.counters().l1Misses(), 1u); // the demand L1 miss
  EXPECT_EQ(Sim.counters().l2Misses(), 0u); // L2 had the line in flight
}

TEST(MemHierarchy, PrefetchDoesNotPerturbL1Lru) {
  // Regression for a fidelity bug: prefetch probed every level with a
  // recency-updating access, so an L2-targeted prefetch of a line
  // resident in L1 promoted it to MRU — real hardware filling L2 does
  // not touch L1's replacement state. Layout: X and Y conflict in L1
  // set 0 (SetStride = 4 sets x 32B = 128).
  MemHierarchySim Sim(tinyMachine()); // PrefetchFillLevel = 1 (L2)
  const uint64_t X = 0x10000, Y = X + 128, Z = X + 256;
  Sim.access(X, false, 0);    // set 0: [X]
  Sim.access(Y, false, 1000); // set 0: [Y, X] — X is LRU
  Sim.prefetch(X, 2000);      // must NOT promote X over Y
  Sim.access(Z, false, 3000); // fills set 0, evicting the true LRU: X
  EXPECT_FALSE(Sim.cacheLevel(0).contains(X));
  EXPECT_TRUE(Sim.cacheLevel(0).contains(Y)); // seed wrongly evicted Y
  EXPECT_TRUE(Sim.cacheLevel(0).contains(Z));
}

TEST(MemHierarchy, PrefetchStreamLeavesL1WorkingSetResident) {
  // A software-prefetch stream ahead of a computation (the paper's mm5 /
  // j2 versions) stages lines into L2; the L1-resident working set must
  // survive it untouched, both in residency and in LRU order.
  MemHierarchySim Sim(tinyMachine());
  std::vector<uint64_t> WorkingSet;
  for (int I = 0; I < 8; ++I) // 4 sets x 2 ways, exactly fills L1
    WorkingSet.push_back(0x20000 + I * 32);
  double Now = 0;
  for (uint64_t A : WorkingSet)
    Now += 1 + Sim.access(A, false, Now);
  for (int I = 0; I < 32; ++I) // long prefetch stream over fresh lines
    Sim.prefetch(0x40000 + I * 32, Now);
  for (uint64_t A : WorkingSet)
    EXPECT_TRUE(Sim.cacheLevel(0).contains(A)) << "addr " << std::hex << A;
  // Re-touching the set demands no stalls: everything still L1-hits.
  Now = 1e6;
  for (uint64_t A : WorkingSet)
    EXPECT_DOUBLE_EQ(Sim.access(A, false, Now), 0) << "addr " << std::hex
                                                   << A;
}

TEST(MemHierarchy, TlbMissesOncePerPage) {
  MemHierarchySim Sim(tinyMachine()); // 4 fully-assoc entries, 4KB pages
  for (int P = 0; P < 4; ++P)
    Sim.access(0x10000 + P * 4096, false, P * 1000);
  EXPECT_EQ(Sim.counters().TlbMisses, 4u);
  // Re-touch: all resident.
  for (int P = 0; P < 4; ++P)
    Sim.access(0x10000 + P * 4096 + 64, false, 10000 + P * 1000);
  EXPECT_EQ(Sim.counters().TlbMisses, 4u);
  // Fifth page evicts LRU page 0.
  Sim.access(0x10000 + 4 * 4096, false, 20000);
  EXPECT_EQ(Sim.counters().TlbMisses, 5u);
  Sim.access(0x10000, false, 21000);
  EXPECT_EQ(Sim.counters().TlbMisses, 6u);
}

TEST(MemHierarchy, SequentialStreamMissesOncePerLine) {
  MemHierarchySim Sim(tinyMachine());
  // 8 doubles per 32B L1 line... actually 4 (8B each). 64 sequential
  // doubles = 16 L1 lines = 8 L2 lines.
  for (int I = 0; I < 64; ++I)
    Sim.access(0x10000 + I * 8, false, I * 10);
  EXPECT_EQ(Sim.counters().l1Misses(), 16u);
  EXPECT_EQ(Sim.counters().l2Misses(), 8u);
  EXPECT_EQ(Sim.counters().TlbMisses, 1u);
  EXPECT_EQ(Sim.counters().Loads, 64u);
}

TEST(MemHierarchy, StoresCounted) {
  MemHierarchySim Sim(tinyMachine());
  Sim.access(0x10000, true, 0);
  Sim.access(0x10008, true, 10);
  EXPECT_EQ(Sim.counters().Stores, 2u);
  EXPECT_EQ(Sim.counters().Loads, 0u);
}

TEST(MemHierarchy, ResetClearsEverything) {
  MemHierarchySim Sim(tinyMachine());
  Sim.access(0x10000, false, 0);
  Sim.reset();
  EXPECT_EQ(Sim.counters().Loads, 0u);
  double Stall = Sim.access(0x10000, false, 0);
  EXPECT_DOUBLE_EQ(Stall, 125); // cold again
}

TEST(HWCounters, MflopsComputation) {
  HWCounters C;
  C.Flops = 1000000;
  C.IssueCycles = 500000;
  C.StallCycles = 500000;
  // 1e6 flops in 1e6 cycles at 195 MHz = 195 MFLOPS.
  EXPECT_DOUBLE_EQ(C.mflops(195), 195);
}

TEST(HWCounters, Accumulate) {
  HWCounters A, B;
  A.Loads = 10;
  A.CacheMisses[0] = 3;
  B.Loads = 5;
  B.CacheMisses[0] = 2;
  B.TlbMisses = 1;
  A += B;
  EXPECT_EQ(A.Loads, 15u);
  EXPECT_EQ(A.l1Misses(), 5u);
  EXPECT_EQ(A.TlbMisses, 1u);
}
