//===- tests/test_sim_equiv.cpp - Golden-model equivalence fuzzing --------===//
//
// The PR that introduced the stamp-based LRU and the fused TLB+L1 demand
// path promised bit-identical HWCounters. This suite enforces it: every
// access stream is replayed through the frozen seed implementation
// (sim/GoldenSim.h) and the production simulator side by side, asserting
// the returned stall of every single access and every counter field are
// exactly equal — across direct-mapped, 2-way, and 8-way geometries,
// non-power-of-two set counts, prefetch streams, and the paper's scaled
// machine models.
//
//===----------------------------------------------------------------------===//

#include "machine/MachineDesc.h"
#include "sim/GoldenSim.h"
#include "sim/MemHierarchy.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace eco;

namespace {

/// One simulated memory operation.
struct Op {
  uint64_t Addr;
  enum Kind : uint8_t { Load, Store, Prefetch } K;
};

void expectCountersEqual(const HWCounters &G, const HWCounters &N,
                         const std::string &Ctx) {
  EXPECT_EQ(G.Loads, N.Loads) << Ctx;
  EXPECT_EQ(G.Stores, N.Stores) << Ctx;
  EXPECT_EQ(G.Prefetches, N.Prefetches) << Ctx;
  for (unsigned L = 0; L < MaxCacheLevels; ++L)
    EXPECT_EQ(G.CacheMisses[L], N.CacheMisses[L]) << Ctx << " level " << L;
  EXPECT_EQ(G.TlbMisses, N.TlbMisses) << Ctx;
  EXPECT_EQ(G.IssueCycles, N.IssueCycles) << Ctx;
  EXPECT_EQ(G.StallCycles, N.StallCycles) << Ctx;
}

/// Replays \p Ops through both models with a realistic advancing clock
/// (Now grows by 1 + stall) and requires exact agreement per access.
void replayBoth(const MachineDesc &M, const std::vector<Op> &Ops,
                const std::string &Ctx) {
  GoldenMemHierarchySim Golden(M);
  MemHierarchySim Sim(M);
  double Now = 0;
  for (size_t I = 0; I < Ops.size(); ++I) {
    const Op &O = Ops[I];
    double GS, NS;
    if (O.K == Op::Prefetch) {
      GS = Golden.prefetch(O.Addr, Now);
      NS = Sim.prefetch(O.Addr, Now);
    } else {
      GS = Golden.access(O.Addr, O.K == Op::Store, Now);
      NS = Sim.access(O.Addr, O.K == Op::Store, Now);
    }
    ASSERT_EQ(GS, NS) << Ctx << " op " << I << " addr 0x" << std::hex
                      << O.Addr;
    Now += 1 + GS;
  }
  expectCountersEqual(Golden.counters(), Sim.counters(), Ctx);
}

/// Address streams are drawn from a window sized a few multiples of L2,
/// quantized to a mix of strides, so set conflicts, evictions, and
/// same-line runs all occur at realistic rates.
std::vector<Op> randomStream(Rng &R, const MachineDesc &M, size_t Len) {
  std::vector<Op> Ops;
  Ops.reserve(Len);
  uint64_t Window = M.Caches.back().CapacityBytes * 4;
  uint64_t Addr = 0x10000 + static_cast<uint64_t>(R.nextInt(0, 1 << 16));
  for (size_t I = 0; I < Len; ++I) {
    switch (R.nextInt(0, 3)) {
    case 0: // fresh random address (tests conflict handling)
      Addr = 0x10000 +
             static_cast<uint64_t>(R.nextInt(0, (int64_t)Window));
      break;
    case 1: // short stride (same-line runs exercise the MRU filter)
      Addr += static_cast<uint64_t>(R.nextInt(0, 16));
      break;
    case 2: // line-ish stride
      Addr += static_cast<uint64_t>(R.nextInt(1, 4)) * M.Caches[0].LineBytes;
      break;
    default: // page jump (TLB pressure)
      Addr += static_cast<uint64_t>(M.Tlb.PageBytes) *
              static_cast<uint64_t>(R.nextInt(1, 6));
      break;
    }
    Op::Kind K = Op::Load;
    if (R.nextBool(0.15))
      K = Op::Prefetch;
    else if (R.nextBool(0.3))
      K = Op::Store;
    Ops.push_back({Addr, K});
  }
  return Ops;
}

std::vector<std::pair<std::string, MachineDesc>> geometries() {
  std::vector<std::pair<std::string, MachineDesc>> Ms;

  MachineDesc Tiny;
  Tiny.Name = "tiny2way";
  Tiny.ClockMHz = 100;
  Tiny.Caches = {{"L1", 256, 2, 32, 0}, {"L2", 1024, 2, 64, 10}};
  Tiny.Tlb = {4, 4, 4096, 25};
  Tiny.MemLatency = 100;
  Ms.emplace_back(Tiny.Name, Tiny);

  MachineDesc Direct = Tiny;
  Direct.Name = "directmapped";
  Direct.Caches = {{"L1", 256, 1, 32, 0}, {"L2", 2048, 1, 64, 12}};
  Ms.emplace_back(Direct.Name, Direct);

  MachineDesc Wide = Tiny;
  Wide.Name = "8way";
  Wide.Caches = {{"L1", 2048, 8, 32, 1}, {"L2", 16384, 4, 128, 8}};
  Wide.Tlb = {8, 8, 4096, 30};
  Ms.emplace_back(Wide.Name, Wide);

  // Non-power-of-two set count (256*3 bytes / 2 ways / 32B = 12 sets)
  // forces the modulo/divide fallback paths in the new representation.
  MachineDesc Odd = Tiny;
  Odd.Name = "npot-sets";
  Odd.Caches = {{"L1", 768, 2, 32, 0}, {"L2", 6144, 3, 64, 9}};
  Ms.emplace_back(Odd.Name, Odd);

  MachineDesc PfL1 = Tiny;
  PfL1.Name = "prefetch-to-l1";
  PfL1.PrefetchFillLevel = 0;
  Ms.emplace_back(PfL1.Name, PfL1);

  MachineDesc Sgi = MachineDesc::sgiR10000().scaledBy(16);
  Ms.emplace_back("sgi-r10000/16", Sgi);

  MachineDesc Sun = MachineDesc::ultraSparcIIe().scaledBy(16);
  Ms.emplace_back("sun-ultra2e/16", Sun);

  return Ms;
}

} // namespace

TEST(SimEquivalence, RandomStreamsBitIdenticalAcrossGeometries) {
  // ~7 geometries x 300 streams x 250 ops: a few hundred thousand
  // accesses of differential coverage per run, deterministic by seed.
  for (const auto &[Name, M] : geometries()) {
    Rng R(0xC0FFEE ^ std::hash<std::string>{}(Name));
    for (int Stream = 0; Stream < 300; ++Stream) {
      std::vector<Op> Ops = randomStream(R, M, 250);
      replayBoth(M, Ops,
                 Name + " stream " + std::to_string(Stream));
      if (::testing::Test::HasFatalFailure())
        return; // first divergence is the informative one
    }
  }
}

TEST(SimEquivalence, AdversarialSetConflictStreams) {
  // Everything lands in one set: LRU order is the whole story, so any
  // replacement divergence between the shifting and stamp models shows
  // immediately.
  for (const auto &[Name, M] : geometries()) {
    uint64_t SetStride =
        (M.Caches[0].CapacityBytes / M.Caches[0].Assoc); // sets x line
    Rng R(0xDEADBEEF);
    for (int Stream = 0; Stream < 64; ++Stream) {
      std::vector<Op> Ops;
      for (int I = 0; I < 400; ++I) {
        uint64_t Addr =
            0x40000 + static_cast<uint64_t>(R.nextInt(0, 12)) * SetStride;
        Op::Kind K = R.nextBool(0.2) ? Op::Prefetch
                     : R.nextBool(0.4) ? Op::Store
                                       : Op::Load;
        Ops.push_back({Addr, K});
      }
      replayBoth(M, Ops, Name + " conflict stream " + std::to_string(Stream));
      if (::testing::Test::HasFatalFailure())
        return;
    }
  }
}

TEST(SimEquivalence, DgemmLikeTraceBitIdentical) {
  // Col-major dgemm ijk with A/B/C interleaved per iteration, plus a
  // software prefetch stream on B — the access pattern the search's hot path
  // simulates millions of times.
  MachineDesc M = MachineDesc::sgiR10000().scaledBy(16);
  const uint64_t ABase = 1 << 20, BBase = 2 << 20, CBase = 3 << 20;
  const int N = 48;
  std::vector<Op> Ops;
  for (int K = 0; K < N; ++K)
    for (int J = 0; J < N; ++J) {
      Ops.push_back({BBase + 8ULL * (K + J * N), Op::Load});
      if (J + 4 < N)
        Ops.push_back({BBase + 8ULL * (K + (J + 4) * N), Op::Prefetch});
      for (int I = 0; I < N; ++I) {
        Ops.push_back({ABase + 8ULL * (I + K * N), Op::Load});
        Ops.push_back({CBase + 8ULL * (I + J * N), Op::Load});
        Ops.push_back({CBase + 8ULL * (I + J * N), Op::Store});
      }
    }
  replayBoth(M, Ops, "dgemm-like");
}
