//===- perfbench/src/Host.cpp - Host record --------------------------------===//

#include "Host.h"
#include "Stats.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace perfbench;

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

/// Iterations of a dependent integer chain completed in \p Ms; the chain
/// cannot be vectorized or folded, so it measures one core's issue rate.
uint64_t spin(int Ms) {
  auto End = std::chrono::steady_clock::now() + std::chrono::milliseconds(Ms);
  uint64_t X = 88172645463325252ULL, Iters = 0;
  while (std::chrono::steady_clock::now() < End) {
    for (int I = 0; I < 4096; ++I) {
      X ^= X << 13;
      X ^= X >> 7;
      X ^= X << 17;
    }
    Iters += 4096;
  }
  static std::atomic<uint64_t> Sink{0};
  Sink.fetch_add(X, std::memory_order_relaxed);
  return Iters;
}

/// Seconds the reference takes on the reference host when it is quiet:
/// the fastest samples measured on a shared 4-vCPU Xeon host (2.1 GHz).
constexpr double ReferenceSeconds = 0.0092;

double runReference() {
  auto Start = std::chrono::steady_clock::now();
  uint64_t A = 1, B = 2, C = 3, D = 4;
  for (int I = 0; I < 1'500'000; ++I) {
    A ^= A << 13; B ^= B << 13; C ^= C << 13; D ^= D << 13;
    A ^= A >> 7; B ^= B >> 7; C ^= C >> 7; D ^= D >> 7;
    A ^= A << 17; B ^= B << 17; C ^= C << 17; D ^= D << 17;
  }
  std::map<uint64_t, std::string> M;
  uint64_t X = 7, Sum = A ^ B ^ C ^ D;
  for (int I = 0; I < 15'000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
    M[X % 20000] = std::to_string(X);
    auto It = M.find((X >> 8) % 20000);
    if (It != M.end())
      Sum += It->second.size();
    if (I % 3 == 0)
      M.erase((X >> 16) % 20000);
  }
  static std::atomic<uint64_t> Sink{0};
  Sink.fetch_add(Sum, std::memory_order_relaxed);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

void HostSpeed::sample() {
  Scale = ReferenceSeconds / runReference();
  Samples.push_back(Scale);
}

double HostSpeed::medianScale() const {
  return Samples.empty() ? 1 : median(Samples);
}

eco::Json HostRecord::toJson() const {
  eco::Json J = eco::Json::object();
  J.set("git_sha", GitSha);
  J.set("source_hash", SourceHash);
  J.set("compiler", Compiler);
  J.set("nproc", static_cast<int64_t>(Nproc));
  J.set("effective_parallelism", EffectiveParallelism);
  return J;
}

HostRecord perfbench::probeHost(const std::string &GitSha,
                                const std::string &SourceHash) {
  HostRecord H;
  H.GitSha = GitSha.empty() ? "none" : GitSha;
  H.SourceHash = SourceHash.empty() ? "none" : SourceHash;
  H.Compiler = PERFBENCH_COMPILER;
  H.Nproc = std::max(1u, std::thread::hardware_concurrency());

  const int Ms = 100;
  double One = static_cast<double>(spin(Ms));
  std::vector<uint64_t> Counts(H.Nproc, 0);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < H.Nproc; ++I)
    Threads.emplace_back([&Counts, I] { Counts[I] = spin(Ms); });
  for (std::thread &T : Threads)
    T.join();
  double All = 0;
  for (uint64_t C : Counts)
    All += static_cast<double>(C);
  H.EffectiveParallelism = One > 0 ? All / One : 0;
  return H;
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KB
}
