//===- perfbench/src/Host.h - Host record stamped on every result -*- C++ -*-//
///
/// \file
/// Every result carries the host it was measured on, so that later
/// comparisons can refuse to mix hosts: the source identity (git sha
/// when the checkout is a git work tree, and a content hash of the
/// sources in every case), the compiler, the CPU count, and a measured
/// effective parallelism. The last matters on shared hosts, where N
/// vCPUs may deliver far less than N times one core's throughput.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include "support/Json.h"

#include <string>
#include <vector>

namespace perfbench {

struct HostRecord {
  std::string GitSha;
  std::string SourceHash;
  std::string Compiler;
  unsigned Nproc = 0;
  /// Aggregate throughput of Nproc threads running a fixed CPU-bound loop
  /// concurrently, divided by one thread's.
  double EffectiveParallelism = 0;

  eco::Json toJson() const;
};

/// Measures the host. Takes about a quarter of a second.
HostRecord probeHost(const std::string &GitSha,
                     const std::string &SourceHash);

/// Peak resident set size of this process so far, in MB.
double peakRssMb();

/// The host's current speed, measured with a fixed reference workload
/// that belongs to the benchmark, not the program: independent integer
/// chains (slowed by a busy sibling hyperthread) and ordered-map and
/// string churn (slowed by contention for caches, memory and the
/// allocator). On a shared host the same tune can take 0.4 s or 0.7 s
/// minutes apart, and this reference slows down with it. Workloads
/// sample it between measurements and scale their timings to the speed
/// of a quiet reference host, so that host drift largely cancels while
/// a change to the program moves the scaled time in full.
///
/// The reference must never change: that would silently rescale every
/// timing the benchmark reports.
class HostSpeed {
public:
  /// Runs the reference once (about 10 ms on the reference host) on the
  /// calling thread and records it.
  void sample();
  /// Quiet-reference-host seconds per second here, from the latest
  /// sample (1 before any sample). Multiply a measured duration by it.
  double scale() const { return Scale; }
  /// Median of every scale() sampled so far (1 before any sample).
  double medianScale() const;

private:
  double Scale = 1;
  std::vector<double> Samples;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_H
