//===- perfbench/src/Generator.h - Seeded workload inputs ------*- C++ -*-===//
///
/// \file
/// Everything a workload feeds the program is generated here from the
/// run's seed, and nothing else: the tuned problem set, the served
/// anchor set, and the serve workload's open-loop arrival schedule. The
/// same seed always yields the same inputs (tests/test_perfbench.cpp).
///
/// Problems are stratified: every seed draws one problem from each
/// stratum (kernel x machine x size window), so every run covers the same
/// mix of layers and cache behaviours while the exact sizes, and hence
/// the search paths, change from seed to seed. See README.md for why
/// each stratum is there.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENERATOR_H
#define PERFBENCH_GENERATOR_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One tuning problem on one of the serve layer's scaled machines.
struct Problem {
  std::string Kernel;  ///< matmul | jacobi | matvec
  std::string Machine; ///< sgi | sun
  unsigned Scale = 16;
  int64_t N = 0;

  std::string label() const;
  bool operator==(const Problem &O) const {
    return Kernel == O.Kernel && Machine == O.Machine && Scale == O.Scale &&
           N == O.N;
  }
};

/// The tune workloads' problem set, in the seed's tuning order: one
/// problem per stratum, including one conflict-prone power-of-two size.
std::vector<Problem> tuneProblems(uint64_t Seed);

/// One request of the serve workload's open-loop schedule.
struct Request {
  enum Kind { Query, Exact, Warm };
  Kind K = Query;
  double DueS = 0; ///< seconds after the traffic start
  Problem P;
  int Conn = 0;    ///< client connection that sends it
  int Rung = 0;    ///< index into ServePlan::Rates
};

struct ServePlan {
  /// Pre-seeded into the ConfigDB by cold tunes during set-up; queries
  /// and exact-hit submits target these.
  std::vector<Problem> Anchors;
  /// Offered rates (requests/s) of the query + exact-hit traffic, one
  /// ladder rung after another; NominalRung is the one whose latencies
  /// the per-layer metrics report.
  std::vector<double> Rates;
  size_t NominalRung = 1;
  double RungSeconds = 0;
  /// Sorted by due time. Warm submits (unseen sizes near an anchor) go
  /// to connection 0, reads to connection 1, exact-hit submits to
  /// connections 2..Conns-1: a reader never waits behind a submit its
  /// own connection is blocked on, as with independent users.
  std::vector<Request> Requests;
  int Conns = 4;
};

/// Builds the serve workload's anchors and schedule for \p Seconds of
/// traffic.
ServePlan servePlan(uint64_t Seed, double Seconds);

} // namespace perfbench

#endif // PERFBENCH_GENERATOR_H
