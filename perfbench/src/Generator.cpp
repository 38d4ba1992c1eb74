//===- perfbench/src/Generator.cpp - Seeded workload inputs ---------------===//

#include "Generator.h"

#include "support/Rng.h"

#include <algorithm>
#include <cmath>

using namespace perfbench;

std::string Problem::label() const {
  return Kernel + "@" + Machine + "/" + std::to_string(Scale) +
         " n=" + std::to_string(N);
}

namespace {

/// Candidate problems of one stratum; a seed picks one of them.
using Stratum = std::vector<Problem>;

Problem P(const char *Kernel, const char *Machine, int64_t N) {
  Problem Pr;
  Pr.Kernel = Kernel;
  Pr.Machine = Machine;
  Pr.N = N;
  return Pr;
}

Stratum sizes(const char *Kernel, const char *Machine,
              std::initializer_list<int64_t> Ns) {
  Stratum S;
  for (int64_t N : Ns)
    S.push_back(P(Kernel, Machine, N));
  return S;
}

/// Windows are narrow on purpose. A cold tune's cost grows like N^3 and
/// jumps between neighbouring sizes whose search paths differ, so wide
/// windows would make run-to-run figures track the draw instead of the
/// code. Each window holds sizes whose cold tunes had similar wall time,
/// point count and winner cycles/flop on the seed code; many strata, each
/// tuned several times per run, average what variation remains.
std::vector<Stratum> tuneStrata() {
  return {
      sizes("matmul", "sgi", {52, 60}),
      sizes("matmul", "sgi", {68, 72}),
      sizes("matmul", "sun", {52, 56}),
      sizes("matmul", "sun", {68, 72}),
      sizes("jacobi", "sgi", {30, 34}),
      sizes("jacobi", "sgi", {36, 38}),
      sizes("jacobi", "sun", {28, 30}),
      sizes("jacobi", "sun", {34, 36}),
      sizes("matvec", "sgi", {384, 448}),
      sizes("matvec", "sun", {384, 448}),
      // Conflict-prone sizes, fixed: a power-of-two leading dimension
      // maps the columns of every array onto the same few sets of the
      // 2-way caches (jacobi n=32 on sun is the worst case measured,
      // about twice the cycles per flop of its neighbours).
      sizes("matmul", "sgi", {64}),
      sizes("matmul", "sun", {64}),
      sizes("jacobi", "sun", {32}),
  };
}

template <typename T> void shuffle(std::vector<T> &V, eco::Rng &R) {
  for (size_t I = V.size(); I > 1; --I)
    std::swap(V[I - 1], V[static_cast<size_t>(R.nextInt(0, I - 1))]);
}

template <typename T> const T &pick(const std::vector<T> &V, eco::Rng &R) {
  return V[static_cast<size_t>(R.nextInt(0, V.size() - 1))];
}

} // namespace

std::vector<Problem> perfbench::tuneProblems(uint64_t Seed) {
  eco::Rng R(Seed * 0x9e3779b97f4a7c15ULL + 1);
  std::vector<Problem> Out;
  for (const Stratum &S : tuneStrata())
    Out.push_back(pick(S, R));
  shuffle(Out, R);
  return Out;
}

ServePlan perfbench::servePlan(uint64_t Seed, double Seconds) {
  eco::Rng R(Seed * 0x9e3779b97f4a7c15ULL + 2);
  ServePlan Plan;
  // Anchors are fixed and small, so that set-up's cold tunes are short
  // and the same on every seed. Every run asks for the same eight unseen
  // sizes (offsets in steps of Step) around each anchor; the seed sets
  // their order, the arrival times and the targets of the reads and
  // exact hits. The order matters: a warm tune's nearest seed may be a
  // row an earlier warm tune wrote.
  struct Anchor {
    Problem P;
    int64_t Step;
  };
  const std::vector<Anchor> Anchors = {
      {P("matmul", "sgi", 56), 4},
      {P("jacobi", "sgi", 30), 2},
      {P("matmul", "sun", 56), 4},
      {P("matvec", "sgi", 416), 32},
  };
  std::vector<Problem> WarmSet;
  for (const Anchor &A : Anchors) {
    Plan.Anchors.push_back(A.P);
    for (int64_t Offset : {-4, -3, -2, -1, 1, 2, 3, 4}) {
      Problem W = A.P;
      W.N += Offset * A.Step;
      WarmSet.push_back(W);
    }
  }
  shuffle(WarmSet, R);

  Plan.Rates = {100, 300, 900};
  Plan.NominalRung = 1;
  Plan.RungSeconds = Seconds / static_cast<double>(Plan.Rates.size());
  const size_t Rungs = Plan.Rates.size();
  const int ExactConns = Plan.Conns - 2;
  size_t ExactIdx = 0;
  for (size_t Rung = 0; Rung < Rungs; ++Rung) {
    double Start = static_cast<double>(Rung) * Plan.RungSeconds;
    // Poisson arrivals of reads and exact hits at this rung's rate.
    for (double T = Start;;) {
      T += -std::log(1 - R.nextDouble()) / Plan.Rates[Rung];
      if (T >= Start + Plan.RungSeconds)
        break;
      Request Q;
      Q.K = R.nextBool() ? Request::Query : Request::Exact;
      Q.DueS = T;
      Q.P = pick(Plan.Anchors, R);
      Q.Conn = Q.K == Request::Query
                   ? 1
                   : 2 + static_cast<int>(ExactIdx++ % ExactConns);
      Q.Rung = static_cast<int>(Rung);
      Plan.Requests.push_back(Q);
    }
    // The warm tunes are spread evenly over the rungs, each at a random
    // point of its own slot, so they rarely overlap one another.
    size_t PerRung = (WarmSet.size() + Rungs - 1) / Rungs;
    for (size_t I = 0; I < PerRung; ++I) {
      size_t W = Rung * PerRung + I;
      if (W >= WarmSet.size())
        break;
      double Slot = Plan.RungSeconds / static_cast<double>(PerRung);
      Request Q;
      Q.K = Request::Warm;
      Q.DueS = Start + Slot * (static_cast<double>(I) +
                               0.1 + 0.6 * R.nextDouble());
      Q.P = WarmSet[W];
      Q.Conn = 0;
      Q.Rung = static_cast<int>(Rung);
      Plan.Requests.push_back(Q);
    }
  }
  std::stable_sort(Plan.Requests.begin(), Plan.Requests.end(),
                   [](const Request &A, const Request &B) {
                     return A.DueS < B.DueS;
                   });
  return Plan;
}
