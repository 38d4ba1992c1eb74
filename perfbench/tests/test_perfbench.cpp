//===- perfbench/tests/test_perfbench.cpp - Benchmark self-tests ----------===//
//
// Run with: python3 perfbench/run.py --self-test
//
//===----------------------------------------------------------------------===//

#include "Catalog.h"
#include "Generator.h"
#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <set>

using namespace perfbench;

namespace {

bool samePlan(const ServePlan &A, const ServePlan &B) {
  if (!(A.Anchors == B.Anchors) || A.Rates != B.Rates ||
      A.Requests.size() != B.Requests.size())
    return false;
  for (size_t I = 0; I < A.Requests.size(); ++I) {
    const Request &X = A.Requests[I], &Y = B.Requests[I];
    if (X.K != Y.K || X.DueS != Y.DueS || !(X.P == Y.P) || X.Conn != Y.Conn ||
        X.Rung != Y.Rung)
      return false;
  }
  return true;
}

} // namespace

TEST(Generator, SameSeedSameInputs) {
  for (uint64_t Seed : {0u, 1u, 7u, 12345u}) {
    EXPECT_EQ(tuneProblems(Seed), tuneProblems(Seed));
    EXPECT_TRUE(samePlan(servePlan(Seed, 10), servePlan(Seed, 10)));
  }
}

TEST(Generator, SeedsChangeTheInputs) {
  std::set<std::string> TuneSets, Schedules;
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    std::string T, S;
    for (const Problem &P : tuneProblems(Seed))
      T += P.label() + ";";
    TuneSets.insert(T);
    ServePlan Plan = servePlan(Seed, 10);
    for (const Request &Q : Plan.Requests)
      S += std::to_string(Q.DueS) + Q.P.label();
    Schedules.insert(S);
  }
  EXPECT_GT(TuneSets.size(), 5u);
  EXPECT_EQ(Schedules.size(), 10u);
}

TEST(Generator, TuneProblemsCoverEveryStratum) {
  std::vector<Problem> Ps = tuneProblems(3);
  ASSERT_EQ(Ps.size(), 13u);
  std::set<std::string> Kernels;
  size_t PowerOfTwo = 0;
  for (const Problem &P : Ps) {
    Kernels.insert(P.Kernel);
    PowerOfTwo += (P.N & (P.N - 1)) == 0 ? 1 : 0;
  }
  EXPECT_EQ(Kernels.size(), 3u);
  EXPECT_GE(PowerOfTwo, 1u); // the conflict-prone stratum
}

TEST(Generator, ServePlanShape) {
  ServePlan Plan = servePlan(5, 9);
  ASSERT_EQ(Plan.Rates.size(), 3u);
  EXPECT_DOUBLE_EQ(Plan.RungSeconds, 3);
  size_t Warm = 0;
  for (size_t I = 0; I < Plan.Requests.size(); ++I) {
    const Request &Q = Plan.Requests[I];
    if (I > 0) {
      EXPECT_LE(Plan.Requests[I - 1].DueS, Q.DueS);
    }
    EXPECT_LT(Q.DueS, 9);
    bool IsAnchor = false;
    for (const Problem &A : Plan.Anchors)
      IsAnchor |= A == Q.P;
    if (Q.K == Request::Warm) {
      ++Warm;
      EXPECT_EQ(Q.Conn, 0);
      EXPECT_FALSE(IsAnchor) << Q.P.label(); // warm sizes are unseen
    } else {
      EXPECT_TRUE(IsAnchor) << Q.P.label(); // reads/exact hits hit anchors
      EXPECT_EQ(Q.Conn == 1, Q.K == Request::Query);
    }
  }
  EXPECT_EQ(Warm, 32u);
  // Roughly rate x duration reads and exact hits (Poisson, so loose).
  double Expected = (100 + 300 + 900) * Plan.RungSeconds;
  EXPECT_NEAR(static_cast<double>(Plan.Requests.size() - Warm), Expected,
              Expected * 0.15);
}

TEST(Stats, TailNeedsTenSamplesBeyondIt) {
  auto seq = [](size_t N) {
    std::vector<double> V;
    for (size_t I = 1; I <= N; ++I)
      V.push_back(static_cast<double>(I));
    return V;
  };
  EXPECT_EQ(tailPercentile(seq(19)).Pct, 0);   // not even a median tail
  EXPECT_EQ(tailPercentile(seq(20)).Pct, 50);
  EXPECT_EQ(tailPercentile(seq(39)).Pct, 50);  // p75 would leave 9 beyond
  EXPECT_EQ(tailPercentile(seq(40)).Pct, 75);
  EXPECT_EQ(tailPercentile(seq(100)).Pct, 90);
  EXPECT_EQ(tailPercentile(seq(100)).Value, 90);
  EXPECT_EQ(tailPercentile(seq(199)).Pct, 90); // p95 would leave 9 beyond
  EXPECT_EQ(tailPercentile(seq(200)).Pct, 95);
  EXPECT_EQ(tailPercentile(seq(999)).Pct, 95);
  EXPECT_EQ(tailPercentile(seq(1000)).Pct, 99);
  EXPECT_EQ(tailPercentile(seq(1000)).Value, 990);
  EXPECT_EQ(tailPercentile(seq(10000)).Pct, 99.9);
  EXPECT_EQ(tailPercentile(seq(10000)).N, 10000u);
  EXPECT_EQ(samplesBeyond(1000, 99), 10u);
  EXPECT_EQ(samplesBeyond(0, 50), 0u);
}

TEST(Stats, MedianAndGeomean) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 2, 3}), 2.5);
  EXPECT_EQ(median({}), 0);
  EXPECT_NEAR(geomean({1, 4, 16}), 4, 1e-12);
  EXPECT_EQ(percentile({5, 1, 4, 2, 3}, 100), 5);
  EXPECT_EQ(percentile({5, 1, 4, 2, 3}, 20), 1);
}

TEST(Trace, DecoratedTuneReturnsTheSameWinner) {
  Problem P;
  P.Kernel = "matmul";
  P.Machine = "sgi";
  P.N = 32;
  Case C = buildCase(P);

  eco::SimEvalBackend Plain(C.Machine);
  eco::EvalEngine PlainEngine(Plain);
  eco::TuneResult Want = eco::tune(C.Nest, PlainEngine, {{"N", 32}});

  SpanLog Log;
  eco::SimEvalBackend Inner(C.Machine);
  TracedBackend TB(Inner, Log);
  eco::EvalEngine Engine(TB);
  TracedEvaluator TE(Engine, Log, 1, &TB);
  eco::TuneResult Got = eco::tune(C.Nest, TE, {{"N", 32}});
  TB.snapshotNests();

  ASSERT_GE(Want.BestVariant, 0);
  ASSERT_GE(Got.BestVariant, 0);
  EXPECT_EQ(Got.BestCost, Want.BestCost); // bitwise
  EXPECT_EQ(Got.best().Spec.Name, Want.best().Spec.Name);
  EXPECT_EQ(Got.best().configString(Got.BestConfig),
            Want.best().configString(Want.BestConfig));
  EXPECT_EQ(Got.TotalPoints, Want.TotalPoints);

  // Every point and every evaluation became a span; backend spans nest
  // inside the engine span that caused them.
  EXPECT_EQ(TE.points().size(), Got.TotalPoints + Got.TotalCacheHits);
  EXPECT_EQ(TB.calls().size(), Got.TotalPoints);
  size_t EngineSpans = 0, BackendSpans = 0;
  for (const Span &S : Log.spans()) {
    if (S.Name == "engine.evaluate") {
      ++EngineSpans;
      EXPECT_FALSE(S.Stage.empty());
    } else if (S.Name == "backend.evaluate") {
      ++BackendSpans;
      ASSERT_GE(S.Parent, 0);
      EXPECT_EQ(Log.spans()[static_cast<size_t>(S.Parent)].Name,
                "engine.evaluate");
    }
    EXPECT_GE(S.EndNs, S.StartNs);
  }
  EXPECT_EQ(EngineSpans, TE.points().size());
  EXPECT_EQ(BackendSpans, TB.calls().size());
  EXPECT_LE(TB.busySeconds(), TE.busySeconds());

  // The recorded nests replay to the recorded costs.
  for (const BackendCall &Call : TB.calls())
    EXPECT_EQ(resimulate(TB.nests()[Call.NestIdx], Call.Config, C.Machine)
                  .cycles(),
              Call.Cost);
}

TEST(Catalog, MatchesBenchmarkJson) {
  std::string Err;
  eco::Json J = eco::Json::loadFile(PERFBENCH_BENCHMARK_JSON, &Err);
  ASSERT_TRUE(Err.empty()) << Err;
  auto check = [&J](const char *Key, const std::vector<MetricDef> &Defs) {
    const eco::Json &List = J.get(Key);
    ASSERT_EQ(List.size(), Defs.size()) << Key;
    for (size_t I = 0; I < Defs.size(); ++I) {
      EXPECT_EQ(List.at(I).get("name").asString(), Defs[I].Name);
      EXPECT_EQ(List.at(I).get("unit").asString(), Defs[I].Unit);
    }
  };
  check("end_to_end", endToEndMetrics());
  check("per_layer", perLayerMetrics());
}
