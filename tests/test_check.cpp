//===- tests/test_check.cpp - eco::check self-check harness tests ---------===//
//
// Covers the check subsystem: the kernel x config differential harness
// (simulator and native legs against the golden references, including one
// adversarial corner per transform), the flight-recorder event auditor
// (clean streams pass; every invariant it checks is caught when broken,
// including a tampered events file), the jobs-determinism replay,
// and the persistence fault-injection matrix. Carries the "check" ctest
// label (ctest -L check).
//
//===----------------------------------------------------------------------===//

#include "check/DiffCheck.h"
#include "check/EventAudit.h"
#include "check/FaultInject.h"
#include "core/Tuner.h"
#include "engine/Engine.h"
#include "kernels/Kernels.h"
#include "obs/Event.h"
#include "obs/Report.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

using namespace eco;
using namespace eco::check;

namespace {

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + Name;
}

/// A diff run bounded for test time: the simulator leg alone already
/// cross-checks instantiate()+Executor against the references; the
/// native leg gets its own (smaller) dedicated cases below.
DiffCheckOptions simOnlyOptions(const std::string &Kernel) {
  DiffCheckOptions Opts;
  Opts.KernelFilter = Kernel;
  Opts.CheckNative = false;
  Opts.Seed = 7;
  return Opts;
}

} // namespace

// ---- ulpDiff ------------------------------------------------------------

TEST(UlpDiffTest, BasicProperties) {
  EXPECT_EQ(ulpDiff(1.0, 1.0), 0u);
  EXPECT_EQ(ulpDiff(0.0, -0.0), 0u);
  EXPECT_EQ(ulpDiff(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(ulpDiff(1.0, std::nextafter(std::nextafter(1.0, 2.0), 2.0)),
            2u);
  // Symmetric, and ordered across the sign boundary.
  EXPECT_EQ(ulpDiff(-1.0, 1.0), ulpDiff(1.0, -1.0));
  EXPECT_GT(ulpDiff(-1.0, 1.0), ulpDiff(0.0, 1.0));
  EXPECT_EQ(ulpDiff(std::nan(""), 1.0), UINT64_MAX);
}

// ---- differential harness, simulator leg (every kernel) ----------------

TEST(DiffCheckTest, MatMulAllVariantsMatchReference) {
  DiffCheckReport Report = runDiffCheck(simOnlyOptions("matmul"));
  EXPECT_EQ(Report.Kernels, 1u);
  EXPECT_GE(Report.Variants, 2u);
  EXPECT_GT(Report.Comparisons, 0u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
}

TEST(DiffCheckTest, JacobiAllVariantsMatchReference) {
  DiffCheckReport Report = runDiffCheck(simOnlyOptions("jacobi"));
  EXPECT_EQ(Report.Kernels, 1u);
  EXPECT_GE(Report.Variants, 1u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
}

TEST(DiffCheckTest, MatVecAllVariantsMatchReference) {
  DiffCheckReport Report = runDiffCheck(simOnlyOptions("matvec"));
  EXPECT_EQ(Report.Kernels, 1u);
  EXPECT_GE(Report.Variants, 1u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
}

TEST(DiffCheckTest, AdversarialCornersAreExercised) {
  // With adversarial corners on, each kernel draws strictly more configs
  // than the (initial + random) baseline — the tile=1 / max-unroll /
  // prefetch-on corners must survive feasibility repair, not vanish.
  DiffCheckOptions With = simOnlyOptions("matmul");
  DiffCheckOptions Without = simOnlyOptions("matmul");
  Without.Adversarial = false;
  DiffCheckReport RWith = runDiffCheck(With);
  DiffCheckReport RWithout = runDiffCheck(Without);
  EXPECT_GT(RWith.Configs, RWithout.Configs);
  EXPECT_TRUE(RWith.ok()) << RWith.summary();
}

TEST(DiffCheckTest, NativeLegMatchesReferenceOnEveryKernel) {
  // One variant per kernel through the full emitC -> cc -> dlopen leg,
  // still with adversarial corners. Small N keeps compile counts sane.
  for (const char *Kernel : {"matmul", "jacobi", "matvec"}) {
    DiffCheckOptions Opts;
    Opts.KernelFilter = Kernel;
    Opts.MaxVariantsPerKernel = 1;
    Opts.RandomConfigsPerVariant = 1;
    Opts.ProblemSize = 9;
    DiffCheckReport Report = runDiffCheck(Opts);
    EXPECT_EQ(Report.Kernels, 1u) << Kernel;
    EXPECT_TRUE(Report.ok()) << Kernel << "\n" << Report.summary();
  }
}

TEST(DiffCheckTest, DeterministicForFixedSeed) {
  DiffCheckOptions Opts = simOnlyOptions("matvec");
  DiffCheckReport A = runDiffCheck(Opts);
  DiffCheckReport B = runDiffCheck(Opts);
  EXPECT_EQ(A.Configs, B.Configs);
  EXPECT_EQ(A.Comparisons, B.Comparisons);
  EXPECT_EQ(A.SkippedInfeasible, B.SkippedInfeasible);
}

// ---- event auditor ------------------------------------------------------

namespace {

/// Builds a synthetic flight-recorder stream with dense seqs and
/// monotonic timestamps. Each tune.done carries the point and hit totals
/// of its own window, so only the invariant under test can fail.
struct StreamBuilder {
  std::vector<obs::Event> Events;
  uint64_t NextSeq = 0;
  std::map<uint64_t, std::pair<int64_t, int64_t>> Counts; // points, hits

  void add(const std::string &Type, Json Fields, uint64_t Job = 0) {
    obs::Event E;
    E.Seq = NextSeq++;
    E.TimeUs = Events.size() + 1;
    E.Job = Job;
    E.Type = Type;
    E.Fields = std::move(Fields);
    Events.push_back(std::move(E));
  }
  void start(uint64_t Job = 0, const char *StartFields = "{}") {
    Counts[Job] = {0, 0};
    add("tune.start", Json::parse(StartFields), Job);
  }
  void point(const std::string &Variant, const std::string &Stage,
             const std::string &Config, double Cost, bool Hit = false,
             uint64_t Job = 0) {
    Json F = Json::object();
    F.set("variant", Variant);
    F.set("stage", Stage);
    F.set("config", Variant + "{" + Config + "}");
    F.set("cost", Cost);
    F.set("cache_hit", Hit);
    ++(Hit ? Counts[Job].second : Counts[Job].first);
    add("config.evaluated", std::move(F), Job);
  }
  void done(double BestCost, uint64_t Job = 0) {
    Json F = Json::object();
    F.set("points", Counts[Job].first);
    F.set("cache_hits", Counts[Job].second);
    F.set("variants_rejected", 0);
    F.set("configs_rejected", 0);
    F.set("best_cost", BestCost);
    add("tune.done", std::move(F), Job);
  }
};

bool hasIssue(const EventAuditReport &Report, const std::string &Kind) {
  for (const EventIssue &I : Report.Issues)
    if (I.Kind == Kind)
      return true;
  return false;
}

/// Streams every event published while \p Body runs to \p Path.
template <class Fn> void recordEvents(const std::string &Path, Fn Body) {
  obs::EventBus &Bus = obs::EventBus::global();
  ASSERT_TRUE(Bus.openFile(Path));
  obs::setEventsEnabled(true);
  Body();
  obs::setEventsEnabled(false);
  Bus.closeFile();
  Bus.clear();
}

} // namespace

TEST(EventAuditTest, CleanSyntheticStreamPasses) {
  StreamBuilder B;
  B.start();
  B.point("v1", "rank", "a", 9.0);
  B.point("v1", "initial", "a", 9.0, /*Hit=*/true);
  B.point("v1", "register", "b", 7.0);
  B.point("v1", "tile0", "c", 5.0);
  B.point("v1", "prefetch", "d", 6.0);
  B.point("v1", "adjust", "c", 5.0, /*Hit=*/true);
  B.done(5.0);
  EventAuditOptions Opts;
  Opts.AssumeColdCache = true;
  EventAuditReport Report = auditEvents(B.Events, Opts);
  EXPECT_TRUE(Report.ok()) << Report.summary();
  EXPECT_EQ(Report.Events, 8u);
  EXPECT_EQ(Report.Segments, 1u);
  EXPECT_EQ(Report.Tunes, 1u);
}

TEST(EventAuditTest, CostInconsistencyIsCaught) {
  // Same (variant, config) with two different costs: the memo table or a
  // backend clone went non-deterministic.
  StreamBuilder B;
  B.start();
  B.point("v1", "initial", "a", 9.0);
  B.point("v1", "register", "a", 8.0);
  B.done(8.0);
  EventAuditReport Report = auditEvents(B.Events);
  ASSERT_EQ(Report.Issues.size(), 1u) << Report.summary();
  EXPECT_EQ(Report.Issues[0].Kind, "cost-mismatch");
}

TEST(EventAuditTest, SeqGapAndStageRegressionAreCaught) {
  StreamBuilder B;
  B.start();
  B.point("v1", "initial", "a", 9.0);
  B.point("v1", "initial", "b", 9.5);
  B.point("v1", "tile0", "c", 7.0);
  B.point("v1", "register", "d", 8.0); // stage went backwards
  B.done(7.0);
  B.Events.erase(B.Events.begin() + 2); // one event lost
  EventAuditReport Report = auditEvents(B.Events);
  EXPECT_TRUE(hasIssue(Report, "seq")) << Report.summary();
  EXPECT_TRUE(hasIssue(Report, "stage-order")) << Report.summary();
}

TEST(EventAuditTest, BadCostAndColdCacheHitAreCaught) {
  StreamBuilder B;
  B.start();
  B.point("v1", "initial", "a", std::numeric_limits<double>::quiet_NaN());
  B.point("v1", "register", "b", 5.0, /*Hit=*/true);
  B.point("v1", "register", "c", -1.0);
  B.done(5.0);
  EventAuditOptions Opts;
  Opts.AssumeColdCache = true;
  EventAuditReport Report = auditEvents(B.Events, Opts);
  size_t BadCosts = 0;
  for (const EventIssue &I : Report.Issues)
    BadCosts += I.Kind == "bad-cost";
  EXPECT_EQ(BadCosts, 2u) << Report.summary(); // NaN and negative
  EXPECT_TRUE(hasIssue(Report, "cold-hit")) << Report.summary();
  // Without the cold-cache assumption a hit is legal.
  EXPECT_FALSE(hasIssue(auditEvents(B.Events), "cold-hit"));
}

TEST(EventAuditTest, ReportedBestMustMatchStreamMinimum) {
  // v2 is ranked, then pruned; v1 is searched.
  auto Stream = [](const char *StartFields, double BestCost) {
    StreamBuilder B;
    B.start(0, StartFields);
    B.point("v2", "rank", "a", 5.0);
    B.point("v1", "rank", "a", 9.0);
    B.point("v1", "initial", "a", 9.0, /*Hit=*/true);
    B.point("v1", "register", "b", 6.0);
    B.Events.back().Fields.set("warm", true); // speculative, never accepted
    B.point("v1", "register", "c", 7.0);
    B.add("variant.pruned", Json::parse(R"({"variant":"v2"})"));
    B.done(BestCost);
    return B.Events;
  };
  const char *Prefer = R"({"prefer_variant":"v1"})";
  // A tune that preferred v1 searched it in the rank-best v2's place.
  EXPECT_TRUE(auditEvents(Stream(Prefer, 7.0)).ok())
      << auditEvents(Stream(Prefer, 7.0)).summary();

  // A cold tune searches the cheapest rank points first: a pruned rank
  // point under the reported best means the ranking or the prune broke.
  EventAuditReport Report = auditEvents(Stream("{}", 7.0));
  ASSERT_EQ(Report.Issues.size(), 1u) << Report.summary();
  EXPECT_EQ(Report.Issues[0].Kind, "regression");

  // A best the stream never evaluated.
  Report = auditEvents(Stream(Prefer, 6.5));
  ASSERT_EQ(Report.Issues.size(), 1u) << Report.summary();
  EXPECT_EQ(Report.Issues[0].Kind, "regression");

  // Restored points were evaluated by an earlier stream: no minimum.
  std::vector<obs::Event> Restored = Stream(Prefer, 6.5);
  Restored.back().Fields.set("restored_points", 4);
  Restored.back().Fields.set("points", 4 + 4);
  EXPECT_TRUE(auditEvents(Restored).ok()) << auditEvents(Restored).summary();
}

TEST(EventAuditTest, SegmentsRestartSequencesAndStages) {
  // A resumed tune appends a second segment whose seq restarts at 0 and
  // whose stages begin again — neither is an issue.
  StreamBuilder B;
  B.start();
  B.point("v1", "initial", "a", 9.0);
  B.point("v1", "tile0", "b", 7.0);
  B.done(7.0);
  B.NextSeq = 0; // resume
  B.start();
  B.point("v1", "initial", "a", 9.0);
  B.point("v1", "register", "c", 8.0);
  B.done(8.0);
  EventAuditReport Report = auditEvents(B.Events);
  EXPECT_TRUE(Report.ok()) << Report.summary();
  EXPECT_EQ(Report.Segments, 2u);
  EXPECT_EQ(Report.Tunes, 2u);

  // The resumed run tunes the same problem, so it must reproduce its
  // predecessor's costs.
  B.Events.at(5).Fields.set("cost", 9.5);
  Report = auditEvents(B.Events);
  ASSERT_EQ(Report.Issues.size(), 1u) << Report.summary();
  EXPECT_EQ(Report.Issues[0].Kind, "cost-mismatch");
}

TEST(EventAuditTest, InterleavedJobsRepeatingNamesAreNotMismatches) {
  // A daemon stream: two problems tuned concurrently under distinct job
  // ids share variant and config names but not costs, and each job's
  // stages restart independently of the other's.
  const char *N64 = R"({"nest":"matmul","problem":{"N":64},"machine":"m1"})";
  const char *N96 = R"({"nest":"matmul","problem":{"N":96},"machine":"m1"})";
  StreamBuilder B;
  B.start(/*Job=*/1, N64);
  B.point("v1", "rank", "a", 9.0, false, 1);
  B.start(/*Job=*/2, N96);
  B.point("v1", "rank", "a", 90.0, false, 2);
  B.point("v1", "tile0", "b", 7.0, false, 1);
  B.point("v1", "initial", "a", 90.0, /*Hit=*/true, 2);
  B.point("v1", "register", "b", 70.0, false, 2);
  B.done(7.0, 1);
  B.point("v1", "tile0", "c", 60.0, false, 2);
  B.done(60.0, 2);
  // The same problem on another machine costs what it costs there.
  B.start(/*Job=*/3, R"({"nest":"matmul","problem":{"N":64},"machine":"m2"})");
  B.point("v1", "rank", "a", 3.0, false, 3);
  B.done(3.0, 3);
  EventAuditOptions Opts;
  Opts.AssumeColdCache = true;
  EventAuditReport Report = auditEvents(B.Events, Opts);
  EXPECT_TRUE(Report.ok()) << Report.summary();
  EXPECT_EQ(Report.Tunes, 3u);

  // A re-tune of job 1's problem must reproduce its costs.
  B.start(/*Job=*/4, N64);
  B.point("v1", "rank", "a", 9.5, false, 4);
  B.done(9.5, 4);
  Report = auditEvents(B.Events, Opts);
  ASSERT_EQ(Report.Issues.size(), 1u) << Report.summary();
  EXPECT_EQ(Report.Issues[0].Kind, "cost-mismatch");
}

TEST(EventAuditTest, RealEngineStreamPassesAudit) {
  // Jacobi on the UltraSPARC model prunes rank points that come close to
  // the searched best, so a broken ranking or prune shows up there as a
  // "regression".
  struct Case {
    LoopNest Nest;
    MachineDesc Machine;
    int Jobs;
  };
  for (const Case &C :
       {Case{makeMatMul(), MachineDesc::sgiR10000().scaledBy(16), 2},
        Case{makeJacobi(), MachineDesc::ultraSparcIIe().scaledBy(16), 1}}) {
    SCOPED_TRACE(C.Nest.Name);
    const std::string Path = tempPath("check_audit_real.jsonl");
    double BestCost = 0;
    recordEvents(Path, [&] {
      SimEvalBackend Backend(C.Machine);
      EngineOptions EO;
      EO.Jobs = C.Jobs;
      EvalEngine Engine(Backend, EO);
      TuneResult R = tune(C.Nest, Engine, {{"N", 24}});
      ASSERT_GE(R.BestVariant, 0);
      BestCost = R.BestCost;
    });
    EventAuditOptions Opts;
    Opts.AssumeColdCache = true;
    Opts.HasExpectedBestCost = true;
    Opts.ExpectedBestCost = BestCost;
    EventAuditReport Report = auditEventsFile(Path, Opts);
    EXPECT_GT(Report.Events, 0u);
    EXPECT_EQ(Report.Tunes, 1u);
    EXPECT_TRUE(Report.ok()) << Report.summary();
    std::remove(Path.c_str());
  }
}

TEST(EventAuditTest, TamperedEventsFileIsCaught) {
  const std::string Clean = tempPath("check_audit_clean.jsonl");
  const std::string Tampered = tempPath("check_audit_tampered.jsonl");
  recordEvents(Clean, [] {
    SimEvalBackend Backend(MachineDesc::sgiR10000().scaledBy(16));
    EvalEngine Engine(Backend);
    TuneResult R = tune(makeMatVec(), Engine, {{"N", 24}});
    ASSERT_GE(R.BestVariant, 0);
  });

  // Drop one line and truncate another mid-record: the auditor must see
  // both the seq gap and the parse failure.
  std::ifstream In(Clean);
  std::vector<std::string> Lines;
  std::string Line;
  while (std::getline(In, Line))
    Lines.push_back(Line);
  ASSERT_GE(Lines.size(), 4u);
  {
    std::ofstream Out(Tampered, std::ios::trunc);
    for (size_t I = 0; I < Lines.size(); ++I) {
      if (I == 1)
        continue; // deleted record
      if (I == 3) {
        Out << Lines[I].substr(0, Lines[I].size() / 2) << "\n";
        continue; // torn record
      }
      Out << Lines[I] << "\n";
    }
  }
  EXPECT_TRUE(auditEventsFile(Clean).ok())
      << auditEventsFile(Clean).summary();
  EventAuditReport Report = auditEventsFile(Tampered);
  EXPECT_TRUE(hasIssue(Report, "seq")) << Report.summary();
  EXPECT_TRUE(hasIssue(Report, "parse")) << Report.summary();
  std::remove(Clean.c_str());
  std::remove(Tampered.c_str());
}

// ---- jobs determinism ---------------------------------------------------

TEST(JobsDeterminismTest, WinnerBitIdenticalAcrossJobs) {
  // A sink open before the replay gets the bus back, still enabled.
  const std::string Outer = tempPath("check_jobs_outer.jsonl");
  obs::EventBus &Bus = obs::EventBus::global();
  ASSERT_TRUE(Bus.openFile(Outer));
  obs::setEventsEnabled(true);
  JobsDeterminismResult R = checkJobsDeterminism(
      makeMatMul(), MachineDesc::sgiR10000().scaledBy(16), {{"N", 24}},
      /*Jobs=*/2, ::testing::TempDir());
  EXPECT_TRUE(obs::eventsEnabled());
  obs::publishEvent("test.after_replay", Json::object());
  obs::setEventsEnabled(false);
  Bus.closeFile();
  Bus.clear();

  EXPECT_TRUE(R.ok()) << R.summary();
  EXPECT_EQ(R.WinnerSeq, R.WinnerPar);
  EXPECT_EQ(R.AuditSeq.Tunes, 1u);
  EXPECT_EQ(R.AuditPar.Tunes, 1u);
  std::vector<obs::Event> OuterEvents;
  std::string Error;
  ASSERT_TRUE(obs::loadEventsFile(Outer, OuterEvents, &Error)) << Error;
  ASSERT_EQ(OuterEvents.size(), 1u); // the replay's events went elsewhere
  EXPECT_EQ(OuterEvents[0].Type, "test.after_replay");
  std::remove(Outer.c_str());
}

// ---- persistence fault injection ---------------------------------------

TEST(FaultInjectTest, InjectorsActuallyDamageFiles) {
  for (Fault F : AllFaults) {
    const std::string Path =
        tempPath(std::string("check_inject_") + faultName(F) + ".json");
    {
      std::ofstream Out(Path, std::ios::trunc);
      Out << "{\n  \"k\": [1, 2, 3]\n}\n";
    }
    ASSERT_TRUE(injectFault(Path, F)) << faultName(F);
    std::ifstream In(Path, std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    EXPECT_NE(SS.str(), "{\n  \"k\": [1, 2, 3]\n}\n") << faultName(F);
    std::remove(Path.c_str());
  }
}

TEST(FaultInjectTest, FullPersistenceFaultMatrixPasses) {
  FaultCheckReport Report =
      runPersistenceFaultChecks(::testing::TempDir());
  EXPECT_GE(Report.Scenarios, 12u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
}
