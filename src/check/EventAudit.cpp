//===- check/EventAudit.cpp - Flight-recorder stream auditing -------------===//

#include "check/EventAudit.h"

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "obs/Report.h"
#include "support/StringUtils.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>

using namespace eco;
using namespace eco::check;

std::string EventAuditReport::summary() const {
  std::string Out = strformat(
      "event-audit: %zu event(s), %zu segment(s), %zu tune(s) -> "
      "%zu issue(s)\n",
      Events, Segments, Tunes, Issues.size());
  for (const EventIssue &I : Issues)
    Out += strformat("  ISSUE [%s] seq=%llu %s\n", I.Kind.c_str(),
                     static_cast<unsigned long long>(I.Seq),
                     I.Detail.c_str());
  return Out;
}

namespace {

/// Per-type required payload fields (beyond the envelope itself, which
/// eventFromJson already enforced).
void checkSchema(const obs::Event &E, EventAuditReport &Report) {
  auto Require = [&](const char *Field, bool Numeric = false) {
    const Json &V = E.Fields.get(Field);
    bool Ok = Numeric ? V.isNumber() : !V.isNull();
    if (!Ok)
      Report.Issues.push_back(
          {"schema", E.Seq,
           strformat("%s event missing field '%s'", E.Type.c_str(),
                     Field)});
  };
  if (E.Type == "config.evaluated") {
    Require("variant");
    Require("stage");
    Require("cost", /*Numeric=*/true);
    Require("cache_hit");
  } else if (E.Type == "config.rejected" || E.Type == "variant.rejected") {
    Require("reason");
  } else if (E.Type == "winner.updated" || E.Type == "variant.ranked") {
    Require("variant");
    Require("cost", /*Numeric=*/true);
  } else if (E.Type == "tune.done") {
    Require("points", /*Numeric=*/true);
    Require("cache_hits", /*Numeric=*/true);
    Require("variants_rejected", /*Numeric=*/true);
    Require("configs_rejected", /*Numeric=*/true);
    Require("best_cost", /*Numeric=*/true);
  }
}

/// Pipeline position of a stage name; -1 for unknown stages. Tile stages
/// carry their level so tile1 after tile0 is ordered, and the closing
/// stages sit above any realistic tile depth.
int stageRank(const std::string &Stage) {
  static const std::map<std::string, int> Fixed = {
      {"rank", 0}, {"initial", 1}, {"register", 2}, {"prefetch", 1000},
      {"adjust", 1001}};
  auto It = Fixed.find(Stage);
  if (It != Fixed.end())
    return It->second;
  if (Stage.size() < 5 || Stage.compare(0, 4, "tile") != 0 ||
      Stage.find_first_not_of("0123456789", 4) != std::string::npos)
    return -1;
  return 3 + static_cast<int>(
                 std::min(std::strtol(Stage.c_str() + 4, nullptr, 10), 900L));
}

/// NaN or negative costs can only come from a broken backend or a
/// corrupted line.
bool wellFormed(double Cost) { return !std::isnan(Cost) && Cost >= 0; }

/// Every point audited so far, keyed by machine, nest, problem, variant
/// and config -> cost. Windows that tune one problem on one machine (a
/// resumed segment, a daemon re-tune) must reproduce each other's costs;
/// a daemon's other problems reuse variant and config names freely.
using CostLedger = std::map<std::string, double>;

/// The stream-minimum check of closed window \p T: its best_cost must
/// equal, bitwise, the cheapest of \p MinCost (variant -> cheapest
/// decision-loop cost).
void checkStreamMinimum(const obs::TuneReportData &T,
                        std::map<std::string, double> MinCost,
                        EventAuditReport &Report) {
  // A stop may land before the first search evaluates anything.
  const Json &F = T.Done;
  if (F.get("cancelled").asBool())
    return;
  // Ranking by rank-point cost searches the cheapest rank points first,
  // so every variant's points bound the best from below. A tune that put
  // a preferred variant first (a serve re-tune) may leave the rank-best
  // variant unsearched: there only the searched variants' points count.
  if (!T.Start.get("prefer_variant").asString().empty())
    for (const std::string &V : T.Pruned)
      MinCost.erase(V);
  if (MinCost.empty())
    return;
  double Min = std::numeric_limits<double>::infinity();
  for (const auto &[Variant, Cost] : MinCost)
    Min = std::min(Min, Cost);
  double Best = F.get("best_cost").asNumber();
  if (Min != Best)
    Report.Issues.push_back(
        {"regression", 0,
         strformat("tune of %s reported best cost %.17g but the stream "
                   "minimum is %.17g",
                   T.Start.get("nest").asString().c_str(), Best, Min)});
}

/// The point invariants of tune window \p T, whose config.evaluated
/// events index into \p Segment.
void auditWindow(const std::vector<obs::Event> &Segment,
                 const obs::TuneReportData &T, const EventAuditOptions &Opts,
                 CostLedger &CostOf, EventAuditReport &Report) {
  const std::string Scope = T.Start.get("machine").asString() + "|" +
                            T.Start.get("nest").asString() + "|" +
                            T.Start.get("problem").dump() + "|";
  std::set<std::string> Evaluated; // config bodies run on a backend
  std::map<std::string, int> MaxStage;   // variant -> furthest stage
  std::map<std::string, double> MinCost; // variant -> cheapest cost
  for (size_t I : T.Points) {
    const obs::Event &E = Segment[I];
    const std::string &Variant = E.Fields.get("variant").asString();
    const std::string &Stage = E.Fields.get("stage").asString();
    const std::string &Config = E.Fields.get("config").asString();
    double Cost = E.Fields.get("cost").asNumber();
    bool Hit = E.Fields.get("cache_hit").asBool();

    std::string Key = Variant + "|" + Config;
    auto [It, Fresh] = CostOf.emplace(Scope + Key, Cost);
    if (!Fresh && It->second != Cost)
      Report.Issues.push_back(
          {"cost-mismatch", E.Seq,
           strformat("%s: cost %.17g earlier, %.17g now", Key.c_str(),
                     It->second, Cost)});

    size_t Brace = Config.find('{');
    std::string Body =
        Brace == std::string::npos ? Config : Config.substr(Brace);
    if (Opts.AssumeColdCache && Hit && !Evaluated.count(Body))
      Report.Issues.push_back(
          {"cold-hit", E.Seq,
           "cache hit for never-evaluated point " + Key +
               " under cold-cache assumption"});
    if (!Hit)
      Evaluated.insert(Body);

    int Rank = stageRank(Stage);
    if (Rank < 0) {
      Report.Issues.push_back(
          {"schema", E.Seq, "unknown stage '" + Stage + "'"});
    } else {
      auto [SIt, First] = MaxStage.emplace(Variant, Rank);
      if (!First && Rank < SIt->second)
        Report.Issues.push_back(
            {"stage-order", E.Seq,
             strformat("variant %s: stage %s after a later stage",
                       Variant.c_str(), Stage.c_str())});
      SIt->second = std::max(SIt->second, Rank);
    }

    // A warm batch evaluates siblings the decision loop may stop short
    // of, so only decision-loop points bound the winner from below. Bad
    // costs are reported on their own.
    if (!E.Fields.get("warm").asBool(false) && wellFormed(Cost)) {
      auto [MIt, NewVariant] = MinCost.emplace(Variant, Cost);
      if (!NewVariant)
        MIt->second = std::min(MIt->second, Cost);
    }
  }
  if (T.HasDone)
    checkStreamMinimum(T, std::move(MinCost), Report);
}

/// Segment-level ordering, then per tune window the point invariants and
/// the reconciliation obs::analyzeEvents already ran.
void auditSegment(const std::vector<obs::Event> &Segment,
                  const EventAuditOptions &Opts, CostLedger &CostOf,
                  EventAuditReport &Report) {
  for (size_t I = 0; I < Segment.size(); ++I) {
    const obs::Event &E = Segment[I];
    checkSchema(E, Report);
    if (E.Type == "config.evaluated") {
      double Cost = E.Fields.get("cost").asNumber();
      if (!wellFormed(Cost))
        Report.Issues.push_back(
            {"bad-cost", E.Seq,
             strformat("variant %s stage %s cost %g",
                       E.Fields.get("variant").asString().c_str(),
                       E.Fields.get("stage").asString().c_str(), Cost)});
    }
    if (I == 0)
      continue;
    const obs::Event &Prev = Segment[I - 1];
    if (E.Seq != Prev.Seq + 1)
      Report.Issues.push_back(
          {"seq", E.Seq,
           strformat("expected seq %llu, saw %llu",
                     static_cast<unsigned long long>(Prev.Seq + 1),
                     static_cast<unsigned long long>(E.Seq))});
    // The bus stamps seq and time under one mutex: any inversion means
    // the stream was reordered or edited.
    if (E.TimeUs < Prev.TimeUs)
      Report.Issues.push_back(
          {"time", E.Seq,
           strformat("timestamp went backwards (%llu us after %llu us)",
                     static_cast<unsigned long long>(E.TimeUs),
                     static_cast<unsigned long long>(Prev.TimeUs))});
  }

  obs::FlightAnalysis A = obs::analyzeEvents(Segment);
  for (const obs::TuneReportData &T : A.Tunes) {
    if (T.HasDone)
      ++Report.Tunes;
    // The analysis already cross-checked every stream-derived total
    // (including the variant.rejected / config.rejected counts, which
    // are 1:1 with transform.rejected counter bumps by construction)
    // against the tune.done totals the Tuner copied from TuneResult.
    for (const std::string &M : T.Mismatches)
      Report.Issues.push_back(
          {M.compare(0, 6, "winner") == 0 ? "winner" : "reconcile", 0,
           M});
    auditWindow(Segment, T, Opts, CostOf, Report);
    if (Opts.ExpectedBest && T.HasDone) {
      double Best = T.Done.get("best_cost").asNumber();
      if (Best != *Opts.ExpectedBest)
        Report.Issues.push_back(
            {"winner", 0,
             strformat("tune.done best_cost %.17g != expected "
                       "TuneResult::BestCost %.17g",
                       Best, *Opts.ExpectedBest)});
    }
  }
}

} // namespace

EventAuditReport check::auditEvents(const std::vector<obs::Event> &Events,
                                    const EventAuditOptions &Opts) {
  EventAuditReport Report;
  Report.Events = Events.size();
  // Split into segments: a restarted process appends events whose seq
  // drops back to 0. Any other backwards jump is an ordering violation
  // inside one segment, which auditSegment flags.
  std::vector<std::vector<obs::Event>> Segments;
  for (const obs::Event &E : Events) {
    bool Restart = !Segments.empty() && !Segments.back().empty() &&
                   E.Seq == 0 && Segments.back().back().Seq > 0;
    if (Segments.empty() || Restart)
      Segments.emplace_back();
    Segments.back().push_back(E);
  }
  Report.Segments = Segments.size();
  CostLedger CostOf;
  for (const std::vector<obs::Event> &S : Segments)
    auditSegment(S, Opts, CostOf, Report);
  return Report;
}

EventAuditReport check::auditEventsFile(const std::string &Path,
                                        const EventAuditOptions &Opts) {
  std::vector<obs::Event> Events;
  std::string Error;
  std::vector<std::string> LineErrors;
  if (!obs::loadEventsFile(Path, Events, &Error, &LineErrors)) {
    EventAuditReport Report;
    Report.Issues.push_back({"parse", 0, Error});
    return Report;
  }
  EventAuditReport Report = auditEvents(Events, Opts);
  for (const std::string &E : LineErrors)
    Report.Issues.insert(Report.Issues.begin(), {"parse", 0, E});
  return Report;
}

JobsDeterminismResult eco::check::checkJobsDeterminism(
    const LoopNest &Nest, const MachineDesc &Machine,
    const ParamBindings &Problem, int Jobs, const std::string &TmpDir) {
  JobsDeterminismResult Result;

  auto RunOnce = [&](int J, const std::string &EventsPath,
                     std::string *Winner, double *Cost,
                     EventAuditReport *Audit) -> bool {
    // Divert the bus into this run's own file, then hand back the
    // previous sink and enabled state.
    obs::EventBus &Bus = obs::EventBus::global();
    bool WasEnabled = obs::eventsEnabled();
    FILE *Prev = Bus.swapFile(std::fopen(EventsPath.c_str(), "wb"));
    obs::setEventsEnabled(true);
    SimEvalBackend Backend(Machine);
    EngineOptions EO;
    EO.Jobs = J;
    EvalEngine Engine(Backend, EO);
    TuneResult R = tune(Nest, Engine, Problem);
    obs::setEventsEnabled(WasEnabled);
    if (FILE *Own = Bus.swapFile(Prev))
      std::fclose(Own);
    if (R.BestVariant < 0)
      return false;
    *Winner = R.best().Spec.Name + "|" + R.best().configString(R.BestConfig);
    *Cost = R.BestCost;
    EventAuditOptions AO;
    AO.AssumeColdCache = true; // fresh engine, no CacheFile
    AO.ExpectedBest = R.BestCost;
    *Audit = auditEventsFile(EventsPath, AO);
    return true;
  };

  bool SeqOk = RunOnce(1, TmpDir + "/events_jobs1.jsonl", &Result.WinnerSeq,
                       &Result.CostSeq, &Result.AuditSeq);
  bool ParOk = RunOnce(Jobs, TmpDir + "/events_jobsN.jsonl",
                       &Result.WinnerPar, &Result.CostPar, &Result.AuditPar);
  Result.Ran = SeqOk && ParOk;
  if (!Result.Ran)
    Result.Detail = "tune failed (no best variant)";
  else if (Result.WinnerSeq != Result.WinnerPar)
    Result.Detail = "winner differs: jobs=1 -> " + Result.WinnerSeq +
                    ", jobs=" + std::to_string(Jobs) + " -> " +
                    Result.WinnerPar;
  else if (Result.CostSeq != Result.CostPar)
    Result.Detail = strformat("winner cost differs: %.17g vs %.17g",
                              Result.CostSeq, Result.CostPar);
  return Result;
}

std::string JobsDeterminismResult::summary() const {
  std::string Out =
      strformat("jobs-determinism: %s\n", ok() ? "OK" : "FAILED");
  if (!Detail.empty())
    Out += "  " + Detail + "\n";
  Out += "  jobs=1: " + WinnerSeq + strformat(" cost %.17g\n", CostSeq);
  Out += "  jobs=N: " + WinnerPar + strformat(" cost %.17g\n", CostPar);
  if (!AuditSeq.ok())
    Out += AuditSeq.summary();
  if (!AuditPar.ok())
    Out += AuditPar.summary();
  return Out;
}
