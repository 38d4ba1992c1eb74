//===- obs/Report.cpp - Tune reports from the flight recorder -------------===//

#include "obs/Report.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>

using namespace eco;
using namespace eco::obs;

bool obs::loadEventsFile(const std::string &Path, std::vector<Event> &Out,
                         std::string *Error,
                         std::vector<std::string> *Errors) {
  std::ifstream In(Path);
  if (!In) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::string ParseErr;
    Json J = Json::parse(Line, &ParseErr);
    Event E;
    std::string EvErr;
    if (!ParseErr.empty() || !eventFromJson(J, E, &EvErr)) {
      if (Errors)
        Errors->push_back("line " + std::to_string(LineNo) + ": " +
                          (!ParseErr.empty() ? ParseErr : EvErr));
      continue;
    }
    Out.push_back(std::move(E));
  }
  return true;
}

namespace {

std::string fmtCost(double C) {
  char Buf[64];
  // Full precision (same formatter as Json), so the printed winner cost
  // is bitwise-recoverable.
  snprintf(Buf, sizeof(Buf), "%.17g", C);
  return Buf;
}

std::string fmtMs(double Us) {
  char Buf[32];
  snprintf(Buf, sizeof(Buf), "%.1f", Us / 1e3);
  return Buf;
}

uint64_t doneCount(const Json &Done, const char *Key) {
  return static_cast<uint64_t>(Done.get(Key).asInt());
}

void checkCount(TuneReportData &T, const char *What, uint64_t Stream,
                uint64_t FromDone) {
  if (Stream == FromDone)
    return;
  T.Mismatches.push_back(std::string(What) + ": event stream says " +
                         std::to_string(Stream) + ", TuneResult says " +
                         std::to_string(FromDone));
}

/// Folds one in-window event into \p T. \p Lat collects real-eval
/// latencies for the quantile summary.
void fold(TuneReportData &T, const Event &E, Histogram &Lat) {
  const Json &F = E.Fields;
  if (E.Type == "config.evaluated") {
    bool Hit = F.get("cache_hit").asBool();
    Hit ? ++T.CacheHits : ++T.Evaluated;
    if (!Hit)
      Lat.record(F.get("ms").asNumber());
    const std::string &Var = F.get("variant").asString();
    const std::string &Stage = F.get("stage").asString();
    auto It = std::find_if(T.Timeline.begin(), T.Timeline.end(),
                           [&](const TuneReportData::StageSpan &S) {
                             return S.Variant == Var && S.Stage == Stage;
                           });
    if (It == T.Timeline.end()) {
      T.Timeline.push_back({Var, Stage, E.TimeUs, E.TimeUs, 0, 0});
      It = T.Timeline.end() - 1;
    }
    It->FirstUs = std::min(It->FirstUs, E.TimeUs);
    It->LastUs = std::max(It->LastUs, E.TimeUs);
    Hit ? ++It->Hits : ++It->Evals;
  } else if (E.Type == "variant.derived") {
    ++T.VariantsDerived;
  } else if (E.Type == "variant.rejected") {
    ++T.VariantsRejected;
    ++T.RejectReasons[F.get("reason").asString()];
  } else if (E.Type == "variant.pruned") {
    T.Pruned.push_back(F.get("variant").asString());
  } else if (E.Type == "config.rejected") {
    ++T.ConfigsRejected;
    ++T.RejectReasons[F.get("reason").asString()];
  } else if (E.Type == "variant.ranked") {
    T.ModelInitialCost[F.get("variant").asString()] =
        F.get("cost").asNumber();
    T.ModelInitialConfig[F.get("variant").asString()] =
        F.get("config").asString();
  } else if (E.Type == "winner.updated") {
    T.Winners.push_back({E.TimeUs, F.get("variant").asString(),
                         F.get("config").asString(),
                         F.get("cost").asNumber()});
  } else if (E.Type == "warmstart.seeded") {
    T.WarmSeeded = true;
    T.WarmSeed = F;
  } else if (E.Type == "warmstart.reverted") {
    T.WarmReverted = true;
  } else if (E.Type == "stage.bounds") {
    T.SeedBounds.push_back(F);
  } else if (E.Type == "stage.telemetry") {
    T.Telemetry.push_back(F);
  }
}

void finishTune(TuneReportData &T, const Histogram &Lat) {
  if (Lat.count()) {
    T.P50Ms = Lat.quantile(0.50);
    T.P95Ms = Lat.quantile(0.95);
    T.P99Ms = Lat.quantile(0.99);
  }
  if (!T.HasDone) {
    T.Mismatches.push_back("stream truncated: no tune.done record");
    return;
  }
  const Json &D = T.Done;
  // Restored (checkpointed) points were counted by a previous run's
  // events, not this stream's.
  checkCount(T, "evaluations",
             T.Evaluated + doneCount(D, "restored_points"),
             doneCount(D, "points"));
  checkCount(T, "cache hits", T.CacheHits, doneCount(D, "cache_hits"));
  checkCount(T, "variants derived", T.VariantsDerived,
             doneCount(D, "variants_derived"));
  checkCount(T, "variants rejected", T.VariantsRejected,
             doneCount(D, "variants_rejected"));
  checkCount(T, "configs rejected", T.ConfigsRejected,
             doneCount(D, "configs_rejected"));
  if (!T.Winners.empty()) {
    double Best = D.get("best_cost").asNumber();
    // Bitwise equality: both sides round-tripped through the same
    // %.17g formatter, so any drift is a real provenance break.
    if (T.Winners.back().Cost != Best)
      T.Mismatches.push_back("winner cost: last winner.updated says " +
                             fmtCost(T.Winners.back().Cost) +
                             ", TuneResult::BestCost is " + fmtCost(Best));
    if (T.Winners.back().Variant != D.get("best_variant").asString())
      T.Mismatches.push_back("winner variant: events say " +
                             T.Winners.back().Variant +
                             ", TuneResult says " +
                             D.get("best_variant").asString());
  }
}

} // namespace

FlightAnalysis obs::analyzeEvents(const std::vector<Event> &Events) {
  FlightAnalysis A;
  A.TotalEvents = Events.size();
  // A serve daemon's stream interleaves concurrent tunes; each carries
  // its job id, so windows are keyed by job (0 = the CLI's one tune).
  struct OpenTune {
    TuneReportData Data;
    Histogram Lat{1e-3, 40};
  };
  std::map<uint64_t, OpenTune> Open;

  for (size_t I = 0; I < Events.size(); ++I) {
    const Event &E = Events[I];
    if (E.Type == "tune.start") {
      if (Open.count(E.Job)) {
        // Previous window never closed (crash / truncation): flush it.
        OpenTune &Prev = Open[E.Job];
        finishTune(Prev.Data, Prev.Lat);
        A.Tunes.push_back(std::move(Prev.Data));
        Open.erase(E.Job);
      }
      OpenTune &T = Open[E.Job];
      T.Data.Start = E.Fields;
      T.Data.StartUs = E.TimeUs;
      continue;
    }
    auto It = Open.find(E.Job);
    if (It == Open.end()) {
      ++A.UnscopedEvents;
      continue;
    }
    if (E.Type == "tune.done") {
      It->second.Data.HasDone = true;
      It->second.Data.Done = E.Fields;
      It->second.Data.DoneUs = E.TimeUs;
      finishTune(It->second.Data, It->second.Lat);
      A.Tunes.push_back(std::move(It->second.Data));
      Open.erase(It);
      continue;
    }
    if (E.Type == "config.evaluated")
      It->second.Data.Points.push_back(I);
    fold(It->second.Data, E, It->second.Lat);
  }
  for (auto &[Job, T] : Open) {
    (void)Job;
    finishTune(T.Data, T.Lat);
    A.Tunes.push_back(std::move(T.Data));
  }
  return A;
}

namespace {

void renderTune(std::string &Out, const TuneReportData &T, size_t Index) {
  const std::string &Nest = T.Start.get("nest").asString();
  Out += "## Tune " + std::to_string(Index + 1) + ": " +
         (Nest.empty() ? std::string("<unnamed>") : Nest) + "\n\n";
  const Json &Problem = T.Start.get("problem");
  if (Problem.isObject() && Problem.size()) {
    Out += "Problem:";
    for (const auto &[K, V] : Problem.fields())
      Out += " " + K + "=" + std::to_string(V.asInt());
    Out += ". ";
  }
  if (T.DoneUs > T.StartUs)
    Out += "Wall time " + fmtMs(static_cast<double>(T.DoneUs - T.StartUs)) +
           " ms.";
  Out += "\n\n";

  // -- The pruning funnel: what the models removed before / instead of
  // running anything (the per-tune Tables 3/4 story).
  Out += "### Pruning breakdown\n\n";
  Out += "| step | count |\n|---|---|\n";
  Out += "| tiling plans rejected at derivation (illegal transform) | " +
         std::to_string(T.VariantsRejected) + " |\n";
  Out += "| variants derived | " + std::to_string(T.VariantsDerived) +
         " |\n";
  Out += "| variants pruned by model ranking (never searched) | " +
         std::to_string(T.Pruned.size()) + " |\n";
  uint64_t Infeasible =
      T.HasDone ? doneCount(T.Done, "infeasible_pruned") : 0;
  Out += "| candidate configs pruned by model constraints (never run) | " +
         std::to_string(Infeasible) + " |\n";
  Out += "| configs rejected at evaluation (illegal transform) | " +
         std::to_string(T.ConfigsRejected) + " |\n";
  Out += "| configs evaluated on the backend | " +
         std::to_string(T.Evaluated) + " |\n";
  Out += "| evaluator cache hits | " + std::to_string(T.CacheHits) +
         " |\n\n";
  uint64_t Considered = Infeasible + T.ConfigsRejected + T.Evaluated +
                        T.CacheHits;
  if (Considered && T.Evaluated) {
    char Buf[128];
    snprintf(Buf, sizeof(Buf),
             "Of %" PRIu64 " candidate decisions, only %" PRIu64
             " (%.1f%%) needed a backend execution.\n\n",
             Considered, T.Evaluated,
             100.0 * static_cast<double>(T.Evaluated) /
                 static_cast<double>(Considered));
    Out += Buf;
  }
  if (!T.RejectReasons.empty()) {
    Out += "Rejections by reason:\n\n| reason | count |\n|---|---|\n";
    for (const auto &[Reason, N] : T.RejectReasons)
      Out += "| " + Reason + " | " + std::to_string(N) + " |\n";
    Out += "\n";
  }

  // -- Winner provenance.
  Out += "### Winner\n\n";
  if (T.HasDone && !T.Done.get("best_variant").asString().empty()) {
    const std::string &BV = T.Done.get("best_variant").asString();
    Out += "- variant: `" + BV + "`\n";
    Out += "- config: `" + T.Done.get("best_config").asString() + "`\n";
    Out += "- cost: `" + fmtCost(T.Done.get("best_cost").asNumber()) +
           "`\n";
    auto MI = T.ModelInitialCost.find(BV);
    if (MI != T.ModelInitialCost.end()) {
      double Model = MI->second;
      double Final = T.Done.get("best_cost").asNumber();
      auto MC = T.ModelInitialConfig.find(BV);
      if (MC != T.ModelInitialConfig.end() &&
          MC->second == T.Done.get("best_config").asString()) {
        Out += "- attribution: the model's initial point **was** the "
               "final winner (search confirmed it)\n";
      } else if (Model > 0 && Final < Model) {
        char Buf[128];
        snprintf(Buf, sizeof(Buf),
                 "- attribution: model initial point cost %s; empirical "
                 "search improved it by %.1f%%\n",
                 fmtCost(Model).c_str(), 100.0 * (Model - Final) / Model);
        Out += Buf;
      } else {
        Out += "- attribution: model initial point cost " +
               fmtCost(Model) + "; search kept a different config at "
               "equal or better cost\n";
      }
    }
    if (!T.Winners.empty()) {
      Out += "\nLineage (each time the best-so-far improved):\n\n";
      Out += "| t (ms) | variant | cost |\n|---|---|---|\n";
      for (const TuneReportData::WinnerStep &W : T.Winners)
        Out += "| " + fmtMs(static_cast<double>(W.TimeUs - T.StartUs)) +
               " | " + W.Variant + " | " + fmtCost(W.Cost) + " |\n";
      Out += "\n";
    }
  } else {
    Out += "No winner recorded (tune failed or stream truncated).\n\n";
  }

  // -- Warm start.
  if (T.WarmSeeded) {
    Out += "### Warm start\n\n";
    Out += T.WarmReverted
               ? "Seed **reverted**: the model's own initial point beat "
                 "the warm-start seed, so the search ran cold-width.\n"
               : "Seeded from a neighboring configuration";
    if (!T.WarmReverted && !T.SeedBounds.empty()) {
      Out += " with stage bounds:\n\n| param | lo | hi |\n|---|---|---|\n";
      for (const Json &B : T.SeedBounds)
        Out += "| " + B.get("param").asString() + " | " +
               std::to_string(B.get("lo").asInt()) + " | " +
               std::to_string(B.get("hi").asInt()) + " |\n";
    } else if (!T.WarmReverted) {
      Out += ".\n";
    }
    Out += "\n";
  }

  // -- Timeline.
  if (!T.Timeline.empty()) {
    Out += "### Search timeline\n\n";
    Out += "| variant | stage | start (ms) | end (ms) | evals | hits "
           "|\n|---|---|---|---|---|---|\n";
    for (const TuneReportData::StageSpan &S : T.Timeline)
      Out += "| " + S.Variant + " | " + S.Stage + " | " +
             fmtMs(static_cast<double>(S.FirstUs - T.StartUs)) + " | " +
             fmtMs(static_cast<double>(S.LastUs - T.StartUs)) + " | " +
             std::to_string(S.Evals) + " | " + std::to_string(S.Hits) +
             " |\n";
    Out += "\n";
  }

  // -- Telemetry.
  if (!T.Telemetry.empty()) {
    bool AnyHW = false;
    for (const Json &Row : T.Telemetry)
      AnyHW |= Row.has("loads");
    Out += "### Per-stage telemetry\n\n";
    Out += AnyHW ? "| variant | stage | evals | loads | L1 miss | L2 "
                   "miss | TLB miss | cycles |\n|---|---|---|---|---|---"
                   "|---|---|\n"
                 : "| variant | stage | evals | backend s "
                   "|\n|---|---|---|---|\n";
    for (const Json &Row : T.Telemetry) {
      Out += "| " + Row.get("variant").asString() + " | " +
             Row.get("stage").asString() + " | " +
             std::to_string(Row.get("evals").asInt()) + " | ";
      if (AnyHW) {
        Out += std::to_string(Row.get("loads").asInt()) + " | " +
               std::to_string(Row.get("l1_misses").asInt()) + " | " +
               std::to_string(Row.get("l2_misses").asInt()) + " | " +
               std::to_string(Row.get("tlb_misses").asInt()) + " | " +
               std::to_string(Row.get("cycles").asInt()) + " |\n";
      } else {
        Out += fmtCost(Row.get("backend_s").asNumber()) + " |\n";
      }
    }
    Out += "\n";
  }

  // -- Latency quantiles.
  if (T.Evaluated) {
    char Buf[160];
    snprintf(Buf, sizeof(Buf),
             "Backend latency per evaluation: p50 %.3g ms, p95 %.3g ms, "
             "p99 %.3g ms (log2-bucket quantiles, at most 2x above the "
             "true value).\n\n",
             T.P50Ms, T.P95Ms, T.P99Ms);
    Out += "### Evaluation latency\n\n";
    Out += Buf;
  }

  // -- Reconciliation.
  Out += "### Reconciliation\n\n";
  if (T.reconciled()) {
    Out += "**OK** — every stream-derived total matches TuneResult, and "
           "the winner cost is bitwise-identical to BestCost.\n\n";
  } else {
    for (const std::string &M : T.Mismatches)
      Out += "- MISMATCH: " + M + "\n";
    Out += "\n";
  }
}

} // namespace

std::string obs::renderMarkdown(const FlightAnalysis &A) {
  std::string Out = "# ECO tune report\n\n";
  Out += std::to_string(A.TotalEvents) + " events, " +
         std::to_string(A.Tunes.size()) + " tune(s)";
  if (A.UnscopedEvents)
    Out += ", " + std::to_string(A.UnscopedEvents) +
           " outside any tune window";
  Out += ".\n\n";
  for (const std::string &E : A.Errors)
    Out += "- malformed event: " + E + "\n";
  if (!A.Errors.empty())
    Out += "\n";
  for (size_t I = 0; I < A.Tunes.size(); ++I)
    renderTune(Out, A.Tunes[I], I);
  return Out;
}

std::string obs::renderHtml(const FlightAnalysis &A) {
  std::string Md = renderMarkdown(A);
  std::string Esc;
  Esc.reserve(Md.size());
  for (char C : Md) {
    switch (C) {
    case '&': Esc += "&amp;"; break;
    case '<': Esc += "&lt;"; break;
    case '>': Esc += "&gt;"; break;
    default: Esc += C;
    }
  }
  return "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
         "<title>ECO tune report</title>"
         "<style>body{font:14px/1.5 monospace;max-width:72em;"
         "margin:2em auto;padding:0 1em;}</style></head>\n"
         "<body><pre>\n" + Esc + "</pre></body></html>\n";
}
