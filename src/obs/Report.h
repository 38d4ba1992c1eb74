//===- obs/Report.h - Tune reports from the flight recorder ----*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a flight-recorder event stream (obs/Event.h) into a
/// self-contained tune report: the search timeline, the pruning
/// breakdown by reason (the per-tune version of the paper's Tables 3/4
/// story — how much of the space the models removed before anything
/// ran), per-stage hardware-counter telemetry, and the winner's
/// provenance with model-vs-empirical attribution ("why this config").
///
/// The analysis recomputes every total from the raw events and checks
/// them against the `tune.done` record the Tuner stamped from
/// TuneResult — a report that says "reconciliation: OK" is demonstrably
/// consistent with the tuner's own ledger, down to a bitwise-equal
/// winner cost. `eco_cli report <events.jsonl>` renders Markdown (HTML
/// with --html, a Chrome trace-event timeline with --chrome);
/// eco_check --audit-events runs the stricter invariant set in
/// src/check/EventAudit.h over the same stream.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_OBS_REPORT_H
#define ECO_OBS_REPORT_H

#include "obs/Event.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace eco {
namespace obs {

/// One tune window (tune.start .. tune.done) analyzed out of a stream.
struct TuneReportData {
  Json Start;                ///< tune.start fields, verbatim
  uint64_t StartUs = 0;      ///< tune.start timestamp
  uint64_t DoneUs = 0;       ///< tune.done timestamp (0 when truncated)

  // Totals recomputed from the raw events of this window.
  uint64_t Evaluated = 0;        ///< config.evaluated, cache_hit = false
  uint64_t CacheHits = 0;        ///< config.evaluated, cache_hit = true
  uint64_t VariantsDerived = 0;  ///< variant.derived
  uint64_t VariantsRejected = 0; ///< variant.rejected (derivation prune)
  /// variant.pruned names (model-ranking prune), in order.
  std::vector<std::string> Pruned;
  uint64_t ConfigsRejected = 0;  ///< config.rejected (transform prune)
  /// TransformError reason -> count, over variant.rejected +
  /// config.rejected (the "pruning breakdown by reason" table).
  std::map<std::string, uint64_t> RejectReasons;

  /// Winner lineage: every winner.updated step, in order.
  struct WinnerStep {
    uint64_t TimeUs = 0;
    std::string Variant;
    std::string Config;
    double Cost = 0;
  };
  std::vector<WinnerStep> Winners;

  /// Model initial points per variant (variant.ranked).
  std::map<std::string, double> ModelInitialCost;
  std::map<std::string, std::string> ModelInitialConfig;

  /// Per-(variant, stage) activity window, in first-seen order.
  struct StageSpan {
    std::string Variant;
    std::string Stage;
    uint64_t FirstUs = 0;
    uint64_t LastUs = 0;
    uint64_t Evals = 0;
    uint64_t Hits = 0;
  };
  std::vector<StageSpan> Timeline;

  /// Raw stage.telemetry field objects, in publication order.
  std::vector<Json> Telemetry;

  bool WarmSeeded = false;
  bool WarmReverted = false;
  Json WarmSeed;                ///< fields of warmstart.seeded
  std::vector<Json> SeedBounds; ///< fields of each stage.bounds

  /// Backend latency quantiles over real evaluations (ms), derived via
  /// obs::Histogram::quantile (log2 buckets: at most 2x overestimates).
  double P50Ms = 0, P95Ms = 0, P99Ms = 0;

  /// Indices into the analyzed stream of this window's config.evaluated
  /// events, in order: the per-point record check/EventAudit replays.
  std::vector<size_t> Points;

  bool HasDone = false;
  Json Done; ///< tune.done fields, verbatim

  /// Stream-vs-TuneResult mismatches; empty + HasDone = reconciled.
  std::vector<std::string> Mismatches;
  bool reconciled() const { return HasDone && Mismatches.empty(); }
};

/// Full analysis of one stream (it may hold several tunes, e.g. a serve
/// daemon's events file).
struct FlightAnalysis {
  std::vector<TuneReportData> Tunes;
  uint64_t TotalEvents = 0;
  /// Events outside any tune window (daemon job lifecycle etc.).
  uint64_t UnscopedEvents = 0;
  std::vector<std::string> Errors; ///< schema problems found on the way
};

/// Reads a JSONL events file. Returns false (and sets \p Error) only on
/// I/O failure; malformed lines are skipped and reported via \p Errors
/// when non-null.
bool loadEventsFile(const std::string &Path, std::vector<Event> &Out,
                    std::string *Error,
                    std::vector<std::string> *Errors = nullptr);

/// Recomputes totals, timelines, and reconciliation for every tune
/// window in \p Events.
FlightAnalysis analyzeEvents(const std::vector<Event> &Events);

/// Renders the analysis as GitHub-flavored Markdown.
std::string renderMarkdown(const FlightAnalysis &A);

/// Renders a minimal self-contained HTML page wrapping the same report.
std::string renderHtml(const FlightAnalysis &A);

/// Trace row of a serve job's queue-wait and run slices; engine lanes
/// use rows 0.. (--jobs and --engine-jobs cap at 4096).
constexpr int ChromeJobRow = 4096;

/// Renders \p Events as Chrome trace-event JSON (Perfetto or
/// chrome://tracing): {"displayTimeUnit":"ms","traceEvents":[...]} with
/// one "X" slice (ts/dur in microseconds) per
///   - real evaluation: [t_us - ms, t_us] on row = its lane;
///   - `span` event, and tune.start .. tune.done: on row 0;
///   - serve job's queue wait and run: on row ChromeJobRow;
/// all under pid = the job id (0 outside the serve daemon), then one
/// "M" thread_name record naming each row used.
Json renderChromeTrace(const std::vector<Event> &Events);

} // namespace obs
} // namespace eco

#endif // ECO_OBS_REPORT_H
