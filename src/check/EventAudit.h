//===- check/EventAudit.h - Flight-recorder stream auditing ----*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Invariant auditing over flight-recorder event streams (obs/Event.h),
/// whose `config.evaluated` events are the one per-point record. Per
/// stream it asserts:
///
///  * schema: every line parses and carries seq / t_us / type / fields;
///  * ordering: seqs are dense per segment (a restarted process appends
///    a segment whose seq restarts at 0; a gap or duplicate means events
///    were lost or double-emitted), and timestamps never go backwards —
///    the bus stamps both under one mutex;
///  * well-formed costs: no config.evaluated cost is NaN or negative;
///  * counter pairing + reconciliation: per tune window, rejected-event
///    counts and evaluation / cache-hit counts recomputed from the
///    events match the totals the Tuner stamped into tune.done;
///  * winner provenance: the last winner.updated cost equals tune.done's
///    best_cost, and \p ExpectedBest when a caller supplies it.
///
/// Per tune window, as obs::analyzeEvents splits them (tune.start ..
/// tune.done of one job id: a daemon stream interleaves problems whose
/// variant and config names repeat):
///
///  * cost consistency: one (variant, config) has one cost, bitwise —
///    also across windows and segments that tune the same nest and
///    problem on the same machine (tune.start's `machine` fingerprint),
///    so a resumed run must reproduce its predecessor's costs;
///  * cold-cache hit legality (AssumeColdCache): a hit names a config
///    evaluated earlier in the window;
///  * stage order per variant: rank, initial, register, tile0..,
///    prefetch, adjust — warm batches may run ahead *within* a stage but
///    never emit for a stage the search already left;
///  * stream minimum: best_cost equals, bitwise, the cheapest
///    decision-loop (non-warm) point — a cheaper point means the search
///    lost or never saw it. Skipped for a cancelled tune only: a
///    resumed tune's cache hits carry their costs, so it is checked
///    too. In a tune.start with `prefer_variant`, variant.pruned
///    variants do not count (the preferred variant was searched in the
///    rank-best variant's place).
///
/// checkJobsDeterminism() replays a tune at --jobs 1 and --jobs N,
/// asserts a bit-identical winner, and audits both runs' streams.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_CHECK_EVENTAUDIT_H
#define ECO_CHECK_EVENTAUDIT_H

#include "exec/Run.h"
#include "ir/Loop.h"
#include "machine/MachineDesc.h"
#include "obs/Event.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace eco {
namespace check {

/// One invariant violation found in an event stream.
struct EventIssue {
  std::string Kind; ///< "parse", "schema", "seq", "time", "reconcile",
                    ///  "winner", "cost-mismatch", "bad-cost",
                    ///  "cold-hit", "stage-order", "regression"
  uint64_t Seq = 0; ///< seq of the offending event (0 for parse errors)
  std::string Detail;
};

struct EventAuditOptions {
  /// When true, a cache hit for a configuration never evaluated earlier
  /// in its tune window is an issue — valid only for streams produced
  /// with a cold (empty or absent) persistent cache. Keyed by the config
  /// body (without the variant prefix): variants with equal fingerprints
  /// legitimately share memo entries across variant names.
  bool AssumeColdCache = false;
  /// When set, every completed tune window's best_cost must equal this
  /// bit-for-bit (the caller holds the live TuneResult::BestCost).
  std::optional<double> ExpectedBest;
};

struct EventAuditReport {
  size_t Events = 0;
  size_t Segments = 0;
  size_t Tunes = 0; ///< completed tune windows
  std::vector<EventIssue> Issues;

  bool ok() const { return Issues.empty(); }
  std::string summary() const;
};

/// Audits in-memory events (e.g. parsed back from a JSONL sink).
EventAuditReport auditEvents(const std::vector<obs::Event> &Events,
                             const EventAuditOptions &Opts = {});

/// Reads \p Path as JSONL and audits it. Unreadable file => one "parse"
/// issue; blank lines are ignored.
EventAuditReport auditEventsFile(const std::string &Path,
                                 const EventAuditOptions &Opts = {});

/// Outcome of the jobs-determinism replay.
struct JobsDeterminismResult {
  bool Ran = false;           ///< false when either tune failed outright
  std::string WinnerSeq;      ///< winning variant|configString at jobs=1
  std::string WinnerPar;      ///< ... at jobs=N
  double CostSeq = 0, CostPar = 0;
  EventAuditReport AuditSeq, AuditPar;
  std::string Detail;

  bool ok() const {
    return Ran && WinnerSeq == WinnerPar && CostSeq == CostPar &&
           AuditSeq.ok() && AuditPar.ok();
  }
  std::string summary() const;
};

/// Tunes \p Nest through fresh engines at jobs=1 and jobs=\p Jobs, each
/// recording its events to a file in \p TmpDir, asserts the winners are
/// bit-identical, and audits both streams (cold cache, live best cost).
/// The event bus gets its previous enabled state and sink back after;
/// that sink does not see the replay's events.
JobsDeterminismResult checkJobsDeterminism(const LoopNest &Nest,
                                           const MachineDesc &Machine,
                                           const ParamBindings &Problem,
                                           int Jobs,
                                           const std::string &TmpDir);

} // namespace check
} // namespace eco

#endif // ECO_CHECK_EVENTAUDIT_H
