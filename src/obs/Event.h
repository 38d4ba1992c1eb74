//===- obs/Event.h - Structured decision-event bus -------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tuner's flight recorder: a thread-safe bus of structured decision
/// events, and the only record a tune leaves. Where metrics
/// answer "how many", events answer "why" and "how long" — each one
/// records a single decision the tuner made (a variant derived or
/// rejected, a warm start seeded or reverted, a config evaluated, the
/// winner updated) or one timed phase of it, with enough payload to
/// reconstruct the search after the fact.
///
/// Publishers guard every call with obs::eventsEnabled() (one relaxed
/// atomic load), so the hot path pays nothing unless the user asked for
/// observability (--obs-dir or --progress). Each published event goes to
/// the JSONL file sink when one is open (the durable artifact that
/// `eco_cli report` and `eco_check --audit-events` consume) and through
/// obs::foldEvent into the metrics registry (obs/Metrics.h).
///
/// Event types published today (payload fields in parentheses):
///
///   tune.start         (nest, problem, representative_size, machine,
///                       prefer_variant when set)
///   variant.derived    (variant, constraints)
///   variant.rejected   (plan, reason)                — TransformError
///   variant.ranked     (variant, config, cost)       — model initial
///   variant.pruned     (variant, heuristic_cost, reason) — ranked below
///                       MaxVariantsToSearch; published after ranking
///   warmstart.seeded   (variant, params[{name,value,lo,hi}])
///   warmstart.reverted (variant, seed_cost, model_cost)
///   stage.bounds       (variant, param, lo, hi)
///   config.evaluated   (variant, stage, config, cost, cache_hit, warm,
///                       ms, lane)
///   config.rejected    (variant, stage, config, reason) — TransformError
///   winner.updated     (variant, config, cost)
///   stage.telemetry    (variant, stage, evals, cache_hits, backend_s;
///                       with HW: loads, stores, prefetches, flops,
///                       l1/l2/tlb_misses, cycles, issue/stall_cycles)
///   tune.done          (reconciliation totals + winner; see Tuner.cpp)
///   span               (name, cat, detail, start_us, dur_us) — one timed
///                       phase: derive, rank, search:<v>, stage:*, warm:*,
///                       warm-remote:*, cache.save (SpanScope below)
///   cache.loaded       (entries, foreign)        — eval cache file read
///   cache.saved / db.saved ()                    — cache / ConfigDB written
///   job.submitted / job.started / job.finished — serve job lifecycle
///                       (see Server.cpp); queue_depth is what each left
///   worker.joined / worker.lost (worker_id, name, live; + reason)
///   batch.failed       (batch_id, reason)        — a fleet batch dispatched
///                       once and not answered; its points are costed
///                       locally (serve/Fleet.h)
///
/// The bus assigns each event a dense sequence number and a timestamp
/// from the shared observability epoch (obs::monotonicMicros), both under
/// one mutex, so sequence order and timestamp order agree — the audit in
/// src/check/EventAudit.h leans on that.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_OBS_EVENT_H
#define ECO_OBS_EVENT_H

#include "support/Json.h"
#include "support/Sync.h"

#include <cstdint>
#include <cstdio>
#include <string>

namespace eco {
namespace obs {

/// One recorded decision. Seq and TimeUs are assigned by the bus.
struct Event {
  uint64_t Seq = 0;    ///< dense, process-wide publication order
  uint64_t TimeUs = 0; ///< obs::monotonicMicros() at publication
  uint64_t Job = 0;    ///< serve job attribution (0 = not inside a job)
  std::string Type;    ///< e.g. "config.evaluated"
  Json Fields;         ///< type-specific payload (JSON object)
};

/// Serializes \p E as the canonical single-line JSON object:
/// {"seq":..,"t_us":..,"type":..,("job":..,)"fields":{..}}.
Json eventToJson(const Event &E);

/// Parses one JSONL line back into \p Out. Returns false (and sets
/// \p Error) when the line is not a well-formed event object.
bool eventFromJson(const Json &J, Event &Out, std::string *Error);

/// The process-wide bus. All methods are safe to call concurrently.
class EventBus {
public:
  static EventBus &global();

  /// Publishes one event: stamps Seq/TimeUs/Job, appends it to the
  /// JSONL sink (if open) and folds it into the metrics registry, all
  /// under the bus mutex. No-op unless events are enabled.
  void publish(std::string Type, Json Fields);

  /// Opens (or replaces) the JSONL sink. Returns false on I/O failure.
  /// Appending first cuts the file back to just after its last newline:
  /// a killed writer's torn final line cannot be parsed anyway, and the
  /// new segment must start on a line of its own.
  bool openFile(const std::string &Path, bool Append = false);
  void closeFile();
  /// Installs \p F (may be null) as the JSONL sink and hands back the
  /// previous one unclosed, so a caller can divert the stream and later
  /// put the original sink back untouched. The caller owns the result.
  FILE *swapFile(FILE *F);

private:
  mutable Mutex M{"obs.events"};
  uint64_t NextSeq ECO_GUARDED_BY(M) = 0;
  FILE *File ECO_GUARDED_BY(M) = nullptr;
};

/// The one observability switch: one relaxed load. Publishers must check
/// this before building payloads.
bool eventsEnabled();
void setEventsEnabled(bool Enabled);

/// Publishes through the global bus; call only under eventsEnabled().
void publishEvent(std::string Type, Json Fields);

/// `--obs-dir=D`, the one observability flag of eco_cli and eco_served:
/// creates \p Dir if missing, opens Dir/events.jsonl as the global bus's
/// sink (a new segment appended when \p Append, else truncated) and
/// enables events. On failure returns false with \p Error.
bool openObsDir(const std::string &Dir, bool Append, std::string *Error);

/// Closes the sink and writes Dir/metrics.json (false if it cannot).
bool closeObsDir(const std::string &Dir);

/// Serve-job attribution: while a ScopedJobId is alive on a thread,
/// events published from that thread carry Job = Id. The tuning service
/// runs one job per worker thread, so a thread-local is exact.
class ScopedJobId {
public:
  explicit ScopedJobId(uint64_t Id);
  ~ScopedJobId();
  ScopedJobId(const ScopedJobId &) = delete;
  ScopedJobId &operator=(const ScopedJobId &) = delete;

private:
  uint64_t Prev;
};

/// The current thread's job attribution (0 when outside a job).
uint64_t currentJobId();

/// RAII timed phase: construction stamps the start on the obs clock and
/// destruction publishes one `span` event {name, cat, detail, start_us,
/// dur_us}. When events are off at construction it does one relaxed
/// load and never touches the clock. `eco_cli report --chrome` draws
/// spans on the tuning thread's row of the timeline.
class SpanScope {
public:
  explicit SpanScope(std::string Name, std::string Cat = "",
                     std::string Detail = "");
  ~SpanScope();

  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  bool Active;
  uint64_t StartUs = 0;
  std::string Name, Cat, Detail;
};

} // namespace obs
} // namespace eco

#endif // ECO_OBS_EVENT_H
