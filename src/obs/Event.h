//===- obs/Event.h - Structured decision-event bus -------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tuner's flight recorder: a thread-safe, bounded bus of structured
/// decision events. Where metrics answer "how many" and spans answer
/// "how long", events answer "why" — each one records a single decision
/// the tuner made (a variant derived or rejected, a warm start seeded or
/// reverted, a config evaluated, the winner updated) with enough payload
/// to reconstruct the search after the fact.
///
/// Publishers guard every call with obs::eventsEnabled() (one relaxed
/// atomic load), so the evaluation hot path pays nothing unless the user
/// asked for an event stream (--events-file or a live reader). Events
/// flow to two places:
///
///   - a JSONL file sink (one event object per line), the durable
///     artifact `eco_cli report` and `eco_check --audit-events` consume;
///   - a bounded in-memory ring for live readers (the serve daemon's
///     introspection verbs). On overflow the ring drops the *oldest*
///     event and bumps the `obs.events_dropped` counter — live readers
///     see a recent window, never a stalled publisher.
///
/// Event types published today (payload fields in parentheses):
///
///   tune.start         (nest, problem, variants hint, machine
///                       fingerprint, prefer_variant when set)
///   variant.derived    (variant)
///   variant.rejected   (variant plan, reason)        — TransformError
///   variant.ranked     (variant, heuristic cost, config) — model initial
///   variant.pruned     (variant, rank, reason)       — ranked, not searched
///   warmstart.seeded   (variant, params[{name,value,lo,hi}])
///   warmstart.reverted (variant, seed cost, model cost)
///   stage.bounds       (variant, param, lo, hi)
///   config.evaluated   (variant, stage, config, cost, cache_hit, warm,
///                       lane, ms)
///   config.rejected    (variant, stage, config, reason) — TransformError
///   winner.updated     (variant, config, cost)
///   stage.telemetry    (variant, stage, evals, hits, hw counters)
///   tune.done          (reconciliation totals + winner; see Tuner.cpp)
///   job.submitted / job.started / job.finished — serve daemon lifecycle
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
#include <deque>
#include <map>
#include <string>
#include <vector>

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

  /// Ring capacity for live readers (default 4096). Shrinking drops the
  /// oldest entries immediately (counted as dropped).
  void setCapacity(size_t N);
  size_t capacity() const;

  /// Publishes one event: stamps Seq/TimeUs/Job, appends to the JSONL
  /// sink (if open) and the ring. No-op unless the bus is enabled.
  void publish(std::string Type, Json Fields);

  /// Oldest-first copy of the live ring.
  std::vector<Event> snapshot() const;

  /// Events published / dropped from the ring since the last clear().
  uint64_t published() const;
  uint64_t dropped() const;
  /// Publications of \p Type since the last clear() (counts every
  /// publish, including events since rotated out of the ring). The
  /// tuner diffs these around a tune to stamp reconciliation totals
  /// into the tune.done event.
  uint64_t typeCount(const std::string &Type) const;

  /// Opens (or replaces) the JSONL sink. Returns false on I/O failure.
  bool openFile(const std::string &Path, bool Append = false);
  void closeFile();
  /// Installs \p F (may be null) as the JSONL sink and hands back the
  /// previous one unclosed, so a caller can divert the stream and later
  /// put the original sink back untouched. The caller owns the result.
  FILE *swapFile(FILE *F);
  void flush();

  /// Drops ring contents and zeroes counters (sequence numbers keep
  /// rising so files with multiple segments stay strictly ordered).
  void clear();

private:
  mutable Mutex M{"obs.events"};
  std::deque<Event> Ring ECO_GUARDED_BY(M);
  size_t Capacity ECO_GUARDED_BY(M) = 4096;
  uint64_t NextSeq ECO_GUARDED_BY(M) = 0;
  uint64_t Published ECO_GUARDED_BY(M) = 0;
  uint64_t Dropped ECO_GUARDED_BY(M) = 0;
  std::map<std::string, uint64_t> TypeCounts ECO_GUARDED_BY(M);
  FILE *File ECO_GUARDED_BY(M) = nullptr;
};

/// Global kill-switch mirroring metricsEnabled(): one relaxed load.
/// Publishers must check this before building payloads.
bool eventsEnabled();
void setEventsEnabled(bool Enabled);

/// Publishes through the global bus; call only under eventsEnabled().
void publishEvent(std::string Type, Json Fields);

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

} // namespace obs
} // namespace eco

#endif // ECO_OBS_EVENT_H
