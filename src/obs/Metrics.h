//===- obs/Metrics.h - Thread-safe metrics registry ------------*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The tuner's metrics system: named Counters (monotonic uint64), Gauges
/// (settable/addable doubles), and Histograms (fixed log2-scale buckets)
/// collected in a thread-safe MetricsRegistry that snapshots to JSON.
/// Instrumented code never writes the process-wide registry
/// (obs::metrics()) itself: it publishes events (obs/Event.h), and the
/// bus folds each one into the registry through obs::foldEvent — the one
/// table mapping event types to metric names. With events off nothing is
/// published, so the registry stays at zero and costs nothing.
///
/// All metric objects are updated with atomics only (no per-metric lock),
/// so concurrent engine lanes increment freely; the registry's mutex
/// covers only name lookup/creation, and returned references stay valid
/// for the registry's lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_OBS_METRICS_H
#define ECO_OBS_METRICS_H

#include "support/Json.h"
#include "support/Sync.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace eco {
namespace obs {

/// Monotonically increasing event count.
class Counter {
public:
  void inc(uint64_t N = 1) { Val.fetch_add(N, std::memory_order_relaxed); }
  uint64_t value() const { return Val.load(std::memory_order_relaxed); }
  void reset() { Val.store(0, std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Val{0};
};

/// A point-in-time double; add() accumulates (CAS loop, exact for the
/// integral-valued sums we keep, e.g. summed stall cycles).
class Gauge {
public:
  void set(double V) { Val.store(V, std::memory_order_relaxed); }
  void add(double Delta) {
    double Cur = Val.load(std::memory_order_relaxed);
    while (!Val.compare_exchange_weak(Cur, Cur + Delta,
                                      std::memory_order_relaxed))
      ;
  }
  double value() const { return Val.load(std::memory_order_relaxed); }
  void reset() { Val.store(0, std::memory_order_relaxed); }

private:
  std::atomic<double> Val{0};
};

/// Fixed log2-scale histogram: bucket I holds values in
/// (bound(I-1), bound(I)] with bound(I) = FirstBound * 2^I, plus one
/// overflow bucket past the last bound. Values <= FirstBound land in
/// bucket 0. Records are lock-free (atomic buckets + CAS'd sum/min/max).
class Histogram {
public:
  /// \p FirstBound: upper bound of bucket 0 (must be > 0).
  /// \p NumBuckets: bounded buckets; one overflow bucket is added.
  explicit Histogram(double FirstBound = 1e-3, unsigned NumBuckets = 40);

  void record(double V);

  uint64_t count() const { return Count.load(std::memory_order_relaxed); }
  double sum() const { return Sum.load(std::memory_order_relaxed); }
  /// Smallest/largest recorded value (0 when empty).
  double minValue() const;
  double maxValue() const;

  /// Bounded buckets only (excludes overflow).
  unsigned numBuckets() const { return NumBounded; }
  /// Upper bound of bucket \p I (I < numBuckets()).
  double bucketBound(unsigned I) const;
  /// Count in bucket \p I; I == numBuckets() addresses the overflow
  /// bucket.
  uint64_t bucketCount(unsigned I) const;

  /// The value at quantile \p Q in [0, 1], derived exactly from the
  /// log2 bucket counts: the rank-th record (rank = ceil(Q * count),
  /// at least 1) is located by a cumulative walk and the containing
  /// bucket's upper bound is returned, clamped to [minValue, maxValue].
  ///
  /// Error bound: the true quantile lies inside the same bucket, whose
  /// bounds differ by exactly 2x — so the returned value overestimates
  /// the true quantile by at most a factor of 2 (and is exact whenever
  /// the clamp to min/max applies, e.g. single-valued data). Returns 0
  /// when empty. Under concurrent record() the result reflects some
  /// recent state, like every other accessor.
  double quantile(double Q) const;

  /// {"count":..,"sum":..,"min":..,"max":..,"firstBound":..,
  ///  "buckets":[..], "overflow":.., "p50":.., "p95":.., "p99":..}
  /// — buckets with trailing zeros trimmed so dumps stay small;
  /// the p* fields are quantile() snapshots (present when count > 0).
  Json toJson() const;

  void reset();

private:
  double FirstBound;
  unsigned NumBounded;
  std::vector<std::atomic<uint64_t>> Buckets; ///< NumBounded + overflow
  std::atomic<uint64_t> Count{0};
  std::atomic<double> Sum{0};
  std::atomic<double> Min{0}, Max{0}; ///< valid when Count > 0
};

/// Thread-safe name -> metric store. Lookup creates on first use; the
/// returned references remain valid until the registry is destroyed
/// (metrics are never erased, resetValues() zeroes them in place).
class MetricsRegistry {
public:
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  /// \p FirstBound / \p NumBuckets apply only on first creation.
  Histogram &histogram(const std::string &Name, double FirstBound = 1e-3,
                       unsigned NumBuckets = 40);

  /// Point-in-time snapshot:
  /// {"counters":{name:value}, "gauges":{...}, "histograms":{...}}.
  Json toJson() const;

  /// Point-in-time snapshot in Prometheus text exposition format
  /// (version 0.0.4): counters as `# TYPE eco_<name> counter`, gauges
  /// as gauges, histograms as the standard cumulative-`le` bucket
  /// series plus `_sum`/`_count`. Metric names are prefixed "eco_" and
  /// sanitized (every character outside [a-zA-Z0-9_:] becomes '_'),
  /// so "eval.cache_hits" scrapes as eco_eval_cache_hits.
  std::string toPrometheus() const;

  /// Zeroes every metric in place (references stay valid). Used by the
  /// CLI at tune start and by tests.
  void resetValues();

  /// Sum of every counter whose name starts with \p Prefix — the
  /// reconciliation helper (e.g. sum of "eval.points." counters must
  /// equal TuneResult::TotalPoints).
  uint64_t sumCounters(const std::string &Prefix) const;

private:
  mutable Mutex M{"obs.metrics"};
  std::map<std::string, std::unique_ptr<Counter>> Counters
      ECO_GUARDED_BY(M);
  std::map<std::string, std::unique_ptr<Gauge>> Gauges ECO_GUARDED_BY(M);
  std::map<std::string, std::unique_ptr<Histogram>> Histograms
      ECO_GUARDED_BY(M);
};

/// The process-wide registry the event bus folds into.
MetricsRegistry &metrics();

struct Event;

/// Updates the process-wide registry from one published event. Called by
/// EventBus::publish under the bus mutex; the mapping from event types
/// to metric names lives here and nowhere else.
void foldEvent(const Event &E);

} // namespace obs
} // namespace eco

#endif // ECO_OBS_METRICS_H
