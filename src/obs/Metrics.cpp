//===- obs/Metrics.cpp - Thread-safe metrics registry ---------------------===//

#include "obs/Metrics.h"

#include "obs/Event.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace eco;
using namespace eco::obs;

Histogram::Histogram(double FirstBound, unsigned NumBuckets)
    : FirstBound(FirstBound), NumBounded(NumBuckets),
      Buckets(NumBuckets + 1) {
  assert(FirstBound > 0 && "first bucket bound must be positive");
  assert(NumBuckets > 0 && NumBuckets <= 64 && "unreasonable bucket count");
}

double Histogram::bucketBound(unsigned I) const {
  assert(I < NumBounded && "overflow bucket has no bound");
  double Bound = FirstBound;
  for (unsigned B = 0; B < I; ++B)
    Bound *= 2;
  return Bound;
}

uint64_t Histogram::bucketCount(unsigned I) const {
  assert(I <= NumBounded && "bucket index out of range");
  return Buckets[I].load(std::memory_order_relaxed);
}

void Histogram::record(double V) {
  // Walk the doubling bounds; the loop is exact (no log/exp rounding at
  // the boundaries, which the bucket tests pin down) and short.
  unsigned I = 0;
  double Bound = FirstBound;
  while (I < NumBounded && V > Bound) {
    Bound *= 2;
    ++I;
  }
  // I == NumBounded means V exceeded every bound: overflow bucket.
  Buckets[I].fetch_add(1, std::memory_order_relaxed);

  uint64_t Prev = Count.fetch_add(1, std::memory_order_relaxed);
  double Cur = Sum.load(std::memory_order_relaxed);
  while (!Sum.compare_exchange_weak(Cur, Cur + V,
                                    std::memory_order_relaxed))
    ;
  if (Prev == 0) {
    // First record initializes min/max; later records CAS toward V.
    // A racing first pair may both think they are first — the CAS loops
    // below still converge to the true extrema because each retries
    // against the live value.
    Min.store(V, std::memory_order_relaxed);
    Max.store(V, std::memory_order_relaxed);
  }
  double CurMin = Min.load(std::memory_order_relaxed);
  while (V < CurMin &&
         !Min.compare_exchange_weak(CurMin, V, std::memory_order_relaxed))
    ;
  double CurMax = Max.load(std::memory_order_relaxed);
  while (V > CurMax &&
         !Max.compare_exchange_weak(CurMax, V, std::memory_order_relaxed))
    ;
}

double Histogram::minValue() const {
  return count() ? Min.load(std::memory_order_relaxed) : 0;
}

double Histogram::maxValue() const {
  return count() ? Max.load(std::memory_order_relaxed) : 0;
}

double Histogram::quantile(double Q) const {
  uint64_t Total = count();
  if (!Total)
    return 0;
  Q = std::min(1.0, std::max(0.0, Q));
  // Rank of the quantile record, 1-based; Q=0 asks for the first record.
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Total));
  if (Rank * 1.0 < Q * static_cast<double>(Total) || Rank == 0)
    ++Rank; // ceil, and at least 1
  if (Rank > Total)
    Rank = Total;
  uint64_t Seen = 0;
  for (unsigned I = 0; I <= NumBounded; ++I) {
    Seen += bucketCount(I);
    if (Seen >= Rank) {
      // Overflow bucket has no upper bound; report the observed max.
      double V = I < NumBounded ? bucketBound(I) : maxValue();
      return std::min(std::max(V, minValue()), maxValue());
    }
  }
  // Racing record() can make Count exceed the bucket sum momentarily.
  return maxValue();
}

Json Histogram::toJson() const {
  Json J = Json::object();
  J.set("count", count());
  J.set("sum", sum());
  J.set("min", minValue());
  J.set("max", maxValue());
  J.set("firstBound", FirstBound);
  unsigned Last = 0;
  for (unsigned I = 0; I < NumBounded; ++I)
    if (bucketCount(I))
      Last = I + 1;
  Json Bs = Json::array();
  for (unsigned I = 0; I < Last; ++I)
    Bs.push(bucketCount(I));
  J.set("buckets", std::move(Bs));
  J.set("overflow", bucketCount(NumBounded));
  if (count()) {
    J.set("p50", quantile(0.50));
    J.set("p95", quantile(0.95));
    J.set("p99", quantile(0.99));
  }
  return J;
}

void Histogram::reset() {
  for (std::atomic<uint64_t> &B : Buckets)
    B.store(0, std::memory_order_relaxed);
  Count.store(0, std::memory_order_relaxed);
  Sum.store(0, std::memory_order_relaxed);
  Min.store(0, std::memory_order_relaxed);
  Max.store(0, std::memory_order_relaxed);
}

Counter &MetricsRegistry::counter(const std::string &Name) {
  MutexLock Lock(M);
  std::unique_ptr<Counter> &Slot = Counters[Name];
  if (!Slot)
    Slot = std::make_unique<Counter>();
  return *Slot;
}

Gauge &MetricsRegistry::gauge(const std::string &Name) {
  MutexLock Lock(M);
  std::unique_ptr<Gauge> &Slot = Gauges[Name];
  if (!Slot)
    Slot = std::make_unique<Gauge>();
  return *Slot;
}

Histogram &MetricsRegistry::histogram(const std::string &Name,
                                      double FirstBound,
                                      unsigned NumBuckets) {
  MutexLock Lock(M);
  std::unique_ptr<Histogram> &Slot = Histograms[Name];
  if (!Slot)
    Slot = std::make_unique<Histogram>(FirstBound, NumBuckets);
  return *Slot;
}

Json MetricsRegistry::toJson() const {
  MutexLock Lock(M);
  Json Cs = Json::object();
  for (const auto &[Name, C] : Counters)
    Cs.set(Name, C->value());
  Json Gs = Json::object();
  for (const auto &[Name, G] : Gauges)
    Gs.set(Name, G->value());
  Json Hs = Json::object();
  for (const auto &[Name, H] : Histograms)
    Hs.set(Name, H->toJson());
  Json Root = Json::object();
  Root.set("counters", std::move(Cs));
  Root.set("gauges", std::move(Gs));
  Root.set("histograms", std::move(Hs));
  return Root;
}

namespace {

std::string promName(const std::string &Name) {
  std::string Out = "eco_";
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_' || C == ':';
    Out.push_back(Ok ? C : '_');
  }
  return Out;
}

std::string promNumber(double V) {
  char Buf[64];
  // Integral values print without an exponent so counters stay readable;
  // %.17g keeps full double precision otherwise (matches Json::dump).
  if (V == static_cast<double>(static_cast<long long>(V)))
    snprintf(Buf, sizeof(Buf), "%lld", static_cast<long long>(V));
  else
    snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

std::string MetricsRegistry::toPrometheus() const {
  MutexLock Lock(M);
  std::string Out;
  for (const auto &[Name, C] : Counters) {
    std::string P = promName(Name);
    Out += "# TYPE " + P + " counter\n";
    Out += P + " " + promNumber(static_cast<double>(C->value())) + "\n";
  }
  for (const auto &[Name, G] : Gauges) {
    std::string P = promName(Name);
    Out += "# TYPE " + P + " gauge\n";
    Out += P + " " + promNumber(G->value()) + "\n";
  }
  for (const auto &[Name, H] : Histograms) {
    std::string P = promName(Name);
    Out += "# TYPE " + P + " histogram\n";
    // Prometheus buckets are cumulative: each `le` series counts every
    // record at or below that bound, ending with the +Inf total.
    uint64_t Cum = 0;
    for (unsigned I = 0; I < H->numBuckets(); ++I) {
      Cum += H->bucketCount(I);
      Out += P + "_bucket{le=\"" + promNumber(H->bucketBound(I)) + "\"} " +
             promNumber(static_cast<double>(Cum)) + "\n";
    }
    Cum += H->bucketCount(H->numBuckets());
    Out += P + "_bucket{le=\"+Inf\"} " +
           promNumber(static_cast<double>(Cum)) + "\n";
    Out += P + "_sum " + promNumber(H->sum()) + "\n";
    Out += P + "_count " + promNumber(static_cast<double>(H->count())) +
           "\n";
  }
  return Out;
}

void MetricsRegistry::resetValues() {
  MutexLock Lock(M);
  for (auto &[Name, C] : Counters)
    C->reset();
  for (auto &[Name, G] : Gauges)
    G->reset();
  for (auto &[Name, H] : Histograms)
    H->reset();
}

uint64_t MetricsRegistry::sumCounters(const std::string &Prefix) const {
  MutexLock Lock(M);
  uint64_t Total = 0;
  for (const auto &[Name, C] : Counters)
    if (Name.compare(0, Prefix.size(), Prefix) == 0)
      Total += C->value();
  return Total;
}

MetricsRegistry &obs::metrics() {
  static MetricsRegistry Registry;
  return Registry;
}

void obs::foldEvent(const Event &E) {
  MetricsRegistry &Reg = metrics();
  const Json &F = E.Fields;
  const std::string &T = E.Type;
  auto count = [&F](const char *Key) {
    return static_cast<uint64_t>(F.get(Key).asInt());
  };
  // Events that each bump one counter.
  static const std::map<std::string, const char *> Counts = {
      {"config.rejected", "transform.rejected"},
      {"variant.rejected", "transform.rejected"},
      {"job.submitted", "serve.submitted"},
      {"cache.loaded", "cache.loads"},
      {"cache.saved", "cache.saves"},
      {"db.saved", "serve.db_saves"}};
  if (auto It = Counts.find(T); It != Counts.end())
    Reg.counter(It->second).inc();
  // Job events carry the queue length they left (a refused submit left
  // it alone); worker events carry the live worker count.
  if (T.rfind("job.", 0) == 0 && F.has("queue_depth") && !F.has("rejected"))
    Reg.gauge("serve.queue_depth").set(F.get("queue_depth").asNumber());
  if (T == "worker.joined" || T == "worker.lost")
    Reg.gauge("serve.workers_live").set(F.get("live").asNumber());

  if (T == "config.evaluated") {
    // Per-(variant, stage) buckets: eval.points.<v>.<s> / eval.hits.<v>.<s>.
    std::string Bucket =
        F.get("variant").asString() + "." + F.get("stage").asString();
    if (F.get("cache_hit").asBool()) {
      Reg.counter("eval.cache_hits").inc();
      Reg.counter("eval.hits." + Bucket).inc();
    } else {
      Reg.counter("eval.evaluations").inc();
      Reg.counter("eval.points." + Bucket).inc();
      Reg.histogram("eval.latency_ms").record(F.get("ms").asNumber());
    }
  } else if (T == "stage.telemetry" && F.has("loads")) {
    // Rows without "loads" come from a backend that counts no hardware.
    for (const char *Key : {"loads", "stores", "prefetches", "flops",
                            "l1_misses", "l2_misses", "tlb_misses"})
      Reg.counter(std::string("hw.") + Key).inc(count(Key));
    Reg.gauge("hw.issue_cycles").add(F.get("issue_cycles").asNumber());
    Reg.gauge("hw.stall_cycles").add(F.get("stall_cycles").asNumber());
  } else if (T == "tune.start") {
    Reg.gauge("tune.variants_total").set(0);
    Reg.gauge("tune.variants_done").set(0);
  } else if (T == "variant.ranked" || T == "variant.pruned") {
    // Every ranked variant is searched unless a variant.pruned follows.
    Reg.gauge("tune.variants_total").add(T == "variant.ranked" ? 1 : -1);
  } else if (T == "span" && F.get("name").asString().rfind("search:", 0) == 0) {
    Reg.gauge("tune.variants_done").add(1);
  } else if (T == "job.finished") {
    Reg.counter("serve." + F.get("status").asString()).inc();
    if (F.has("warm_start"))
      Reg.counter("serve.warm_" + F.get("warm_start").asString()).inc();
    // Millisecond histograms: first bucket <= 0.01ms, ~40 log2 buckets
    // reach minutes of latency.
    Reg.histogram("serve.wait_ms", 0.01).record(F.get("queue_ms").asNumber());
    Reg.histogram("serve.run_ms", 0.01).record(F.get("run_ms").asNumber());
  } else if (T == "batch.failed") {
    Reg.counter("serve.batches_failed").inc();
  } else if (T == "cache.loaded" && count("foreign")) {
    Reg.counter("cache.foreign_rejected").inc(count("foreign"));
  }
}
