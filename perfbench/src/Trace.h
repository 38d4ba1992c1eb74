//===- perfbench/src/Trace.h - Benchmark-local timing decorators -*- C++ -*-//
///
/// \file
/// The traced run's instrumentation. It lives in the benchmark, not in
/// the program: thin decorators over the program's public Evaluator and
/// EvalBackend interfaces time every call the search makes into the
/// engine and every call the engine makes into the simulator backend.
/// Each call becomes a span (name, start, end, parent span, tune or
/// request id, search stage) kept in memory and written out as JSON
/// lines when the traced run ends.
///
/// The decorators also record what the later re-timing needs: every
/// point the search asked for (variant, config, stage, cache hit) and
/// every instantiated nest + config the backend evaluated, with its cost.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Stats.h"

#include "core/Search.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Median seconds of \p Reps calls of \p Fn.
template <typename F> double timeMedian(int Reps, F Fn) {
  std::vector<double> T;
  for (int I = 0; I < Reps; ++I) {
    uint64_t S = nowNs();
    Fn();
    T.push_back(static_cast<double>(nowNs() - S) / 1e9);
  }
  return median(std::move(T));
}

struct Span {
  std::string Name;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
  int Parent = -1;  ///< index into the same log, -1 = root
  uint64_t Id = 0;  ///< tune or request id
  std::string Stage;///< search stage for engine/backend spans
};

/// In-memory span log for one thread. open()/close() nest: a span opened
/// while another is open records it as its parent.
class SpanLog {
public:
  int open(std::string Name, uint64_t Id, std::string Stage = {});
  void close(int Index);
  /// Records an already-measured span under the currently open one.
  void add(Span S);

  const std::vector<Span> &spans() const { return Spans; }
  /// Appends every span as one JSON line to \p Path; false on I/O error.
  bool writeJsonl(const std::string &Path, const std::string &Workload) const;

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// One backend evaluation as the decorator saw it.
struct BackendCall {
  const eco::LoopNest *Nest = nullptr; ///< owned by the engine's memo
  size_t NestIdx = 0; ///< into nests(), filled by snapshotNests()
  eco::Env Config;
  double Cost = 0;
};

/// EvalBackend decorator: forwards everything to the wrapped backend and
/// records a "backend.evaluate" span plus a BackendCall per evaluation.
/// Single-lane only (clone() returns nullptr, so an engine over it runs
/// every evaluation on the caller's thread). One instance serves one
/// engine: the recorded nest pointers point into that engine's
/// instantiation memo, so call snapshotNests() before the engine dies.
class TracedBackend : public eco::EvalBackend {
public:
  TracedBackend(eco::EvalBackend &Inner, SpanLog &Log)
      : Inner(Inner), Log(Log) {}

  double evaluate(const eco::LoopNest &Executable,
                  const eco::Env &Config) override;
  const eco::MachineDesc &machine() const override {
    return Inner.machine();
  }
  std::string cacheSalt() const override { return Inner.cacheSalt(); }
  const eco::HWCounters *hwCounters() const override {
    return Inner.hwCounters();
  }

  /// Stage of the evaluator call in flight (set by TracedEvaluator).
  void setContext(uint64_t Id, const std::string &Stage) {
    CurId = Id;
    CurStage = Stage;
  }
  /// Copies every distinct evaluated nest out of the engine (outside any
  /// timed region) and points each call's NestIdx at its copy.
  void snapshotNests();

  std::vector<BackendCall> &calls() { return Calls; }
  std::vector<eco::LoopNest> &nests() { return Nests; }
  double busySeconds() const { return Busy; }

private:
  eco::EvalBackend &Inner;
  SpanLog &Log;
  uint64_t CurId = 0;
  std::string CurStage;
  std::vector<eco::LoopNest> Nests;
  std::vector<BackendCall> Calls;
  double Busy = 0;
};

/// One point the search asked the evaluator for.
struct PointCall {
  uint64_t Id = 0;     ///< tune id
  std::string Variant; ///< DerivedVariant::Spec.Name
  eco::Env Config;
  std::string Stage;
  bool CacheHit = false;
};

/// Evaluator decorator: forwards to the wrapped evaluator (the engine)
/// and records an "engine.evaluate" span tagged with the search stage,
/// plus a PointCall per point.
class TracedEvaluator : public eco::Evaluator {
public:
  TracedEvaluator(eco::Evaluator &Inner, SpanLog &Log, uint64_t TuneId,
                  TracedBackend *Backend)
      : Inner(Inner), Log(Log), TuneId(TuneId), Backend(Backend) {}

  const eco::MachineDesc &machine() const override { return Inner.machine(); }
  eco::EvalOutcome evaluate(const eco::DerivedVariant &V,
                            const eco::Env &Config,
                            const std::string &Stage) override;
  void warmMany(
      const std::vector<std::pair<const eco::DerivedVariant *, eco::Env>>
          &Points,
      const std::string &Stage) override;
  eco::EvalStats stats() const override { return Inner.stats(); }
  std::vector<eco::StageTelemetry> telemetry() const override {
    return Inner.telemetry();
  }

  const std::vector<PointCall> &points() const { return Points; }
  double busySeconds() const { return Busy; }

private:
  eco::Evaluator &Inner;
  SpanLog &Log;
  uint64_t TuneId;
  TracedBackend *Backend;
  std::vector<PointCall> Points;
  double Busy = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
