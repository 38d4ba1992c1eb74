//===- perfbench/src/Trace.cpp - Benchmark-local timing decorators --------===//

#include "Trace.h"

#include "support/Json.h"

#include <cstdio>
#include <map>

using namespace perfbench;

int SpanLog::open(std::string Name, uint64_t Id, std::string Stage) {
  Span S;
  S.Name = std::move(Name);
  S.Id = Id;
  S.Stage = std::move(Stage);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size() - 1));
  return Open.back();
}

void SpanLog::close(int Index) {
  Spans[static_cast<size_t>(Index)].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

void SpanLog::add(Span S) {
  S.Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back(std::move(S));
}

bool SpanLog::writeJsonl(const std::string &Path,
                         const std::string &Workload) const {
  FILE *F = std::fopen(Path.c_str(), "a");
  if (!F)
    return false;
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    eco::Json J = eco::Json::object();
    J.set("workload", Workload);
    J.set("idx", static_cast<int64_t>(I));
    J.set("name", S.Name);
    J.set("start_ns", static_cast<double>(S.StartNs));
    J.set("end_ns", static_cast<double>(S.EndNs));
    J.set("parent", S.Parent);
    J.set("id", static_cast<int64_t>(S.Id));
    if (!S.Stage.empty())
      J.set("stage", S.Stage);
    std::fprintf(F, "%s\n", J.dump().c_str());
  }
  return std::fclose(F) == 0;
}

double TracedBackend::evaluate(const eco::LoopNest &Executable,
                               const eco::Env &Config) {
  int S = Log.open("backend.evaluate", CurId, CurStage);
  uint64_t Start = nowNs();
  double Cost = Inner.evaluate(Executable, Config);
  Busy += static_cast<double>(nowNs() - Start) / 1e9;
  Log.close(S);

  BackendCall C;
  C.Nest = &Executable;
  C.Config = Config;
  C.Cost = Cost;
  Calls.push_back(std::move(C));
  return Cost;
}

void TracedBackend::snapshotNests() {
  std::map<const eco::LoopNest *, size_t> Index;
  for (BackendCall &C : Calls) {
    if (!C.Nest)
      continue;
    auto [It, Fresh] = Index.emplace(C.Nest, Nests.size());
    if (Fresh)
      Nests.push_back(C.Nest->clone());
    C.NestIdx = It->second;
    C.Nest = nullptr;
  }
}

eco::EvalOutcome TracedEvaluator::evaluate(const eco::DerivedVariant &V,
                                           const eco::Env &Config,
                                           const std::string &Stage) {
  if (Backend)
    Backend->setContext(TuneId, Stage);
  int S = Log.open("engine.evaluate", TuneId, Stage);
  uint64_t Start = nowNs();
  eco::EvalOutcome O = Inner.evaluate(V, Config, Stage);
  Busy += static_cast<double>(nowNs() - Start) / 1e9;
  Log.close(S);

  PointCall P;
  P.Id = TuneId;
  P.Variant = V.Spec.Name;
  P.Config = Config;
  P.Stage = Stage;
  P.CacheHit = O.CacheHit;
  Points.push_back(std::move(P));
  return O;
}

void TracedEvaluator::warmMany(
    const std::vector<std::pair<const eco::DerivedVariant *, eco::Env>>
        &Batch,
    const std::string &Stage) {
  if (Backend)
    Backend->setContext(TuneId, Stage);
  int S = Log.open("engine.warm", TuneId, Stage);
  uint64_t Start = nowNs();
  Inner.warmMany(Batch, Stage);
  Busy += static_cast<double>(nowNs() - Start) / 1e9;
  Log.close(S);
}
