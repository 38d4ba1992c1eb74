//===- perfbench/src/ServeWorkload.cpp - serve_mixed -----------------------===//
//
// An in-process daemon exactly as eco_served builds it: a TuneService
// with the default single scheduler worker and a persistent ConfigDB
// file, a Server on a unix socket, and one eco_worker fleet worker
// (runWorker on a thread, over the same socket). Set-up pre-seeds the DB
// with cold tunes of the plan's anchors. Then four client connections
// replay the seed's open-loop schedule: reads ("query", a direct DB
// probe), exact-hit submits (queued, zero evaluations) and a few warm
// submits of unseen sizes (warm-started tunes that write DB rows). Every
// request is timed from its due time, so a stalled connection charges
// its wait to the requests behind it.
//
//===----------------------------------------------------------------------===//

#include "Host.h"
#include "Stats.h"
#include "Trace.h"
#include "Workloads.h"

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "serve/Worker.h"
#include "transform/TransformError.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>

using namespace perfbench;
using namespace eco;
using namespace eco::serve;

namespace {

/// Latency limit of the reads and exact hits, and the share of them that
/// must meet it for a ladder rung to count as served.
constexpr double SloLimitMs = 100;
constexpr double SloTarget = 0.9;

JobSpec specOf(const Problem &P) {
  JobSpec S;
  S.Kernel = P.Kernel;
  S.Machine = P.Machine;
  S.Scale = P.Scale;
  S.N = P.N;
  return S;
}

/// One request as the client saw it.
struct Sample {
  Request Req;
  double LatencyS = 0; ///< due time -> response
  double LateS = 0;    ///< due time -> send
  bool Ok = false;
  JobResult Result;    ///< submits only
};

/// The daemon under test; torn down in the order eco_served uses.
class Daemon {
public:
  Daemon(const std::string &Dir, const std::vector<Problem> &Anchors,
         Outcome &O);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  TuneService &service() { return *Service; }
  const std::string &socket() const { return Socket; }
  /// The anchor rows the set-up tunes stored, by Problem::label().
  std::map<std::string, TunedEntry> Rows;

private:
  std::string Socket;
  std::unique_ptr<TuneService> Service;
  std::unique_ptr<Server> Srv;
  std::atomic<bool> WorkerStop{false};
  std::thread Worker;
};

Daemon::Daemon(const std::string &Dir, const std::vector<Problem> &Anchors,
               Outcome &O) {
  std::string Db = Dir + "/serve-db.json";
  std::remove(Db.c_str());
  ServiceOptions SO;
  SO.DbPath = Db;
  Service = std::make_unique<TuneService>(SO);
  for (const Problem &A : Anchors) {
    ++O.Attempted;
    JobResult R = Service->run(specOf(A));
    if (!R.ok() || R.WarmStart != "cold") {
      O.fail("anchor " + A.label() + " did not tune cold: " + R.Status +
             " " + R.Error);
      continue;
    }
    MachineDesc M = buildCase(A).Machine;
    if (auto Row = Service->db().exact(A.Kernel, M.fingerprint(), A.N))
      Rows[A.label()] = *Row;
    else
      O.fail("anchor " + A.label() + " left no DB row");
  }

  Socket = Dir + "/serve.sock";
  std::remove(Socket.c_str());
  ServerOptions SrvOpts;
  SrvOpts.UnixPath = Socket;
  Srv = std::make_unique<Server>(*Service, SrvOpts);
  std::string Err;
  if (!Srv->start(&Err))
    throw std::runtime_error("server start failed: " + Err);

  WorkerOptions W;
  W.Socket = Socket;
  W.Name = "perfbench";
  W.PollWaitMs = 100;
  W.Stop = &WorkerStop;
  Worker = std::thread([W] { runWorker(W); });
  for (int I = 0; I < 500 && Service->workers().liveWorkers() < 1; ++I)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  if (Service->workers().liveWorkers() < 1) {
    WorkerStop.store(true);
    Worker.join();
    throw std::runtime_error("fleet worker did not register");
  }
}

Daemon::~Daemon() {
  WorkerStop.store(true);
  if (Worker.joinable())
    Worker.join();
  Srv->stop();
  Service->drain();
  std::remove(Socket.c_str());
}

bool sameAsRow(const TunedEntry &Row, double Cost, const std::string &Variant,
               const ParamBindings &Config) {
  return Cost == Row.BestCost && Variant == Row.Variant &&
         Config == Row.Config;
}

ParamBindings configOf(const Json &J) {
  ParamBindings B;
  for (const auto &[Name, Value] : J.fields())
    B.emplace_back(Name, Value.asInt());
  return B;
}

/// Rebuilds a served answer from scratch (fresh derivation, fresh
/// simulator) and returns its counters; false when it cannot be rebuilt.
bool rebuildAnswer(const Problem &P, const std::string &Variant,
                   const ParamBindings &Config, HWCounters &Out) {
  Case C = buildCase(P);
  DeriveOptions D;
  D.setRepresentativeSize(P.N);
  std::vector<DerivedVariant> Vs = deriveVariants(C.Nest, C.Machine, D);
  for (const DerivedVariant &V : Vs) {
    if (V.Spec.Name != Variant)
      continue;
    Env E(V.Skeleton.Syms.size());
    for (const auto &[Name, Value] : Config) {
      SymbolId Id = V.Skeleton.Syms.lookup(Name);
      if (Id < 0)
        return false;
      E.set(Id, Value);
    }
    try {
      Out = resimulate(V.instantiate(E, C.Machine), E, C.Machine);
      return true;
    } catch (const TransformError &) {
      return false;
    }
  }
  return false;
}

class ServeWorkload {
public:
  explicit ServeWorkload(const RunOptions &Opts)
      : Opts(Opts), Plan(servePlan(Opts.Seed, Opts.Seconds)) {}
  Outcome run();

private:
  /// Replays the plan against \p D; returns every sample, in plan order.
  std::vector<Sample> traffic(Daemon &D, std::vector<SpanLog> *Logs,
                              size_t *DepthMax, double *LateMax);
  void checkReads(const Daemon &D, const std::vector<Sample> &S, Outcome &O);
  void endToEnd(const std::vector<Sample> &S, const std::vector<double> &Cpf,
                Outcome &O);
  void perLayer(Daemon &D, const std::vector<Sample> &S, size_t DepthMax,
                double LateMax, size_t CacheBefore, Outcome &O);

  const RunOptions &Opts;
  ServePlan Plan;
  double TrafficScale = 1; ///< median host speed scale during traffic
};

std::vector<Sample> ServeWorkload::traffic(Daemon &D,
                                           std::vector<SpanLog> *Logs,
                                           size_t *DepthMax,
                                           double *LateMax) {
  std::vector<Sample> Samples(Plan.Requests.size());
  std::vector<std::unique_ptr<Client>> Clients;
  for (int C = 0; C < Plan.Conns; ++C) {
    std::string Err;
    auto Cl = Client::connectUnix(D.socket(), &Err);
    if (!Cl)
      throw std::runtime_error("connect failed: " + Err);
    Cl->setRecvTimeout(60000);
    Clients.push_back(std::move(Cl));
  }
  if (Logs)
    Logs->assign(static_cast<size_t>(Plan.Conns), SpanLog());

  std::atomic<bool> Done{false};
  std::thread Sampler;
  if (DepthMax)
    Sampler = std::thread([&] {
      while (!Done.load()) {
        *DepthMax = std::max(*DepthMax, D.service().queueDepth());
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

  std::atomic<int> Running{Plan.Conns};
  const uint64_t T0 = nowNs() + 20'000'000; // 20 ms to get every thread going
  std::vector<double> ConnLate(static_cast<size_t>(Plan.Conns), 0);
  std::vector<std::thread> Threads;
  for (int C = 0; C < Plan.Conns; ++C)
    Threads.emplace_back([&, C] {
      Client &Cl = *Clients[static_cast<size_t>(C)];
      SpanLog *Log = Logs ? &(*Logs)[static_cast<size_t>(C)] : nullptr;
      for (size_t I = 0; I < Plan.Requests.size(); ++I) {
        const Request &Q = Plan.Requests[I];
        if (Q.Conn != C)
          continue;
        uint64_t Due = T0 + static_cast<uint64_t>(Q.DueS * 1e9);
        while (nowNs() < Due)
          std::this_thread::sleep_for(std::chrono::nanoseconds(Due - nowNs()));
        Sample &S = Samples[I];
        S.Req = Q;
        uint64_t Sent = nowNs();
        S.LateS = static_cast<double>(Sent - Due) / 1e9;
        ConnLate[static_cast<size_t>(C)] =
            std::max(ConnLate[static_cast<size_t>(C)], S.LateS);
        static const char *Names[] = {"client.query", "client.exact",
                                      "client.warm"};
        if (Q.K == Request::Query) {
          Json R = Cl.query(specOf(Q.P));
          S.Ok = R.get("ok").asBool() && R.get("status").asString() == "hit";
          S.Result.Cost = R.get("cost").asNumber();
          S.Result.Variant = R.get("variant").asString();
          S.Result.Config = configOf(R.get("config"));
        } else {
          S.Result = Cl.submit(specOf(Q.P));
          S.Ok = S.Result.ok();
        }
        uint64_t End = nowNs();
        S.LatencyS = static_cast<double>(End - Due) / 1e9;
        if (Log) {
          Span Sp;
          Sp.Name = Names[Q.K];
          Sp.StartNs = Sent;
          Sp.EndNs = End;
          Sp.Id = I;
          Log->add(std::move(Sp));
        }
      }
      Running.fetch_sub(1);
    });
  // The host speed is sampled on this otherwise idle thread while the
  // traffic runs (the tunes themselves run on the daemon's threads).
  HostSpeed TrafficSpeed;
  while (Running.load() > 0) {
    TrafficSpeed.sample();
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  TrafficScale = TrafficSpeed.medianScale();
  for (std::thread &T : Threads)
    T.join();
  Done.store(true);
  if (Sampler.joinable())
    Sampler.join();
  if (LateMax)
    for (double L : ConnLate)
      *LateMax = std::max(*LateMax, L);
  return Samples;
}

void ServeWorkload::checkReads(const Daemon &D, const std::vector<Sample> &S,
                               Outcome &O) {
  for (const Sample &X : S) {
    ++O.Attempted;
    const std::string Label = X.Req.P.label();
    if (!X.Ok) {
      O.fail(Label + ": request failed: " + X.Result.Status + " " +
             X.Result.Error);
      continue;
    }
    if (X.Req.K == Request::Warm)
      continue; // rebuilt from scratch and checked in run()
    auto Row = D.Rows.find(Label);
    if (Row == D.Rows.end() ||
        (X.Req.K == Request::Exact && X.Result.WarmStart != "exact") ||
        !sameAsRow(Row->second, X.Result.Cost, X.Result.Variant,
                   X.Result.Config))
      O.fail(Label + ": served answer differs from its DB row");
  }
}

Outcome ServeWorkload::run() {
  Outcome O;
  std::unique_ptr<Daemon> D;
  if (Opts.Trace) {
    D = std::make_unique<Daemon>(Opts.OutDir, Plan.Anchors, O);
  } else {
    std::vector<double> Setups;
    HostSpeed SetupSpeed;
    for (int Rep = 0; Rep < 3; ++Rep) {
      D.reset();
      SetupSpeed.sample();
      uint64_t Start = nowNs();
      D = std::make_unique<Daemon>(Opts.OutDir, Plan.Anchors, O);
      Setups.push_back(secondsSince(Start));
    }
    SetupSpeed.sample();
    O.Metrics["setup_s"] = median(Setups) * SetupSpeed.medianScale();
  }
  // Anchor rows must be bitwise replayable too.
  for (const auto &[Label, Row] : D->Rows) {
    ++O.Attempted;
    HWCounters HW;
    Problem P;
    for (const Problem &A : Plan.Anchors)
      if (A.label() == Label)
        P = A;
    if (!rebuildAnswer(P, Row.Variant, Row.Config, HW) ||
        HW.cycles() != Row.BestCost)
      O.fail(Label + ": anchor row does not re-simulate to its cost");
  }

  size_t CacheBefore = static_cast<size_t>(
      D->service().statsJson().get("cache_entries").asInt());
  std::vector<SpanLog> Logs;
  size_t DepthMax = 0;
  double LateMax = 0;
  std::vector<Sample> S = traffic(*D, Opts.Trace ? &Logs : nullptr,
                                  Opts.Trace ? &DepthMax : nullptr, &LateMax);
  checkReads(*D, S, O);

  // Warm answers: rebuilt from scratch they must cost exactly what was
  // served, and the DB must now hold exactly that row.
  std::vector<double> Cpf;
  for (const Sample &X : S) {
    if (X.Req.K != Request::Warm || !X.Ok)
      continue;
    ++O.Attempted;
    HWCounters HW;
    MachineDesc M = buildCase(X.Req.P).Machine;
    auto Row = D->service().db().exact(X.Req.P.Kernel, M.fingerprint(),
                                       X.Req.P.N);
    if (X.Result.WarmStart != "nearest" ||
        !rebuildAnswer(X.Req.P, X.Result.Variant, X.Result.Config, HW) ||
        HW.cycles() != X.Result.Cost || HW.Flops == 0 || !Row ||
        !sameAsRow(*Row, X.Result.Cost, X.Result.Variant, X.Result.Config)) {
      O.fail(X.Req.P.label() + ": warm answer does not reproduce");
      continue;
    }
    Cpf.push_back(HW.cycles() / static_cast<double>(HW.Flops));
  }

  if (Opts.Trace) {
    std::string SpanPath = Opts.OutDir + "/spans-" + Opts.Workload + ".jsonl";
    std::remove(SpanPath.c_str());
    for (const SpanLog &L : Logs)
      L.writeJsonl(SpanPath, Opts.Workload);
    perLayer(*D, S, DepthMax, LateMax, CacheBefore, O);
  } else {
    endToEnd(S, Cpf, O);
  }
  D.reset();
  O.Metrics["peak_rss_mb"] = peakRssMb();
  return O;
}

void ServeWorkload::endToEnd(const std::vector<Sample> &S,
                             const std::vector<double> &Cpf, Outcome &O) {
  std::vector<double> TuneS, Points;
  double PointSum = 0, RunS = 0;
  for (const Sample &X : S) {
    if (X.Req.K != Request::Warm || !X.Ok)
      continue;
    TuneS.push_back(X.LatencyS);
    double P = static_cast<double>(X.Result.Evaluations + X.Result.CacheHits);
    Points.push_back(P);
    PointSum += P;
    RunS += X.Result.RunMs / 1e3;
  }
  O.Metrics["tune_s_geomean"] = geomean(TuneS) * TrafficScale;
  O.Metrics["points_per_s"] = RunS > 0 ? PointSum / (RunS * TrafficScale) : 0;
  O.Metrics["search_points_geomean"] = geomean(Points);
  O.Metrics["winner_cpf_geomean"] = geomean(Cpf);
}

/// Median microseconds per call of \p Fn, which makes \p Calls calls.
template <typename F> double usPerCall(int Reps, size_t Calls, F Fn) {
  return Calls ? timeMedian(Reps, Fn) / static_cast<double>(Calls) * 1e6 : 0;
}

void ServeWorkload::perLayer(Daemon &D, const std::vector<Sample> &S,
                             size_t DepthMax, double LateMax,
                             size_t CacheBefore, Outcome &O) {
  std::map<std::string, double> &M = O.Metrics;
  auto putTiming = [&M](const std::string &Name,
                        const std::vector<double> &V) {
    Tail T = tailPercentile(V);
    M[Name + ".p50"] = median(V);
    M[Name + ".tail"] = T.Value;
    M[Name + ".tail_pct"] = T.Pct;
    M[Name + ".n"] = static_cast<double>(T.N);
  };

  // Latencies at the nominal rung, from due time; queue/run as the
  // program reports them (JobResult::QueueMs / RunMs).
  std::vector<double> QueryMs, ExactMs, QueueMs, TuneS, RunMs;
  size_t Rejected = 0;
  double WarmEvals = 0;
  std::vector<size_t> Met(Plan.Rates.size(), 0), Fast(Plan.Rates.size(), 0);
  std::vector<double> RungLate(Plan.Rates.size(), 0);
  for (const Sample &X : S) {
    Rejected += X.Result.Status == "rejected" ? 1 : 0;
    size_t Rung = static_cast<size_t>(X.Req.Rung);
    bool Nominal = Rung == Plan.NominalRung;
    double Ms = X.LatencyS * 1e3;
    if (X.Req.K == Request::Warm) {
      if (X.Ok) {
        TuneS.push_back(X.LatencyS);
        RunMs.push_back(X.Result.RunMs);
        WarmEvals += static_cast<double>(X.Result.Evaluations);
      }
      continue;
    }
    ++Fast[Rung];
    Met[Rung] += X.Ok && Ms <= SloLimitMs ? 1 : 0;
    // Backlog: how late the rung's last requests were sent.
    if (X.Req.DueS >= (static_cast<double>(Rung) + 0.9) * Plan.RungSeconds)
      RungLate[Rung] = std::max(RungLate[Rung], X.LateS * 1e3);
    if (!Nominal)
      continue;
    if (X.Req.K == Request::Query)
      QueryMs.push_back(Ms);
    else {
      ExactMs.push_back(Ms);
      QueueMs.push_back(X.Result.QueueMs);
    }
  }
  putTiming("serve.query_rtt_ms", QueryMs);
  putTiming("serve.exact_rtt_ms", ExactMs);
  putTiming("serve.queue_ms", QueueMs);
  M["serve.tune_rtt_s.p50"] = median(TuneS);
  M["serve.run_ms.p50"] = median(RunMs);
  M["serve.queue_depth_max"] = static_cast<double>(DepthMax);
  M["serve.rejected"] = static_cast<double>(Rejected);
  M["serve.gen_late_ms.max"] = LateMax * 1e3;
  size_t MetAll = 0, FastAll = 0;
  for (size_t R = 0; R < Plan.Rates.size(); ++R) {
    MetAll += Met[R];
    FastAll += Fast[R];
    double Share = Fast[R] ? static_cast<double>(Met[R]) / Fast[R] : 0;
    if (Share >= SloTarget && RungLate[R] <= SloLimitMs)
      M["serve.slo_rate_per_s"] = Plan.Rates[R];
    M["serve.slo_ratio.rung" + std::to_string(R)] = Share;
  }
  M["serve.slo_ratio"] =
      FastAll ? static_cast<double>(MetAll) / static_cast<double>(FastAll) : 0;

  // Fleet: remote points are the shared cache's growth that the warm
  // tunes did not evaluate locally.
  Json Stats = D.service().statsJson();
  const Json &Fleet = Stats.get("fleet");
  double CacheGrowth =
      static_cast<double>(Stats.get("cache_entries").asInt()) -
      static_cast<double>(CacheBefore);
  M["fleet.batches"] = Fleet.get("batches_dispatched").asNumber();
  M["fleet.retried"] = Fleet.get("batches_retried").asNumber();
  M["fleet.points_local"] = WarmEvals;
  M["fleet.points_remote"] = std::max(0.0, CacheGrowth - WarmEvals);

  // Warm answers against cold reference tunes at the same sizes (untimed).
  double ColdEvals = 0, GapMax = 0;
  for (const Sample &X : S) {
    if (X.Req.K != Request::Warm || !X.Ok)
      continue;
    Case C = buildCase(X.Req.P);
    SimEvalBackend B(C.Machine);
    EvalEngine E(B);
    TuneResult Cold = tune(C.Nest, E, {{"N", C.P.N}});
    ColdEvals += static_cast<double>(Cold.TotalPoints);
    GapMax = std::max(GapMax, (X.Result.Cost - Cold.BestCost) /
                                  Cold.BestCost * 100);
  }
  M["serve.warm_gap_pct_max"] = GapMax;
  M["serve.warm_evals_ratio"] =
      ColdEvals > 0 ? (WarmEvals + M["fleet.points_remote"]) / ColdEvals : 0;
  M["evaluations"] = WarmEvals + M["fleet.points_remote"];
  double RunSum = 0;
  for (double R : RunMs)
    RunSum += R / 1e3;
  M["evals_per_s"] = RunSum > 0 ? M["evaluations"] / RunSum : 0;

  // ConfigDB, re-timed on the rows the run left behind.
  ConfigDB &Db = D.service().db();
  std::vector<TunedEntry> Rows;
  Db.forEach([&Rows](const TunedEntry &E) { Rows.push_back(E); });
  M["serve.configdb.rows"] = static_cast<double>(Rows.size());
  M["serve.configdb.exact_us"] = usPerCall(50, Rows.size(), [&] {
    for (const TunedEntry &E : Rows)
      (void)Db.exact(E.Kernel, E.MachineHash, E.N);
  });
  M["serve.configdb.nearest_us"] = usPerCall(50, Rows.size(), [&] {
    for (const TunedEntry &E : Rows)
      (void)Db.nearest(E.Kernel, E.MachineHash, E.N + 1);
  });
  M["serve.configdb.put_us"] = usPerCall(50, Rows.size(), [&] {
    ConfigDB Scratch;
    for (const TunedEntry &E : Rows)
      Scratch.put(E);
  });
  std::string Copy = Opts.OutDir + "/serve-db-copy.json";
  M["serve.configdb.save_ms"] =
      usPerCall(5, 1, [&] { Db.save(Copy); }) / 1e3;
  std::remove(Copy.c_str());

  // Protocol codec, re-timed on the run's own requests and responses.
  std::vector<std::string> Lines;
  std::vector<Json> Messages;
  for (const Sample &X : S) {
    Json Req = toJson(specOf(X.Req.P));
    Req.set("op", X.Req.K == Request::Query ? "query" : "submit");
    Messages.push_back(std::move(Req));
    if (X.Req.K != Request::Query)
      Messages.push_back(toJson(X.Result));
  }
  for (const Json &J : Messages)
    Lines.push_back(J.dump());
  M["serve.protocol.encode_us"] = usPerCall(5, Messages.size(), [&] {
    for (const Json &J : Messages)
      (void)J.dump();
  });
  M["serve.protocol.parse_us"] = usPerCall(5, Lines.size(), [&] {
    for (const std::string &L : Lines) {
      Json J = Json::parse(L);
      if (J.has("op")) {
        JobSpec Spec;
        jobSpecFromJson(J, Spec, nullptr);
      } else {
        (void)jobResultFromJson(J);
      }
    }
  });

  // Trace overhead: exact-hit round trips on one connection of the idle
  // daemon, alternating without and with a span per request so that host
  // speed drift hits both sides alike.
  auto Cl = Client::connectUnix(D.socket());
  if (Cl) {
    const JobSpec Spec = specOf(Plan.Anchors.front());
    SpanLog Log;
    double U = 0, T = 0;
    for (int I = 0; I < 800; ++I) {
      bool Traced = I % 2 == 1;
      uint64_t Start = nowNs();
      int Sp = Traced ? Log.open("client.exact", static_cast<uint64_t>(I)) : -1;
      ++O.Attempted;
      if (!Cl->submit(Spec).ok())
        O.fail("overhead probe: exact hit failed");
      if (Traced)
        Log.close(Sp);
      (Traced ? T : U) += secondsSince(Start);
    }
    M["trace_overhead_pct"] = U > 0 ? (T - U) / U * 100 : 0;
  }
  M["host.speed_scale"] = TrafficScale;
  std::printf("serve: exact tail %.2f ms at p%g, program-reported queue tail "
              "%.2f ms (%.0f%% of it)\n",
              M["serve.exact_rtt_ms.tail"], M["serve.exact_rtt_ms.tail_pct"],
              M["serve.queue_ms.tail"],
              M["serve.exact_rtt_ms.tail"] > 0
                  ? M["serve.queue_ms.tail"] / M["serve.exact_rtt_ms.tail"] *
                        100
                  : 0);
}

} // namespace

Outcome perfbench::runServeMixed(const RunOptions &Opts) {
  return ServeWorkload(Opts).run();
}
