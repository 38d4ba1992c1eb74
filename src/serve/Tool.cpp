//===- serve/Tool.cpp - Daemon / submit command-line entries --------------===//

#include "serve/Tool.h"

#include "obs/Event.h"
#include "obs/Log.h"
#include "serve/Client.h"
#include "serve/Server.h"
#include "support/ParseInt.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <limits>
#include <thread>

using namespace eco;
using namespace eco::serve;

namespace {

/// Set by the SIGTERM/SIGINT handler; the daemon loop polls it. A
/// handler can only touch async-signal-safe state, hence the flag.
std::sig_atomic_t volatile SignalFlag = 0;

void onSignal(int) { SignalFlag = 1; }

} // namespace

int eco::serve::serveToolMain(const std::vector<std::string> &Args) {
  ServiceOptions SvcOpts;
  SvcOpts.DbPath = "eco_tuned.json";
  ServerOptions SrvOpts;
  SrvOpts.UnixPath = "eco_serve.sock";
  std::string ObsDir;
  bool LogLevelSet = false;
  auto Usage = [] {
    std::fprintf(stderr,
                 "usage: eco_served [--socket=PATH] [--tcp=PORT] "
                 "[--db=FILE] [--workers=N] [--queue=N] "
                 "[--engine-jobs=N] [--obs-dir=D] "
                 "[--log-level=off|error|warn|info|debug]\n");
    return 2;
  };

  bool Bad = false;
  for (const std::string &Arg : Args) {
    if (const char *V = flagValue(Arg, "--socket=")) {
      SrvOpts.UnixPath = V;
    } else if (intFlag(Arg, "--tcp=", 0, 65535, SrvOpts.TcpPort, Bad) ||
               intFlag(Arg, "--workers=", 1, 1024, SvcOpts.Workers, Bad) ||
               intFlag(Arg, "--queue=", 1, 1 << 20, SvcOpts.QueueCapacity,
                       Bad) ||
               intFlag(Arg, "--engine-jobs=", 1, 4096, SvcOpts.EngineJobs,
                       Bad)) {
      if (Bad)
        return Usage();
    } else if (const char *V = flagValue(Arg, "--db=")) {
      SvcOpts.DbPath = V;
    } else if (const char *V = flagValue(Arg, "--obs-dir=")) {
      ObsDir = V;
    } else if (const char *V = flagValue(Arg, "--log-level=")) {
      if (!obs::setLogLevelByName(V)) {
        std::fprintf(stderr, "error: bad --log-level=%s\n", V);
        return 2;
      }
      LogLevelSet = true;
    } else {
      return Usage();
    }
  }
  if (!LogLevelSet)
    obs::setLogLevelByName("info"); // a daemon should say what it's doing
  // Flight recorder: every tune's provenance stream, with per-job
  // attribution, appended as JSONL (a restarted daemon adds a new seq=0
  // segment rather than clobbering history).
  std::string Error;
  if (!ObsDir.empty() && !obs::openObsDir(ObsDir, /*Append=*/true, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  TuneService Service(SvcOpts);
  Server Srv(Service, SrvOpts);
  if (!Srv.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("eco_served: listening%s%s%s (db %s); SIGTERM or "
              "{\"op\":\"shutdown\"} drains and exits\n",
              SrvOpts.UnixPath.empty() ? "" : " on ",
              SrvOpts.UnixPath.c_str(),
              Srv.port() >= 0
                  ? (" and tcp 127.0.0.1:" + std::to_string(Srv.port()))
                        .c_str()
                  : "",
              SvcOpts.DbPath.c_str());
  std::fflush(stdout);

  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);

  while (!SignalFlag && !Srv.shutdownRequested())
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

  ECO_LOG(Info) << "serve: " << (SignalFlag ? "signal" : "shutdown request")
                << " received; draining";
  // Order matters: stop() closes the listeners (no new work) and lets
  // in-flight submits resolve; drain() then finishes admitted jobs and
  // persists the DB atomically.
  Srv.stop();
  Service.drain();
  if (!ObsDir.empty() && !obs::closeObsDir(ObsDir))
    std::fprintf(stderr, "error: cannot write %s/metrics.json\n",
                 ObsDir.c_str());
  std::printf("eco_served: drained; db saved to %s\n",
              SvcOpts.DbPath.c_str());
  return 0;
}

int eco::serve::submitToolMain(const std::vector<std::string> &Args) {
  std::string Socket = "eco_serve.sock";
  std::string Host = "127.0.0.1";
  int Port = -1;
  std::string Op = "submit";
  int TimeoutMs = 0; // 0 = library defaults (10 s connect, 5 min recv)
  JobSpec Spec;
  auto Usage = [] {
    std::fprintf(stderr,
                 "usage: eco_cli submit [--socket=PATH | --host=H "
                 "--port=P] [--timeout-ms=MS] "
                 "[--op=submit|query|stats|jobs|metrics|"
                 "ping|shutdown] "
                 "[--kernel=K] [--machine=M] [--scale=S] [--n=N] "
                 "[--priority=P] [--deadline-ms=MS] [--force]\n");
    return 2;
  };

  bool Bad = false;
  for (const std::string &Arg : Args) {
    if (const char *V = flagValue(Arg, "--socket=")) {
      Socket = V;
    } else if (const char *V = flagValue(Arg, "--host=")) {
      Host = V;
    } else if (intFlag(Arg, "--port=", 1, 65535, Port, Bad) ||
               intFlag(Arg, "--timeout-ms=", 0, 24 * 3600 * 1000, TimeoutMs,
                       Bad) ||
               intFlag(Arg, "--scale=", 1, 4096, Spec.Scale, Bad) ||
               intFlag(Arg, "--n=", 4, 1 << 20, Spec.N, Bad) ||
               intFlag(Arg, "--priority=", std::numeric_limits<int>::min(),
                       std::numeric_limits<int>::max(), Spec.Priority,
                       Bad) ||
               intFlag(Arg, "--deadline-ms=", 0, MaxDeadlineMs,
                       Spec.DeadlineMs, Bad)) {
      if (Bad)
        return Usage();
    } else if (const char *V = flagValue(Arg, "--op=")) {
      Op = V;
    } else if (const char *V = flagValue(Arg, "--kernel=")) {
      Spec.Kernel = V;
    } else if (const char *V = flagValue(Arg, "--machine=")) {
      Spec.Machine = V;
    } else if (Arg == "--force") {
      Spec.ForceRetune = true;
    } else {
      return Usage();
    }
  }

  std::string Error;
  std::unique_ptr<Client> C =
      Port >= 0 ? Client::connectTcp(Host, Port, &Error,
                                     TimeoutMs > 0 ? TimeoutMs : 10000)
                : Client::connectUnix(Socket, &Error,
                                      TimeoutMs > 0 ? TimeoutMs : 10000);
  if (!C) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (TimeoutMs > 0)
    C->setRecvTimeout(TimeoutMs);

  Json Resp;
  if (Op == "submit") {
    Resp = toJson(C->submit(Spec));
  } else if (Op == "query") {
    Resp = C->query(Spec);
  } else if (Op == "stats") {
    Resp = C->stats();
  } else if (Op == "jobs") {
    Resp = C->jobs();
  } else if (Op == "metrics") {
    // Print the Prometheus body raw (not the JSON envelope) so the
    // output can be piped straight into a scrape file or promtool.
    Resp = C->metrics();
    if (Resp.get("ok").asBool(false)) {
      std::printf("%s", Resp.get("body").asString().c_str());
      return 0;
    }
  } else if (Op == "ping") {
    bool Ok = C->ping(&Error);
    Resp = Json::object();
    Resp.set("ok", Ok);
    if (!Ok)
      Resp.set("error", Error);
  } else if (Op == "shutdown") {
    bool Ok = C->requestShutdown(&Error);
    Resp = Json::object();
    Resp.set("ok", Ok);
    if (!Ok)
      Resp.set("error", Error);
  } else {
    std::fprintf(stderr, "error: unknown --op=%s\n", Op.c_str());
    return 2;
  }
  std::printf("%s\n", Resp.dumpPretty().c_str());
  return Resp.get("ok").asBool(false) ? 0 : 1;
}
