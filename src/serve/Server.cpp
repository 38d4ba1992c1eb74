//===- serve/Server.cpp - Tuning-as-a-service daemon core -----------------===//

#include "serve/Server.h"

#include "core/Tuner.h"
#include "engine/Engine.h"
#include "kernels/Kernels.h"
#include "obs/Event.h"
#include "obs/Log.h"
#include "obs/Metrics.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace eco;
using namespace eco::serve;

using Clock = std::chrono::steady_clock;

/// Warm-start window (SearchOptions::WarmStartBoundFactor) and the
/// model-pruning widths (TuneOptions::MaxVariantsToSearch): the seed
/// names the family that won nearby, so warm tunes search fewer variants.
static constexpr int WarmBoundFactor = 4;
static constexpr unsigned WarmSearchWidth = 1;
static constexpr unsigned ColdSearchWidth = 4;

static double msBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

//===----------------------------------------------------------------------===//
// The name table
//===----------------------------------------------------------------------===//

static const std::map<std::string, LoopNest (*)()> Kernels = {
    {"matmul", [] { return makeMatMul(); }},
    {"jacobi", [] { return makeJacobi(); }},
    {"matvec", [] { return makeMatVec(); }}};

/// The paper's two machines shrink by the scale; the host preset
/// describes this machine as it is.
static const std::map<std::string, MachineDesc (*)(unsigned)> Machines = {
    {"sgi", [](unsigned S) { return MachineDesc::sgiR10000().scaledBy(S); }},
    {"sun",
     [](unsigned S) { return MachineDesc::ultraSparcIIe().scaledBy(S); }},
    {"host", [](unsigned) { return MachineDesc::genericHost(); }}};

bool eco::serve::knownNames(const std::string &Kernel,
                            const std::string &Machine, std::string *Error) {
  return (Kernels.count(Kernel) ||
          refuse(Error, "unknown kernel '" + Kernel + "'")) &&
         (Machines.count(Machine) ||
          refuse(Error, "unknown machine '" + Machine + "'"));
}

bool eco::serve::buildKernel(const std::string &Kernel, LoopNest &Nest,
                             std::string *Error) {
  auto It = Kernels.find(Kernel);
  if (It == Kernels.end())
    return refuse(Error, "unknown kernel '" + Kernel + "'");
  Nest = It->second();
  return true;
}

bool eco::serve::buildMachine(const std::string &Machine, unsigned Scale,
                              MachineDesc &Out, std::string *Error) {
  auto It = Machines.find(Machine);
  if (It == Machines.end())
    return refuse(Error, "unknown machine '" + Machine + "'");
  if (Scale == 0)
    return refuse(Error, "scale 0 names no machine");
  Out = It->second(Scale);
  return true;
}

//===----------------------------------------------------------------------===//
// ServeJob
//===----------------------------------------------------------------------===//

bool ServeJob::done() const {
  MutexLock Lock(M);
  return Finished;
}

JobResult ServeJob::wait() {
  MutexLock Lock(M);
  while (!Finished)
    CV.wait(Lock);
  return Result;
}

void ServeJob::finish(JobResult R) {
  {
    MutexLock Lock(M);
    if (Finished)
      return; // first resolution wins
    Result = std::move(R);
    Finished = true;
  }
  CV.notify_all();
}

//===----------------------------------------------------------------------===//
// TuneService
//===----------------------------------------------------------------------===//

TuneService::TuneService(ServiceOptions O)
    : Opts(std::move(O)), Db(Opts.DbPath),
      SharedCache(std::make_shared<EvalCache>()),
      Pool(std::make_unique<WorkerPool>(Opts.Fleet)) {
  if (Opts.Workers < 1)
    Opts.Workers = 1;
  if (Opts.QueueCapacity < 1)
    Opts.QueueCapacity = 1;
  for (int W = 0; W < Opts.Workers; ++W)
    Workers.emplace_back([this] { workerLoop(); });
  ECO_LOG(Info) << "serve: service up (" << Opts.Workers << " worker(s), "
                << "queue capacity " << Opts.QueueCapacity << ", db '"
                << Opts.DbPath << "' with " << Db.size() << " entries)";
}

TuneService::~TuneService() { drain(); }

std::shared_ptr<ServeJob> TuneService::submit(const JobSpec &Spec) {
  auto Now = Clock::now();
  std::string RejectReason;
  std::shared_ptr<ServeJob> Job;
  size_t Depth = 0;
  {
    MutexLock Lock(QM);
    Job = std::make_shared<ServeJob>(NextJobId++, Spec);
    Job->SubmitTime = Now;
    Job->SubmitUs = obs::monotonicMicros();
    if (Spec.DeadlineMs > 0)
      Job->Deadline = Now + std::chrono::milliseconds(Spec.DeadlineMs);
    if (Draining)
      RejectReason = "service is draining";
    else if (Queue.size() >= Opts.QueueCapacity)
      RejectReason = "queue full (capacity " +
                     std::to_string(Opts.QueueCapacity) + ")";
    else {
      Queue.emplace(std::make_pair(-Spec.Priority, NextSeq++), Job);
      Depth = Queue.size();
    }
  }
  {
    MutexLock Lock(SM);
    ++Submitted;
    Live[Job->Id] = Job;
  }
  if (obs::eventsEnabled()) {
    Json F = Json::object();
    F.set("id", static_cast<int64_t>(Job->Id));
    F.set("kernel", Spec.Kernel);
    F.set("machine", Spec.Machine);
    F.set("n", Spec.N);
    F.set("priority", static_cast<int64_t>(Spec.Priority));
    F.set("queue_depth", static_cast<int64_t>(Depth));
    if (!RejectReason.empty())
      F.set("rejected", RejectReason);
    obs::publishEvent("job.submitted", std::move(F));
  }
  if (!RejectReason.empty()) {
    // Explicit backpressure: the caller learns immediately instead of
    // blocking on a queue slot that may be minutes away.
    JobResult R;
    R.Status = "rejected";
    R.Error = RejectReason;
    finishJob(*Job, std::move(R));
    return Job;
  }
  QCV.notify_one();
  return Job;
}

size_t TuneService::queueDepth() const {
  MutexLock Lock(QM);
  return Queue.size();
}

Json TuneService::statsJson() const {
  Json J = Json::object();
  {
    MutexLock Lock(QM);
    J.set("queue_depth", static_cast<int64_t>(Queue.size()));
    J.set("running", static_cast<int64_t>(Running));
    J.set("draining", Draining);
  }
  {
    MutexLock Lock(SM);
    J.set("submitted", Submitted);
    Json Status = Json::object();
    for (const auto &[Name, Count] : StatusCounts)
      Status.set(Name, Count);
    J.set("status", std::move(Status));
    Json Warm = Json::object();
    for (const auto &[Name, Count] : WarmCounts)
      Warm.set(Name, Count);
    J.set("warm_start", std::move(Warm));
  }
  J.set("db_entries", static_cast<int64_t>(Db.size()));
  J.set("cache_entries", static_cast<int64_t>(SharedCache->size()));
  J.set("cache_hits", SharedCache->hits());
  J.set("cache_misses", SharedCache->misses());
  J.set("fleet", Pool->statsJson());
  return J;
}

Json TuneService::jobsJson() const {
  std::vector<std::shared_ptr<ServeJob>> Jobs;
  {
    MutexLock Lock(SM);
    for (const auto &[Id, Weak] : Live) {
      (void)Id;
      if (auto J = Weak.lock())
        Jobs.push_back(std::move(J));
    }
  }
  uint64_t NowUs = obs::monotonicMicros();
  Json Arr = Json::array();
  for (const auto &J : Jobs) {
    if (J->done())
      continue; // resolved between the snapshot and now
    Json O = Json::object();
    O.set("id", static_cast<int64_t>(J->Id));
    O.set("kernel", J->Spec.Kernel);
    O.set("machine", J->Spec.Machine);
    O.set("n", J->Spec.N);
    O.set("priority", static_cast<int64_t>(J->Spec.Priority));
    uint64_t StartUs = J->StartUs.load(std::memory_order_relaxed);
    O.set("phase", StartUs ? "running" : "queued");
    // Queue wait: submission to pickup (still growing while queued).
    uint64_t WaitEndUs = StartUs ? StartUs : NowUs;
    O.set("queue_wait_ms",
          static_cast<double>(WaitEndUs - J->SubmitUs) / 1e3);
    if (StartUs) {
      double RunMs = static_cast<double>(NowUs - StartUs) / 1e3;
      O.set("run_ms", RunMs);
      uint64_t Done = J->Ticks.load(std::memory_order_relaxed);
      uint64_t Expect = J->ExpectedTicks.load(std::memory_order_relaxed);
      O.set("evals_done", static_cast<int64_t>(Done));
      if (Expect) {
        O.set("evals_expected", static_cast<int64_t>(Expect));
        // Naive ETA: remaining points at the observed per-point rate.
        // The estimate comes from the warm seed's recorded evaluation
        // count, so it is an upper bound more often than not.
        if (Done > 0 && Expect > Done)
          O.set("eta_ms", RunMs * static_cast<double>(Expect - Done) /
                              static_cast<double>(Done));
      }
    }
    Arr.push(std::move(O));
  }
  Json Out = Json::object();
  Out.set("jobs", std::move(Arr));
  return Out;
}

void TuneService::drain() {
  {
    MutexLock Lock(QM);
    Draining = true;
    QCV.notify_all();
    while (!Queue.empty() || Running != 0)
      DrainCV.wait(Lock);
  }
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
  // No jobs can need the fleet anymore; fail anything still outstanding
  // so late worker polls see an empty queue.
  Pool->shutdown();
  Db.save();
}

void TuneService::workerLoop() {
  for (;;) {
    std::shared_ptr<ServeJob> Job;
    size_t Depth = 0;
    {
      MutexLock Lock(QM);
      while (!Draining && Queue.empty())
        QCV.wait(Lock);
      if (Queue.empty()) {
        if (Draining)
          return;
        continue; // spurious wake
      }
      auto It = Queue.begin(); // highest priority, oldest sequence
      Job = It->second;
      Queue.erase(It);
      ++Running;
      Depth = Queue.size();
    }
    execute(*Job, Depth);
    {
      MutexLock Lock(QM);
      --Running;
      if (Queue.empty() && Running == 0)
        DrainCV.notify_all();
    }
  }
}

void TuneService::finishJob(ServeJob &Job, JobResult R) {
  {
    MutexLock Lock(SM);
    ++StatusCounts[R.Status];
    if (!R.WarmStart.empty())
      ++WarmCounts[R.WarmStart];
    Live.erase(Job.Id);
  }
  if (obs::eventsEnabled()) {
    Json F = Json::object();
    F.set("id", static_cast<int64_t>(Job.Id));
    F.set("status", R.Status);
    if (!R.WarmStart.empty())
      F.set("warm_start", R.WarmStart);
    F.set("evaluations", static_cast<int64_t>(R.Evaluations));
    F.set("cache_hits", static_cast<int64_t>(R.CacheHits));
    F.set("queue_ms", R.QueueMs);
    F.set("run_ms", R.RunMs);
    obs::publishEvent("job.finished", std::move(F));
  }
  ECO_LOG(Info) << "serve: job " << Job.Id << " (" << Job.Spec.summary()
                << ") -> " << R.Status
                << (R.WarmStart.empty() ? "" : " [" + R.WarmStart + "]")
                << " after " << R.Evaluations << " evaluation(s)";
  Job.finish(std::move(R));
}

void TuneService::execute(ServeJob &Job, size_t QueueDepth) {
  auto Start = Clock::now();
  Job.StartUs.store(obs::monotonicMicros(), std::memory_order_relaxed);
  // Everything the tune publishes from this thread — config.evaluated,
  // winner.updated, stage telemetry — carries this job's id, so the
  // flight recorder separates concurrent jobs' streams.
  obs::ScopedJobId JobScope(Job.Id);

  if (Opts.TestGate)
    Opts.TestGate(Job.Spec);

  JobResult R;
  R.QueueMs = msBetween(Job.SubmitTime, Start);
  if (obs::eventsEnabled()) {
    Json F = Json::object();
    F.set("id", static_cast<int64_t>(Job.Id));
    F.set("queue_wait_ms", R.QueueMs);
    F.set("queue_depth", static_cast<int64_t>(QueueDepth));
    obs::publishEvent("job.started", std::move(F));
  }

  auto deadlinePassed = [&Job] {
    return Job.Spec.DeadlineMs > 0 && Clock::now() >= Job.Deadline;
  };
  if (deadlinePassed()) {
    R.Status = "expired";
    R.Error = "deadline expired while queued";
    finishJob(Job, std::move(R));
    return;
  }

  LoopNest Nest;
  MachineDesc Machine;
  if (!buildKernel(Job.Spec.Kernel, Nest) ||
      !buildMachine(Job.Spec.Machine, Job.Spec.Scale, Machine)) {
    R.Status = "failed";
    R.Error = "unknown kernel or machine"; // submit validation screens this
    finishJob(Job, std::move(R));
    return;
  }
  uint64_t MHash = Machine.fingerprint();

  // Exact hit: the same (kernel, machine, N) was tuned before. The
  // stored configuration comes back with zero evaluations — the
  // service's whole reason to exist.
  if (!Job.Spec.ForceRetune) {
    if (auto Hit = Db.exact(Job.Spec.Kernel, MHash, Job.Spec.N)) {
      R.Status = "done";
      R.WarmStart = "exact";
      R.Cost = Hit->BestCost;
      R.Variant = Hit->Variant;
      R.Config = Hit->Config;
      R.Evaluations = 0;
      R.RunMs = msBetween(Start, Clock::now());
      finishJob(Job, std::move(R));
      return;
    }
  }

  TuneOptions TOpts;
  TOpts.MaxVariantsToSearch = ColdSearchWidth;
  R.WarmStart = "cold";
  int64_t SeedN = 0;
  std::string SeedVariant;
  if (auto Seed = Db.nearest(Job.Spec.Kernel, MHash, Job.Spec.N)) {
    // Nearest hit: seed the search's initial point and clamp the stage
    // bounds around it; the seed also tells us which variant family won
    // nearby, so warm tunes search fewer variants.
    TOpts.Search.WarmStartConfig = Seed->Config;
    TOpts.Search.WarmStartBoundFactor = WarmBoundFactor;
    TOpts.MaxVariantsToSearch = WarmSearchWidth;
    // A seed for this very size (a --force retune) names the known
    // winner: make sure the narrowed search covers its family. Across
    // sizes the variant landscape shifts, so the model's re-ranking
    // chooses better than the neighbor's winner.
    if (Seed->N == Job.Spec.N)
      TOpts.PreferVariant = Seed->Variant;
    R.WarmStart = "nearest";
    SeedN = Seed->N;
    SeedVariant = Seed->Variant;
    // The seed's recorded evaluation count is the only ETA basis we
    // have; jobsJson() treats it as the expected total.
    Job.ExpectedTicks.store(Seed->Evaluations, std::memory_order_relaxed);
    ECO_LOG(Debug) << "serve: job " << Job.Id << " warm-starts from n="
                   << Seed->N;
  }
  TOpts.Search.ShouldStop = [&Job, deadlinePassed] {
    // Polled once per candidate evaluation: doubles as the progress
    // counter the "jobs" verb reports.
    Job.Ticks.fetch_add(1, std::memory_order_relaxed);
    return deadlinePassed();
  };

  // Per-job backend + engine (a simulator is machine-specific), but one
  // process-wide EvalCache: concurrent and successive jobs share every
  // evaluation (keys embed the machine fingerprint, so entries never
  // cross machines).
  SimEvalBackend Backend(Machine);
  EngineOptions EOpts;
  EOpts.Jobs = Opts.EngineJobs;
  EOpts.SharedCache = SharedCache;
  // Remote fleet hook: warm batches shard across registered eco_worker
  // processes, landing their costs in the shared cache the decision
  // loop reads. RepSize = the job's N, matching the representative size
  // tune() derives variants with, so workers re-derive identical
  // variants. With no live workers the gate skips everything.
  BatchContext BC{Job.Spec.Kernel, Job.Spec.Machine, Job.Spec.Scale,
                  Job.Spec.N};
  EOpts.RemoteWarm = [this, BC](const std::vector<RemotePoint> &Points,
                                const std::string &Stage) {
    Pool->evalBatch(BC, Points, Stage, *SharedCache);
  };
  EOpts.RemoteWarmGate = [this] { return Pool->liveWorkers() > 0; };
  EvalEngine Engine(Backend, EOpts);

  auto TuneStart = Clock::now();
  TuneResult TR = tune(Nest, Engine, {{"N", Job.Spec.N}}, TOpts);
  R.RunMs = msBetween(TuneStart, Clock::now());
  R.Evaluations = TR.TotalPoints;
  R.CacheHits = TR.TotalCacheHits;
  if (TR.BestVariant >= 0) {
    R.Cost = TR.BestCost;
    R.Variant = TR.best().Spec.Name;
    R.Config = envToBindings(TR.best().Skeleton, TR.BestConfig);
  }

  if (TR.Cancelled) {
    // Only the deadline stops a tune early. Best-so-far is reported but
    // never stored: a truncated search's winner would poison
    // warm-starts and the exact-hit shortcut.
    R.Status = "expired";
    R.Error = "deadline expired mid-search";
    finishJob(Job, std::move(R));
    return;
  }
  if (TR.BestVariant < 0) {
    R.Status = "failed";
    R.Error = "tuning produced no feasible variant";
    finishJob(Job, std::move(R));
    return;
  }

  R.Status = "done";
  TunedEntry E;
  E.Kernel = Job.Spec.Kernel;
  E.MachineName = Job.Spec.Machine;
  E.Scale = Job.Spec.Scale;
  E.MachineHash = MHash;
  E.N = Job.Spec.N;
  E.Variant = R.Variant;
  E.Config = R.Config;
  E.BestCost = R.Cost;
  E.Evaluations = R.Evaluations;
  E.Seconds = TR.TotalSeconds;
  E.WarmStart = R.WarmStart;
  // Provenance: how the search earned this row. Explains the entry
  // (eco_check --audit-db sanity-checks it) and lets a later reader ask
  // "how much did the models prune before anything ran?".
  E.CacheHits = TR.TotalCacheHits;
  E.VariantsDerived = TR.Variants.size();
  for (const VariantSummary &S : TR.Summaries)
    if (S.Searched)
      ++E.VariantsSearched;
  E.VariantsRejected = TR.VariantsRejected;
  E.InfeasiblePruned = TR.InfeasiblePruned;
  E.ConfigsRejected = TR.ConfigsRejected;
  E.WallMs = R.RunMs;
  E.SeedN = SeedN;
  E.SeedVariant = SeedVariant;
  Db.put(E);
  Db.save(); // atomic rewrite; a kill never leaves a torn DB

  finishJob(Job, std::move(R));
}

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

namespace eco {
namespace serve {

/// One listening socket (unix or TCP); owns the fd and, for unix
/// listeners, unlinks the path on teardown.
class Listener {
public:
  /// Atomic: close() (from stop()) races with acceptLoop's reads by
  /// design — shutdown() is what actually wakes a blocked accept().
  std::atomic<int> Fd{-1};
  bool IsUnix = false;
  std::string Path;

  ~Listener() { close(); }

  void close() {
    int Old = Fd.exchange(-1, std::memory_order_acq_rel);
    if (Old >= 0) {
      ::shutdown(Old, SHUT_RDWR);
      ::close(Old);
    }
    if (IsUnix && !Path.empty()) {
      ::unlink(Path.c_str());
      Path.clear();
    }
  }
};

} // namespace serve
} // namespace eco

static bool sendAll(int Fd, const std::string &Data) {
  size_t Off = 0;
  while (Off < Data.size()) {
    ssize_t N = ::send(Fd, Data.data() + Off, Data.size() - Off,
                       MSG_NOSIGNAL);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

/// Ends a connection whose peer may still be sending. Closing a socket
/// with unread input resets it, and the reset can overtake the reply
/// already queued for the peer (it reads ECONNRESET instead of the reply
/// and EOF). So half-close first, then discard what the peer still
/// sends until it closes too, bounded in bytes and time because the
/// peer is untrusted.
static void finishWithUnreadInput(int Fd) {
  static constexpr size_t MaxDrainBytes = 4 << 20;
  static constexpr int DrainMs = 1000;
  ::shutdown(Fd, SHUT_WR);
  char Chunk[4096];
  size_t Drained = 0;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::milliseconds(DrainMs);
  while (Drained < MaxDrainBytes) {
    double Left = msBetween(Clock::now(), Deadline);
    pollfd P{Fd, POLLIN, 0};
    int Ready = Left > 0 ? ::poll(&P, 1, static_cast<int>(Left) + 1) : 0;
    if (Ready < 0 && errno == EINTR)
      continue;
    if (Ready <= 0)
      return; // deadline or error
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return; // the peer closed (or stop() shut the socket down)
    Drained += static_cast<size_t>(N);
  }
}

Server::Server(TuneService &Service, ServerOptions O)
    : Service(Service), Opts(std::move(O)) {}

Server::~Server() { stop(); }

bool Server::start(std::string *Error) {
  auto fail = [&](const std::string &Msg) {
    if (Error)
      *Error = Msg + " (" + std::strerror(errno) + ")";
    Listeners.clear();
    return false;
  };

  if (!Opts.UnixPath.empty()) {
    sockaddr_un Addr{};
    if (Opts.UnixPath.size() >= sizeof(Addr.sun_path))
      return fail("unix socket path too long: " + Opts.UnixPath);
    int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return fail("cannot create unix socket");
    ::unlink(Opts.UnixPath.c_str()); // stale socket from a dead daemon
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Opts.UnixPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
        ::listen(Fd, 16) < 0) {
      ::close(Fd);
      return fail("cannot bind unix socket " + Opts.UnixPath);
    }
    auto L = std::make_unique<Listener>();
    L->Fd = Fd;
    L->IsUnix = true;
    L->Path = Opts.UnixPath;
    Listeners.push_back(std::move(L));
  }

  if (Opts.TcpPort >= 0) {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (Fd < 0)
      return fail("cannot create TCP socket");
    int One = 1;
    ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(static_cast<uint16_t>(Opts.TcpPort));
    if (::inet_pton(AF_INET, Opts.TcpHost.c_str(), &Addr.sin_addr) != 1) {
      ::close(Fd);
      return fail("bad TCP host " + Opts.TcpHost);
    }
    if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
        ::listen(Fd, 16) < 0) {
      ::close(Fd);
      return fail("cannot bind TCP " + Opts.TcpHost + ":" +
                  std::to_string(Opts.TcpPort));
    }
    sockaddr_in Bound{};
    socklen_t Len = sizeof(Bound);
    if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &Len) == 0)
      BoundPort = ntohs(Bound.sin_port);
    auto L = std::make_unique<Listener>();
    L->Fd = Fd;
    Listeners.push_back(std::move(L));
  }

  if (Listeners.empty())
    return refuse(Error,
                  "no listener configured (need a unix path or a TCP port)");
  for (auto &L : Listeners)
    AcceptThreads.emplace_back([this, Raw = L.get()] { acceptLoop(Raw); });
  ECO_LOG(Info) << "serve: listening"
                << (Opts.UnixPath.empty() ? "" : " on unix " + Opts.UnixPath)
                << (BoundPort < 0 ? ""
                                  : " on tcp " + Opts.TcpHost + ":" +
                                        std::to_string(BoundPort));
  return true;
}

void Server::stop() {
  {
    MutexLock Lock(ConnMutex);
    if (Stopping && Listeners.empty() && Conns.empty())
      return; // already stopped
    Stopping = true;
    // Unblock handlers stuck in recv(); handlers close their own fd.
    for (Conn &C : Conns)
      if (C.Fd >= 0)
        ::shutdown(C.Fd, SHUT_RDWR);
  }
  for (auto &L : Listeners)
    L->close(); // accept() returns with an error -> loops exit
  for (std::thread &T : AcceptThreads)
    if (T.joinable())
      T.join();
  AcceptThreads.clear();
  Listeners.clear();
  // Handlers waiting on an in-flight job resolve once workers finish it
  // (the service is drained after stop(), not before). Move the thread
  // handles out but keep the entries alive: each handler's last act
  // touches its own entry under ConnMutex, so entries may only be
  // destroyed after every handler has been joined.
  std::vector<std::thread> Threads;
  {
    MutexLock Lock(ConnMutex);
    for (Conn &C : Conns)
      if (C.T.joinable())
        Threads.push_back(std::move(C.T));
  }
  for (std::thread &T : Threads)
    T.join();
  {
    MutexLock Lock(ConnMutex);
    Conns.clear();
  }
}

size_t Server::liveConnections() const {
  MutexLock Lock(ConnMutex);
  return Conns.size();
}

void Server::acceptLoop(Listener *L) {
  for (;;) {
    int LFd = L->Fd.load(std::memory_order_acquire);
    if (LFd < 0)
      return; // stop() already closed the listener
    int Fd = ::accept(LFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      return; // listener closed (stop()) or fatal
    }
    // Reap connections whose handler already returned, so a long-lived
    // daemon holds one entry per *live* connection, not one zombie
    // thread per connection ever served. Joining a Done thread only
    // waits out its final return, but do it outside the lock anyway.
    std::vector<std::thread> Finished;
    {
      MutexLock Lock(ConnMutex);
      if (Stopping) {
        ::close(Fd);
        return;
      }
      for (auto It = Conns.begin(); It != Conns.end();) {
        if (It->Done) {
          Finished.push_back(std::move(It->T));
          It = Conns.erase(It);
        } else {
          ++It;
        }
      }
      Conns.emplace_back();
      Conn &C = Conns.back();
      C.Fd = Fd;
      C.T = std::thread([this, Fd, &C] { handleConnection(Fd, C); });
    }
    for (std::thread &T : Finished)
      if (T.joinable())
        T.join();
  }
}

void Server::handleConnection(int Fd, Conn &C) {
  std::string Buf;
  char Chunk[4096];
  bool Alive = true;
  uint64_t ConnWorkerId = 0; ///< fleet worker registered here (0 = none)
  while (Alive) {
    ssize_t N = ::recv(Fd, Chunk, sizeof(Chunk), 0);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break; // peer closed or stop() shut us down
    Buf.append(Chunk, static_cast<size_t>(N));
    size_t Pos;
    while (Alive && (Pos = Buf.find('\n')) != std::string::npos) {
      std::string Line = Buf.substr(0, Pos);
      Buf.erase(0, Pos + 1);
      if (Line.find_first_not_of(" \t\r") == std::string::npos)
        continue;
      std::string ParseError;
      Json Req = Json::parse(Line, &ParseError);
      Json Resp = Req.isObject() ? handleRequest(Req, ConnWorkerId)
                                 : errorReply("bad request: " + ParseError);
      Alive = sendAll(Fd, Resp.dump() + "\n");
    }
    if (Alive && Buf.size() > MaxLineBytes) {
      // Structured refusal, then close: the line is already oversized
      // and nothing that follows could make it parseable within bounds.
      Json Resp = errorReply("request too large (line exceeds " +
                             std::to_string(MaxLineBytes) + " bytes)");
      if (sendAll(Fd, Resp.dump() + "\n"))
        finishWithUnreadInput(Fd);
      break;
    }
  }
  // A dying connection is how a SIGKILLed worker announces itself:
  // evict it now so its in-flight batches fail, and are costed at home,
  // immediately instead of after the heartbeat timeout.
  if (ConnWorkerId)
    Service.workers().disconnected(ConnWorkerId);
  // Close under the lock so stop()'s shutdown() sweep never races a
  // reused fd number. Marking Done last makes the entry reapable; after
  // the lock drops this thread only returns, so a joiner waits ~nothing.
  MutexLock Lock(ConnMutex);
  C.Fd = -1;
  ::close(Fd);
  C.Done = true;
}

Json Server::handleRequest(const Json &Req, uint64_t &ConnWorkerId) {
  std::string Op = Req.get("op").asString();
  // Any line from a registered worker, whatever its verb, is a sign of
  // life: this is the fleet's one liveness signal.
  if (ConnWorkerId)
    Service.workers().seen(ConnWorkerId);
  if (Op == "worker.hello") {
    // One registration per connection: after an eviction the worker
    // reconnects rather than re-registering here.
    if (ConnWorkerId)
      return errorReply("connection already registered");
    Json J = Service.workers().hello(Req);
    ConnWorkerId = static_cast<uint64_t>(J.get("worker_id").asInt());
    return J;
  }
  if (Op == "worker.poll")
    return Service.workers().poll(ConnWorkerId, Req);
  if (Op == "worker.result")
    return Service.workers().result(ConnWorkerId, Req);
  if (Op == "ping")
    return okReply("op", "pong");
  if (Op == "stats") {
    Json J = Service.statsJson();
    J.set("ok", true);
    return J;
  }
  if (Op == "metrics") {
    // Prometheus text exposition, shipped inside the JSON envelope so
    // the wire protocol stays one-object-per-line. eco_served --op=
    // metrics unwraps "body" for piping into a scrape file.
    Json J = Json::object();
    J.set("ok", true);
    J.set("content_type", "text/plain; version=0.0.4");
    J.set("body", obs::eventsEnabled() ? obs::metrics().toPrometheus()
                                       : std::string());
    return J;
  }
  if (Op == "jobs") {
    Json J = Service.jobsJson();
    J.set("ok", true);
    return J;
  }
  if (Op == "shutdown") {
    ShutdownFlag.store(true, std::memory_order_relaxed);
    return okReply("status", "shutting_down");
  }
  if (Op == "query") {
    JobSpec Spec;
    std::string Err;
    MachineDesc Machine;
    if (!jobSpecFromJson(Req, Spec, &Err) ||
        !buildMachine(Spec.Machine, Spec.Scale, Machine, &Err))
      return errorReply(Err);
    auto Hit =
        Service.db().exact(Spec.Kernel, Machine.fingerprint(), Spec.N);
    return Hit ? queryHitToJson(*Hit) : okReply("status", "miss");
  }
  if (Op == "submit") {
    JobSpec Spec;
    std::string Err;
    if (!jobSpecFromJson(Req, Spec, &Err)) {
      JobResult R;
      R.Status = "rejected";
      R.Error = Err;
      return toJson(R);
    }
    // Blocks this connection (only) until the scheduler resolves the
    // job; rejected submissions resolve immediately.
    return toJson(Service.submit(Spec)->wait());
  }
  return errorReply("unknown op '" + Op + "'");
}
