//===- support/Sync.cpp - Runtime lock-discipline checker -----------------===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
//
// The dynamic half of the lock-discipline story (the static half is the
// Clang annotations in Sync.h). One global registry holds, per tracked
// mutex, its name and current owner thread; one global directed graph
// accumulates held->acquired edges. Inserting a *new* edge runs a DFS —
// if the acquired lock can already reach a held one, the program has
// exercised both sides of an AB/BA inversion and we report the cycle
// with every edge's lock names and first-observing thread, even though
// this particular run did not deadlock.
//
// Checker-internal state is guarded by a plain std::mutex (the checker
// cannot use the type it is checking), and a thread-local InReport flag
// makes the reporting path — the installed ViolationSink, whose obs
// implementation locks eco::Mutexes itself — invisible to the checker,
// so a violation report can never recurse into a second violation.
//
//===----------------------------------------------------------------------===//

#include "support/Sync.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>

using namespace eco;
using namespace eco::sync;

namespace {

struct MutexInfo {
  std::string Name;
  uint64_t Owner = 0; ///< checker thread id, 0 = unheld
};

/// An edge From->To: "To was acquired while From was held".
struct EdgeInfo {
  uint64_t FirstThread = 0; ///< checker tid that first created the edge
};

struct Registry {
  std::mutex Mu; // plain std::mutex: the checker cannot check itself
  std::map<uint64_t, MutexInfo> Mutexes;
  std::map<uint64_t, std::map<uint64_t, EdgeInfo>> Edges; ///< held -> acquired
  /// Offending edges already reported, so a repeated BA acquisition
  /// reports once instead of spamming (and the graph stays acyclic,
  /// keeping later DFS reports deterministic).
  std::set<std::pair<uint64_t, uint64_t>> Reported;
  std::vector<Violation> Violations;
  uint64_t NextId = 1;
};

/// Leaked on purpose: mutexes with static storage duration unregister
/// during process teardown, after a function-local static registry
/// would already be destroyed.
Registry &reg() {
  static Registry *R = new Registry;
  return *R;
}

std::atomic<int> ModeAtomic{-1}; // -1 = not yet initialised
std::atomic<uint64_t> ViolationTally{0};

void stderrSink(const Violation &V) {
  std::fprintf(stderr, "eco sync [%s]: %s\n", V.Kind.c_str(),
               V.Message.c_str());
}
std::atomic<ViolationSink> Sink{&stderrSink};

std::atomic<uint64_t> NextThreadId{1};
uint64_t checkerTid() {
  thread_local uint64_t Tid = 0;
  if (Tid == 0)
    Tid = NextThreadId.fetch_add(1, std::memory_order_relaxed);
  return Tid;
}

/// Lock ids this thread currently holds, oldest first.
std::vector<uint64_t> &heldStack() {
  thread_local std::vector<uint64_t> Stack;
  return Stack;
}

/// True while this thread is inside the violation-reporting path; every
/// detail:: hook early-returns, so the locks the sink takes while
/// reporting are not themselves checked.
bool &inReport() {
  thread_local bool In = false;
  return In;
}

/// DFS over Edges: can From reach Target?
bool reaches(const std::map<uint64_t, std::map<uint64_t, EdgeInfo>> &Edges,
             uint64_t From, uint64_t Target, std::set<uint64_t> &Seen) {
  if (From == Target)
    return true;
  if (!Seen.insert(From).second)
    return false;
  auto It = Edges.find(From);
  if (It == Edges.end())
    return false;
  for (const auto &[To, E] : It->second) {
    (void)E;
    if (reaches(Edges, To, Target, Seen))
      return true;
  }
  return false;
}

/// Recovers the cycle path Acquired ->* Held for the report (the edge
/// Held->Acquired that closed it is appended by the caller).
bool cyclePath(const std::map<uint64_t, std::map<uint64_t, EdgeInfo>> &Edges,
               uint64_t From, uint64_t Target, std::set<uint64_t> &Seen,
               std::vector<uint64_t> &Path) {
  Path.push_back(From);
  if (From == Target)
    return true;
  if (Seen.insert(From).second) {
    auto It = Edges.find(From);
    if (It != Edges.end())
      for (const auto &[To, E] : It->second) {
        (void)E;
        if (cyclePath(Edges, To, Target, Seen, Path))
          return true;
      }
  }
  Path.pop_back();
  return false;
}

/// Records + reports one violation. \p AlwaysFatal marks the classes
/// where continuing would execute UB on the underlying std::mutex.
/// Call with reg().Mu NOT held.
void reportViolation(const char *Kind, const std::string &Message,
                     bool AlwaysFatal) {
  ViolationTally.fetch_add(1, std::memory_order_relaxed);
  Violation V{Kind, Message};
  {
    std::lock_guard<std::mutex> G(reg().Mu);
    reg().Violations.push_back(V);
  }
  bool Fatal = AlwaysFatal || checkMode() == CheckMode::Fatal;
  if (!inReport()) {
    inReport() = true;
    Sink.load()(V);
    inReport() = false;
  }
  if (Fatal) {
    std::fprintf(stderr, "eco sync [%s]: %s\n", Kind, Message.c_str());
    std::abort();
  }
}

std::string lockName(uint64_t Id) {
  auto It = reg().Mutexes.find(Id);
  return It == reg().Mutexes.end() ? ("#" + std::to_string(Id))
                                   : It->second.Name;
}

} // namespace

CheckMode sync::checkMode() {
  int M = ModeAtomic.load(std::memory_order_acquire);
  if (M < 0) {
    int Init = 0;
    const char *E = std::getenv("ECO_LOCK_DEBUG");
    if (E && *E && std::strcmp(E, "0") != 0)
      Init = static_cast<int>(CheckMode::Fatal);
#ifdef ECO_LOCK_CHECK_DEFAULT
    else
      Init = static_cast<int>(CheckMode::Report);
#endif
    int Expected = -1;
    ModeAtomic.compare_exchange_strong(Expected, Init,
                                       std::memory_order_acq_rel);
    M = ModeAtomic.load(std::memory_order_acquire);
  }
  return static_cast<CheckMode>(M);
}

void sync::setCheckMode(CheckMode Mode) {
  ModeAtomic.store(static_cast<int>(Mode), std::memory_order_release);
}

bool sync::checking() { return checkMode() != CheckMode::Off; }

void sync::setViolationSink(ViolationSink S) {
  Sink.store(S);
}

uint64_t sync::violationCount() {
  return ViolationTally.load(std::memory_order_relaxed);
}

std::vector<Violation> sync::violations() {
  std::lock_guard<std::mutex> G(reg().Mu);
  return reg().Violations;
}

void sync::clearViolations() {
  std::lock_guard<std::mutex> G(reg().Mu);
  reg().Violations.clear();
  ViolationTally.store(0, std::memory_order_relaxed);
}

size_t sync::trackedMutexCount() {
  std::lock_guard<std::mutex> G(reg().Mu);
  return reg().Mutexes.size();
}

void sync::resetForTest() {
  std::lock_guard<std::mutex> G(reg().Mu);
  reg().Edges.clear();
  reg().Reported.clear();
  reg().Violations.clear();
  ViolationTally.store(0, std::memory_order_relaxed);
}

uint64_t sync::detail::registerMutex(const char *Name) {
  if (checkMode() == CheckMode::Off)
    return 0;
  std::lock_guard<std::mutex> G(reg().Mu);
  uint64_t Id = reg().NextId++;
  reg().Mutexes[Id].Name = Name ? Name : "mutex";
  return Id;
}

void sync::detail::destroyMutex(uint64_t Id) {
  std::string Msg;
  {
    std::lock_guard<std::mutex> G(reg().Mu);
    auto It = reg().Mutexes.find(Id);
    if (It != reg().Mutexes.end()) {
      if (It->second.Owner != 0)
        Msg = "mutex \"" + It->second.Name +
              "\" destroyed while held (by checker thread " +
              std::to_string(It->second.Owner) + ")";
      reg().Mutexes.erase(It);
    }
    reg().Edges.erase(Id);
    for (auto &[From, Out] : reg().Edges) {
      (void)From;
      Out.erase(Id);
    }
  }
  if (!Msg.empty())
    reportViolation("destroyed-held", Msg, /*AlwaysFatal=*/true);
}

void sync::detail::preAcquire(uint64_t Id) {
  if (inReport())
    return;
  auto &Stack = heldStack();
  for (uint64_t H : Stack)
    if (H == Id) {
      std::string Name;
      {
        std::lock_guard<std::mutex> G(reg().Mu);
        Name = lockName(Id);
      }
      // Continuing would self-deadlock on the std::mutex: always fatal.
      reportViolation("recursive",
                      "recursive acquisition of mutex \"" + Name + "\"",
                      /*AlwaysFatal=*/true);
      return;
    }
  if (Stack.empty())
    return;
  std::string Msg;
  {
    std::lock_guard<std::mutex> G(reg().Mu);
    uint64_t Tid = checkerTid();
    // One edge per held lock (not just the innermost): a try_lock in
    // the middle of the stack leaves no edge of its own, so outer
    // edges keep the graph path-complete.
    for (uint64_t Held : Stack) {
      if (reg().Reported.count({Held, Id}))
        continue;
      auto &Out = reg().Edges[Held];
      auto EIt = Out.find(Id);
      if (EIt != Out.end())
        continue; // known edge, already proven acyclic
      // New edge Held->Id. Cycle iff Id already reaches Held.
      std::set<uint64_t> Seen;
      if (!reaches(reg().Edges, Id, Held, Seen)) {
        Out[Id].FirstThread = Tid;
        continue;
      }
      // Report the full path Id ->* Held plus the closing edge.
      Seen.clear();
      std::vector<uint64_t> Path;
      cyclePath(reg().Edges, Id, Held, Seen, Path);
      Msg = "lock-order cycle: acquiring \"" + lockName(Id) +
            "\" while holding \"" + lockName(Held) + "\" inverts the "
            "established order. Cycle:";
      for (size_t I = 0; I + 1 < Path.size(); ++I) {
        const EdgeInfo &E = reg().Edges[Path[I]][Path[I + 1]];
        Msg += "\n  \"" + lockName(Path[I]) + "\" -> \"" +
               lockName(Path[I + 1]) + "\" (first acquired in that order "
               "by checker thread " +
               std::to_string(E.FirstThread) + ")";
      }
      Msg += "\n  \"" + lockName(Held) + "\" -> \"" + lockName(Id) +
             "\" (this acquisition, checker thread " + std::to_string(Tid) +
             ")";
      reg().Reported.insert({Held, Id});
      break;
    }
  }
  if (!Msg.empty())
    reportViolation("cycle", Msg, /*AlwaysFatal=*/false);
}

void sync::detail::postAcquire(uint64_t Id) {
  if (inReport())
    return;
  heldStack().push_back(Id);
  std::lock_guard<std::mutex> G(reg().Mu);
  auto It = reg().Mutexes.find(Id);
  if (It != reg().Mutexes.end())
    It->second.Owner = checkerTid();
}

void sync::detail::postTryAcquire(uint64_t Id) {
  // A successful try_lock is held state but no ordering evidence: it
  // never blocked, so it cannot be one side of a deadlock.
  postAcquire(Id);
}

void sync::detail::preRelease(uint64_t Id) {
  if (inReport())
    return;
  auto &Stack = heldStack();
  for (auto It = Stack.rbegin(); It != Stack.rend(); ++It)
    if (*It == Id) {
      Stack.erase(std::next(It).base());
      std::lock_guard<std::mutex> G(reg().Mu);
      auto MIt = reg().Mutexes.find(Id);
      if (MIt != reg().Mutexes.end())
        MIt->second.Owner = 0;
      return;
    }
  std::string Msg;
  {
    std::lock_guard<std::mutex> G(reg().Mu);
    auto MIt = reg().Mutexes.find(Id);
    std::string Name = lockName(Id);
    if (MIt != reg().Mutexes.end() && MIt->second.Owner != 0)
      Msg = "mutex \"" + Name + "\" unlocked by checker thread " +
            std::to_string(checkerTid()) + " but held by thread " +
            std::to_string(MIt->second.Owner);
    else
      Msg = "mutex \"" + Name + "\" unlocked but not held by this thread";
  }
  // std::mutex::unlock by a non-owner is UB: always fatal.
  reportViolation("bad-unlock", Msg, /*AlwaysFatal=*/true);
}

void sync::detail::noteWaitRelease(uint64_t Id) {
  // The CV wait releases the mutex exactly like an unlock as far as
  // discipline is concerned (including the must-own check).
  preRelease(Id);
}

void sync::detail::noteWaitReacquire(uint64_t Id) {
  // Re-acquisition on wake blocks for real, so it contributes order
  // edges against anything still held across the wait.
  preAcquire(Id);
  postAcquire(Id);
}

void sync::detail::assertHeld(uint64_t Id) {
  if (inReport())
    return;
  for (uint64_t H : heldStack())
    if (H == Id)
      return;
  std::string Name;
  {
    std::lock_guard<std::mutex> G(reg().Mu);
    Name = lockName(Id);
  }
  reportViolation("requires",
                  "caller of a *Locked() helper does not hold mutex \"" +
                      Name + "\"",
                  /*AlwaysFatal=*/false);
}

void CondVar::wait(MutexLock &L) {
  Mutex &Mu = L.Mu;
  if (Mu.DebugId)
    sync::detail::noteWaitRelease(Mu.DebugId);
  std::unique_lock<std::mutex> UL(Mu.M, std::adopt_lock);
  CV.wait(UL);
  UL.release();
  if (Mu.DebugId)
    sync::detail::noteWaitReacquire(Mu.DebugId);
}

std::cv_status CondVar::waitUntilSteady(MutexLock &L,
                                        std::chrono::steady_clock::time_point T) {
  Mutex &Mu = L.Mu;
  if (Mu.DebugId)
    sync::detail::noteWaitRelease(Mu.DebugId);
  std::unique_lock<std::mutex> UL(Mu.M, std::adopt_lock);
  std::cv_status S = CV.wait_until(UL, T);
  UL.release();
  if (Mu.DebugId)
    sync::detail::noteWaitReacquire(Mu.DebugId);
  return S;
}
