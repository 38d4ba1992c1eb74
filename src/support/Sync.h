//===- support/Sync.h - Annotated synchronization primitives ---*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repo's only sanctioned mutex: `eco::Mutex` + `eco::MutexLock` +
/// `eco::CondVar`, thin wrappers over the std primitives that carry two
/// layers of checking the raw types cannot:
///
///  1. **Static**: Clang thread-safety capability annotations. The
///     `ECO_GUARDED_BY` / `ECO_REQUIRES` / `ECO_ACQUIRE` family expands
///     to `__attribute__((...))` under Clang and to nothing under GCC,
///     so `cmake -DECO_ANALYZE=ON` (clang, `-Wthread-safety
///     -Werror=thread-safety`) machine-checks every locking contract
///     while gcc tier-1 builds are byte-identical to unannotated code.
///     Every member a mutex protects is tagged `ECO_GUARDED_BY(M)`;
///     every `*Locked()` helper is tagged `ECO_REQUIRES(M)` — the
///     analysis rejects any caller that cannot prove it holds M.
///
///  2. **Dynamic**: an opt-in lock-discipline checker. When enabled
///     (`ECO_LOCK_DEBUG=1` in the environment, or by default in any
///     `ECO_SANITIZE` build via the ECO_LOCK_CHECK_DEFAULT define), each
///     Mutex registers under a human-readable name and every blocking
///     acquisition records a held->acquired edge in one global
///     lock-order graph. A DFS at edge-insertion time reports any cycle
///     — a potential AB/BA deadlock — *on runs where the deadlock does
///     not actually fire*, naming both locks and both acquisition
///     sides. Recursive acquisition, unlock by a non-owning thread, and
///     destruction of a held mutex are also caught. Violations go
///     to a ViolationSink (obs installs one that logs, publishes a
///     `sync.violation` event and bumps the `sync.violations` counter);
///     under ECO_LOCK_DEBUG=1 (CheckMode::Fatal) they abort. When the checker
///     is off the only residue is one pointer-sized id per Mutex and a
///     single predictable branch per lock/unlock (bench_obs_overhead
///     gates it at <=0.1% of an evaluation).
///
/// Style rules the wrappers impose on call sites:
///
///  * Predicate waits are written as explicit `while (!cond) CV.wait(L);`
///    loops, never lambda predicates — Clang analyzes a lambda body as a
///    separate function that provably holds nothing, so a
///    `wait(lock, [&]{ return Guarded; })` overload would force every
///    caller to suppress the analysis. CondVar deliberately has no
///    predicate overloads.
///
///  * try-lock is a raw annotated call, `if (M.try_lock()) { ...;
///    M.unlock(); }` — the analysis cannot see through a deferred
///    scoped guard queried via owns_lock().
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SUPPORT_SYNC_H
#define ECO_SUPPORT_SYNC_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

// --- Clang thread-safety capability annotations -------------------------
// Expand to nothing on GCC (and on clang with the escape hatch defined),
// so annotated code compiles identically everywhere; only
// -DECO_ANALYZE=ON clang builds interpret them.
#if defined(__clang__) && !defined(ECO_NO_THREAD_SAFETY_ATTRIBUTES)
#define ECO_TSA(x) __attribute__((x))
#else
#define ECO_TSA(x)
#endif

#define ECO_CAPABILITY(x) ECO_TSA(capability(x))
#define ECO_SCOPED_CAPABILITY ECO_TSA(scoped_lockable)
#define ECO_GUARDED_BY(x) ECO_TSA(guarded_by(x))
#define ECO_PT_GUARDED_BY(x) ECO_TSA(pt_guarded_by(x))
#define ECO_ACQUIRED_BEFORE(...) ECO_TSA(acquired_before(__VA_ARGS__))
#define ECO_ACQUIRED_AFTER(...) ECO_TSA(acquired_after(__VA_ARGS__))
#define ECO_REQUIRES(...) ECO_TSA(requires_capability(__VA_ARGS__))
#define ECO_ACQUIRE(...) ECO_TSA(acquire_capability(__VA_ARGS__))
#define ECO_RELEASE(...) ECO_TSA(release_capability(__VA_ARGS__))
#define ECO_TRY_ACQUIRE(...) ECO_TSA(try_acquire_capability(__VA_ARGS__))
#define ECO_EXCLUDES(...) ECO_TSA(locks_excluded(__VA_ARGS__))
#define ECO_ASSERT_CAPABILITY(x) ECO_TSA(assert_capability(x))
#define ECO_RETURN_CAPABILITY(x) ECO_TSA(lock_returned(x))
#define ECO_NO_THREAD_SAFETY_ANALYSIS ECO_TSA(no_thread_safety_analysis)

namespace eco {

class Mutex;
class MutexLock;
class CondVar;

namespace sync {

/// Runtime checker modes. Off: zero tracking (mutexes register no id).
/// Report: violations are recorded + logged, execution continues where
/// that is safe. Fatal: every violation aborts (ECO_LOCK_DEBUG=1).
/// Violations that make continuing undefined behaviour — recursive
/// acquisition, unlock of a mutex the thread does not hold, destruction
/// of a held mutex — abort in *both* checking modes, before the
/// underlying std::mutex executes the UB.
enum class CheckMode { Off = 0, Report = 1, Fatal = 2 };

/// The active mode. Lazily initialised on first use: ECO_LOCK_DEBUG=1
/// (any non-"0" value) selects Fatal; otherwise an ECO_SANITIZE build
/// (compiled with ECO_LOCK_CHECK_DEFAULT) selects Report; otherwise Off.
CheckMode checkMode();

/// Overrides the mode (tests). Only mutexes *constructed while checking
/// is enabled* are tracked — flipping the mode does not retroactively
/// register existing mutexes, which is what makes test-local checking
/// deterministic inside a larger process.
void setCheckMode(CheckMode Mode);

/// True when checkMode() != Off.
bool checking();

/// One recorded discipline violation.
struct Violation {
  std::string Kind;    ///< "cycle", "recursive", "bad-unlock", ...
  std::string Message; ///< full human-readable report
};

/// Violations recorded since the last clearViolations() (Report mode —
/// Fatal aborts on the first one).
uint64_t violationCount();
std::vector<Violation> violations();
void clearViolations();

/// Number of live mutexes the checker is tracking (0 when it is off —
/// the zero-overhead guarantee the off-path test pins down).
size_t trackedMutexCount();

/// Test isolation: drops every lock-order edge and recorded violation
/// (registered mutexes stay registered). Call only with no eco locks
/// held.
void resetForTest();

/// Where each violation is reported, besides violations(). The default
/// writes one line to stderr. support sits below obs in the layering,
/// so obs installs its sink at static initialisation (obs/Event.cpp): an
/// ECO_LOG(Error) line, a `sync.violation` event, and a bump of the
/// `sync.violations` counter. The sink runs with the checker off for
/// the reporting thread, so locks it takes are not checked.
using ViolationSink = void (*)(const Violation &);
void setViolationSink(ViolationSink Sink);

namespace detail {
// Internal hooks Mutex/CondVar call. Id 0 (checker off at construction)
// short-circuits before any of these.
uint64_t registerMutex(const char *Name);
void destroyMutex(uint64_t Id);
void preAcquire(uint64_t Id);     ///< before blocking: recursion + edges
void postAcquire(uint64_t Id);    ///< after the lock is held
void postTryAcquire(uint64_t Id); ///< successful try_lock (no edges)
void preRelease(uint64_t Id);     ///< before unlock: ownership check
void noteWaitRelease(uint64_t Id);   ///< CV wait releases without unlock()
void noteWaitReacquire(uint64_t Id); ///< CV wait re-acquired on wake
void assertHeld(uint64_t Id);     ///< runtime ECO_REQUIRES check
} // namespace detail

} // namespace sync

/// A named, capability-annotated mutex. Drop-in for std::mutex; the
/// name feeds the lock-order checker's reports ("fleet.M", "engine
/// stats") so a cycle report reads like the DESIGN.md lock-order table.
class ECO_CAPABILITY("mutex") Mutex {
public:
  explicit Mutex(const char *Name = "mutex")
      : DebugId(sync::detail::registerMutex(Name)) {}
  ~Mutex() {
    if (DebugId)
      sync::detail::destroyMutex(DebugId);
  }

  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() ECO_ACQUIRE() {
    if (DebugId)
      sync::detail::preAcquire(DebugId);
    M.lock();
    if (DebugId)
      sync::detail::postAcquire(DebugId);
  }

  void unlock() ECO_RELEASE() {
    if (DebugId)
      sync::detail::preRelease(DebugId);
    M.unlock();
  }

  bool try_lock() ECO_TRY_ACQUIRE(true) {
    bool Ok = M.try_lock();
    if (Ok && DebugId)
      sync::detail::postTryAcquire(DebugId);
    return Ok;
  }

  /// Runtime counterpart of ECO_REQUIRES: when the checker is on and
  /// the calling thread does not hold this mutex, reports (fatal under
  /// ECO_LOCK_DEBUG=1). Free when the checker is off. `*Locked()`
  /// helpers call this on entry.
  void assertHeld() const ECO_ASSERT_CAPABILITY(this) {
    if (DebugId)
      sync::detail::assertHeld(DebugId);
  }

  /// True when this mutex registered with the runtime checker at
  /// construction (tests pin the off-path down with this).
  bool checked() const { return DebugId != 0; }

private:
  friend class CondVar;
  std::mutex M;
  const uint64_t DebugId; ///< 0 = untracked (checker off at ctor)
};

/// Scoped lock over eco::Mutex — the std::unique_lock replacement.
/// Relockable: CondVar waits and hand-over-hand sections use lock() /
/// unlock() explicitly; the destructor releases only if held.
class ECO_SCOPED_CAPABILITY MutexLock {
public:
  explicit MutexLock(Mutex &M) ECO_ACQUIRE(M) : Mu(M), Held(true) {
    Mu.lock();
  }
  ~MutexLock() ECO_RELEASE() {
    if (Held)
      Mu.unlock();
  }

  MutexLock(const MutexLock &) = delete;
  MutexLock &operator=(const MutexLock &) = delete;

  void lock() ECO_ACQUIRE() {
    Mu.lock();
    Held = true;
  }
  void unlock() ECO_RELEASE() {
    Held = false;
    Mu.unlock();
  }
  bool owns_lock() const { return Held; }

private:
  friend class CondVar;
  Mutex &Mu;
  bool Held;
};

/// Condition variable over eco::Mutex. Deliberately has *no* predicate
/// overloads — see the file comment; write `while (!cond) CV.wait(L);`
/// so the predicate is analyzed with the capability held.
class CondVar {
public:
  CondVar() = default;
  CondVar(const CondVar &) = delete;
  CondVar &operator=(const CondVar &) = delete;

  void notify_one() { CV.notify_one(); }
  void notify_all() { CV.notify_all(); }

  /// Atomically releases L's mutex and waits; the mutex is held again
  /// on return. L must own its mutex.
  void wait(MutexLock &L);

  template <class Rep, class Period>
  std::cv_status wait_for(MutexLock &L,
                          const std::chrono::duration<Rep, Period> &D) {
    return waitUntilSteady(
        L, std::chrono::steady_clock::now() +
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   D));
  }

  /// Non-template base for the timed waits (also usable directly).
  std::cv_status waitUntilSteady(MutexLock &L,
                                 std::chrono::steady_clock::time_point T);

private:
  std::condition_variable CV;
};

} // namespace eco

#endif // ECO_SUPPORT_SYNC_H
