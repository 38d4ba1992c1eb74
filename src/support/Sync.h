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
///     (`ECO_LOCK_DEBUG` set to anything but `0` at first use, or
///     sync::setChecking(true) in a test), each Mutex registers under a
///     human-readable name and every blocking acquisition records a
///     held->acquired edge in one global lock-order graph. A DFS at
///     edge-insertion time catches any cycle — a potential AB/BA
///     deadlock — *on runs where the deadlock does not actually fire*,
///     naming both locks and both acquisition sides. Recursive
///     acquisition, unlock by a non-owning thread, destruction of a held
///     mutex and a `*Locked()` helper called without its lock are also
///     caught. Every violation prints one `eco sync [<kind>]: <message>`
///     line to stderr and aborts. When the checker is off the only
///     residue is one pointer-sized id per Mutex and a single
///     predictable branch per lock/unlock (bench_obs_overhead gates it
///     at <=0.1% of an evaluation).
///
/// The style rule the wrappers impose on call sites: predicate waits
/// are written as explicit `while (!cond) CV.wait(L);` loops, never
/// lambda predicates — Clang analyzes a lambda body as a separate
/// function that provably holds nothing, so a
/// `wait(lock, [&]{ return Guarded; })` overload would force every
/// caller to suppress the analysis. CondVar deliberately has no
/// predicate overloads.
///
//===----------------------------------------------------------------------===//

#ifndef ECO_SUPPORT_SYNC_H
#define ECO_SUPPORT_SYNC_H

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>

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
#define ECO_EXCLUDES(...) ECO_TSA(locks_excluded(__VA_ARGS__))
#define ECO_ASSERT_CAPABILITY(x) ECO_TSA(assert_capability(x))
#define ECO_RETURN_CAPABILITY(x) ECO_TSA(lock_returned(x))
#define ECO_NO_THREAD_SAFETY_ANALYSIS ECO_TSA(no_thread_safety_analysis)

namespace eco {

class Mutex;
class MutexLock;
class CondVar;

namespace sync {

/// True when the runtime checker is on. Lazily initialised on first
/// use: on when ECO_LOCK_DEBUG is set to anything but "0".
bool checking();

/// Overrides the checker (tests). Only mutexes *constructed while
/// checking is on* are tracked — flipping it does not retroactively
/// register existing mutexes, which is what makes test-local checking
/// deterministic inside a larger process.
void setChecking(bool On);

/// Number of live mutexes the checker is tracking (0 when it is off —
/// the zero-overhead guarantee the off-path test pins down).
size_t trackedMutexCount();

/// Test isolation: drops every lock-order edge (registered mutexes stay
/// registered). Call only with no eco locks held.
void resetForTest();

namespace detail {
// Internal hooks Mutex/CondVar call. Id 0 (checker off at construction)
// short-circuits before any of these.
uint64_t registerMutex(const char *Name);
void destroyMutex(uint64_t Id);
void preAcquire(uint64_t Id);     ///< before blocking: recursion + edges
void postAcquire(uint64_t Id);    ///< after the lock is held
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

  /// Runtime counterpart of ECO_REQUIRES: when the checker is on and
  /// the calling thread does not hold this mutex, reports and aborts.
  /// Free when the checker is off. `*Locked()`
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
