//===- support/Sync.h - Annotated synchronization primitives ---*- C++ -*-===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repo's only sanctioned mutex: `eco::Mutex` + `eco::MutexLock` +
/// `eco::CondVar`, thin wrappers over the std primitives that carry two
/// checks the raw types cannot:
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
///  2. **Dynamic**: an always-on owner check. Each Mutex records the
///     thread that holds it, and aborts with one
///     `eco sync [<kind>]: <message>` line on stderr when that record
///     proves a misuse: recursive acquisition (`recursive`, a certain
///     deadlock on std::mutex), unlock by a thread that does not hold it
///     (`bad-unlock`), destruction while held (`destroyed-held`) and a
///     `*Locked()` helper entered without its lock (`requires`). It
///     costs a relaxed atomic load and store per lock and unlock
///     (bench_obs_overhead phase D gates it at <=0.1% of an evaluation),
///     so it runs in every build.
///
/// Lock *order* is not checked here: ThreadSanitizer's deadlock detector
/// sees every eco::Mutex as the std::mutex it wraps, and the TSan pass
/// over the labelled suites reports any AB/BA inversion
/// (`sync_tsan_inversion` pins that it does).
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

#include <atomic>
#include <chrono>
#include <condition_variable>
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
#define ECO_REQUIRES(...) ECO_TSA(requires_capability(__VA_ARGS__))
#define ECO_ACQUIRE(...) ECO_TSA(acquire_capability(__VA_ARGS__))
#define ECO_RELEASE(...) ECO_TSA(release_capability(__VA_ARGS__))
#define ECO_EXCLUDES(...) ECO_TSA(locks_excluded(__VA_ARGS__))
#define ECO_ASSERT_CAPABILITY(x) ECO_TSA(assert_capability(x))

namespace eco {

/// A named, capability-annotated mutex. Drop-in for std::mutex; the
/// name ("serve.fleet", "engine.stats") appears in every misuse report.
/// Only the holder stores its own id into Owner, so `Owner == callerId()`
/// is exact under relaxed ordering; the destructor's read is ordered by
/// whatever ends the mutex's use (a join, the last unlock).
class ECO_CAPABILITY("mutex") Mutex {
public:
  /// Name must outlive the mutex (every caller passes a literal).
  explicit Mutex(const char *Name = "mutex") : Name(Name) {}
  ~Mutex() {
    if (Owner.load(std::memory_order_relaxed) != 0)
      fail(Misuse::DestroyedHeld);
  }

  Mutex(const Mutex &) = delete;
  Mutex &operator=(const Mutex &) = delete;

  void lock() ECO_ACQUIRE() {
    if (ownedByCaller())
      fail(Misuse::Recursive);
    M.lock();
    Owner.store(callerId(), std::memory_order_relaxed);
  }

  void unlock() ECO_RELEASE() {
    releaseOwner();
    M.unlock();
  }

  /// Runtime counterpart of ECO_REQUIRES: aborts when the calling
  /// thread does not hold this mutex. `*Locked()` helpers call this on
  /// entry.
  void assertHeld() const ECO_ASSERT_CAPABILITY(this) {
    if (!ownedByCaller())
      fail(Misuse::Requires);
  }

private:
  friend class CondVar;
  enum class Misuse { Recursive, BadUnlock, DestroyedHeld, Requires };

  /// The calling thread's id: 1, 2, ... in order of first use (0 = no
  /// owner).
  static uint64_t callerId() {
    static std::atomic<uint64_t> Next{1};
    thread_local const uint64_t Id =
        Next.fetch_add(1, std::memory_order_relaxed);
    return Id;
  }
  bool ownedByCaller() const {
    return Owner.load(std::memory_order_relaxed) == callerId();
  }
  /// The bad-unlock check plus the owner reset, shared by unlock() and
  /// the CondVar waits (a wait releases the mutex like an unlock).
  void releaseOwner() {
    if (!ownedByCaller())
      fail(Misuse::BadUnlock);
    Owner.store(0, std::memory_order_relaxed);
  }
  /// Prints the one-line report and aborts.
  [[noreturn]] void fail(Misuse Kind) const;

  std::mutex M;
  const char *const Name;
  std::atomic<uint64_t> Owner{0}; ///< callerId() of the holder, or 0
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
