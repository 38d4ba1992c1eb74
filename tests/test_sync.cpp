//===- tests/test_sync.cpp - Lock-discipline checker tests ----------------===//
//
// Exercises the runtime half of src/support/Sync.h: the named-mutex
// registry, the global lock-order graph with DFS cycle detection, the
// always-fatal misuse classes (recursive acquire, unlock-not-held,
// destroyed-while-held), the REQUIRES runtime assert, CondVar
// bookkeeping, and the off-path zero-tracking guarantee. Every
// violation aborts, so each one is seeded inside EXPECT_DEATH (a forked
// child) with the report's text in the regex; the no-false-positive
// cases run in-process with the checker on.
//
//===----------------------------------------------------------------------===//

#include "support/Sync.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

using namespace eco;

// Death tests fork; under TSan the forked child inherits the runtime in
// a state TSan does not support, so skip them there.
#if defined(__SANITIZE_THREAD__)
#define ECO_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ECO_TSAN_BUILD 1
#endif
#endif
#ifndef ECO_TSAN_BUILD
#define ECO_TSAN_BUILD 0
#endif

namespace {

/// Runs every test with the checker on and a clean graph, and leaves the
/// process with checking off again afterwards so the suite composes with
/// any ECO_LOCK_DEBUG environment. A false positive aborts the whole
/// binary, so a clean in-process case passes only when nothing fired.
class SyncCheckerTest : public ::testing::Test {
protected:
  void SetUp() override {
    sync::resetForTest();
    sync::setChecking(true);
  }
  void TearDown() override {
    sync::setChecking(false);
    sync::resetForTest();
  }
};

/// Consistent ordering -- nested same-order pairs, singletons, and
/// repeats -- must never produce a report.
TEST_F(SyncCheckerTest, ConsistentOrderingNoFalsePositive) {
  Mutex A("clean.A");
  Mutex B("clean.B");
  Mutex C("clean.C");
  for (int I = 0; I < 10; ++I) {
    A.lock();
    B.lock();
    C.lock();
    C.unlock();
    B.unlock();
    A.unlock();
    C.lock();
    C.unlock();
  }
}

/// CondVar wait releases and reacquires the mutex through the checker's
/// bookkeeping: after a wait the waiter still provably holds the lock
/// (assertHeld passes) and no violation is produced.
TEST_F(SyncCheckerTest, CondVarWaitKeepsDisciplineConsistent) {
  Mutex M("cv.M");
  CondVar CV;
  bool Ready = false;
  std::thread Waiter([&] {
    MutexLock Lock(M);
    while (!Ready)
      CV.wait(Lock);
    M.assertHeld(); // reacquired on wake, checker must agree
  });
  {
    MutexLock Lock(M);
    Ready = true;
  }
  CV.notify_one();
  Waiter.join();
}

/// MutexLock's relock cycle (unlock inside the scope, lock again) runs
/// through the same hooks as bare lock/unlock.
TEST_F(SyncCheckerTest, RelockableGuardTracked) {
  Mutex M("relock.M");
  {
    MutexLock Lock(M);
    M.assertHeld();
    Lock.unlock();
    Lock.lock();
    M.assertHeld();
  }
}

/// Mutexes constructed while checking is OFF are permanently untracked:
/// no registry entry, no per-op hook cost, even if checking is enabled
/// later. This is the zero-overhead-off guarantee in functional form.
TEST_F(SyncCheckerTest, MutexConstructedWithCheckingOffIsUntracked) {
  sync::setChecking(false);
  Mutex M("untracked.M");
  EXPECT_FALSE(M.checked());
  size_t Tracked = sync::trackedMutexCount();
  sync::setChecking(true);
  EXPECT_EQ(sync::trackedMutexCount(), Tracked);
  M.lock();
  M.unlock();
  M.lock();
  M.unlock();
}

/// Destruction of a tracked mutex removes its node and every edge that
/// mentions it, so a recycled address/name cannot inherit stale order.
TEST_F(SyncCheckerTest, DestructionRemovesNodeAndEdges) {
  Mutex A("gc.A");
  {
    Mutex B("gc.B");
    A.lock();
    B.lock(); // A -> B
    B.unlock();
    A.unlock();
  }
  {
    Mutex B2("gc.B");
    B2.lock();
    A.lock(); // inverts only if gc.B's old A->B edge wrongly survived
    A.unlock();
    B2.unlock();
  }
  // B2 is a fresh node: B2 -> A is simply the first observed order for
  // this pair, not an inversion.
}

/// Many threads acquiring a shared pool of mutexes in the one global
/// order: the graph mutates concurrently, no violation may appear, and
/// under -DECO_SANITIZE=thread this doubles as the TSan-cleanliness
/// proof for the checker's own registry.
TEST_F(SyncCheckerTest, ConcurrentGraphUpdatesClean) {
  constexpr int NumLocks = 6;
  constexpr int NumThreads = 4;
  constexpr int Iters = 200;
  std::vector<Mutex *> Pool;
  for (int I = 0; I < NumLocks; ++I)
    Pool.push_back(new Mutex(("pool." + std::to_string(I)).c_str()));
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (int I = 0; I < Iters; ++I) {
        int First = (T + I) % NumLocks;
        int Second = First + 1 + (I % (NumLocks - First - 1 > 0
                                           ? NumLocks - First - 1
                                           : 1));
        if (Second >= NumLocks) {
          Pool[First]->lock();
          Pool[First]->unlock();
          continue;
        }
        // Always lower index first: one global order, never a cycle.
        Pool[First]->lock();
        Pool[Second]->lock();
        Pool[Second]->unlock();
        Pool[First]->unlock();
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (Mutex *M : Pool)
    delete M;
}

#if !ECO_TSAN_BUILD

/// Establish A -> B, then acquire B -> A. Both acquisitions would
/// succeed (nothing is contended), but the checker must flag the
/// inversion and name both mutexes in the report.
TEST_F(SyncCheckerTest, AbBaInversionReportedWithBothNames) {
  EXPECT_DEATH(
      {
        Mutex A("order.A");
        Mutex B("order.B");
        A.lock();
        B.lock();
        B.unlock();
        A.unlock();
        B.lock();
        A.lock(); // inversion: B is held, and A -> B is established
      },
      "eco sync \\[cycle\\]: lock-order cycle: acquiring \"order\\.A\" "
      "while holding \"order\\.B\"");
}

/// An inversion that only closes through a chain (A->B, B->C, then
/// C->A) is still a cycle; the report walks the whole path.
TEST_F(SyncCheckerTest, TransitiveCycleDetected) {
  EXPECT_DEATH(
      {
        Mutex A("chain.A");
        Mutex B("chain.B");
        Mutex C("chain.C");
        A.lock();
        B.lock();
        B.unlock();
        A.unlock();
        B.lock();
        C.lock();
        C.unlock();
        B.unlock();
        C.lock();
        A.lock(); // closes C -> A against A ->* C
      },
      "\\[cycle\\].*\"chain\\.A\" -> \"chain\\.B\".*"
      "\"chain\\.B\" -> \"chain\\.C\".*"
      "\"chain\\.C\" -> \"chain\\.A\" \\(this acquisition");
}

/// The runtime REQUIRES assert: with the lock it is silent; without it,
/// a "requires" violation.
TEST_F(SyncCheckerTest, AssertHeldReportsWhenNotHeld) {
  EXPECT_DEATH(
      {
        Mutex M("req.M");
        M.lock();
        M.assertHeld();
        M.unlock();
        M.assertHeld();
      },
      "\\[requires\\]: caller of a \\*Locked\\(\\) helper does not hold "
      "mutex \"req\\.M\"");
}

/// An inversion assembled by two threads (each takes a consistent pair,
/// but the pairs disagree) is still caught: edges are global, not
/// per-thread. The first thread is joined before the second starts, so
/// the order is fully sequenced -- no timing dependence.
TEST_F(SyncCheckerTest, CrossThreadInversionDetected) {
  EXPECT_DEATH(
      {
        Mutex A("xthread.A");
        Mutex B("xthread.B");
        std::thread T1([&] {
          A.lock();
          B.lock(); // A -> B
          B.unlock();
          A.unlock();
        });
        T1.join();
        std::thread T2([&] {
          B.lock();
          A.lock(); // B -> A inverts T1's order
        });
        T2.join();
      },
      "\\[cycle\\]: lock-order cycle: acquiring \"xthread\\.A\" while "
      "holding \"xthread\\.B\".*first acquired in that order by "
      "checker thread [0-9]+");
}

TEST_F(SyncCheckerTest, RecursiveAcquireDiesUnderFatal) {
  EXPECT_DEATH(
      {
        Mutex M("fatal.recursive");
        M.lock();
        M.lock();
      },
      "\\[recursive\\]: recursive acquisition of mutex "
      "\"fatal\\.recursive\"");
}

TEST_F(SyncCheckerTest, UnlockNotHeldDiesUnderFatal) {
  EXPECT_DEATH(
      {
        Mutex M("fatal.unlock");
        M.lock();
        M.unlock();
        M.unlock();
      },
      "\\[bad-unlock\\]: mutex \"fatal\\.unlock\" unlocked but not held "
      "by this thread");
}

TEST_F(SyncCheckerTest, DestroyedWhileHeldDiesUnderFatal) {
  EXPECT_DEATH(
      {
        auto *M = new Mutex("fatal.destroyed");
        M->lock();
        delete M;
      },
      "\\[destroyed-held\\]: mutex \"fatal\\.destroyed\" destroyed while "
      "held");
}

#endif // !ECO_TSAN_BUILD

} // namespace
