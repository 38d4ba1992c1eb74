//===- tests/test_sync.cpp - Lock-discipline checker tests ----------------===//
//
// Exercises the runtime half of src/support/Sync.h: the named-mutex
// registry, the global lock-order graph with DFS cycle detection, the
// always-fatal misuse classes (recursive acquire, unlock-not-held,
// destroyed-while-held), the REQUIRES runtime assert, try_lock's
// no-edge policy, CondVar bookkeeping, and the off-path zero-tracking
// guarantee, and the obs sink that turns a violation into an event and
// a counter bump. Death tests run the checker in Fatal mode inside the
// forked child so the parent process never aborts.
//
//===----------------------------------------------------------------------===//

#include "obs/Event.h"
#include "obs/Metrics.h"
#include "support/Sync.h"

#include <gtest/gtest.h>

#include <atomic>
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

/// Runs every test with the checker in Report mode and a clean slate,
/// and leaves the process with checking off again afterwards so the
/// suite composes with any ECO_LOCK_DEBUG environment.
class SyncCheckerTest : public ::testing::Test {
protected:
  void SetUp() override {
    sync::resetForTest();
    sync::setCheckMode(sync::CheckMode::Report);
  }
  void TearDown() override {
    sync::setCheckMode(sync::CheckMode::Off);
    sync::resetForTest();
  }
};

/// Establish A -> B, then acquire B -> A. Both acquisitions succeed
/// (nothing is contended), but the checker must flag the inversion and
/// name both mutexes in the report.
TEST_F(SyncCheckerTest, AbBaInversionReportedWithBothNames) {
  Mutex A("order.A");
  Mutex B("order.B");
  ASSERT_TRUE(A.checked());
  ASSERT_TRUE(B.checked());

  A.lock();
  B.lock();
  B.unlock();
  A.unlock();
  EXPECT_EQ(sync::violationCount(), 0u);

  B.lock();
  A.lock(); // inversion: B is held, and A -> B is established
  A.unlock();
  B.unlock();

  ASSERT_EQ(sync::violationCount(), 1u);
  sync::Violation V = sync::violations().front();
  EXPECT_EQ(V.Kind, "cycle");
  EXPECT_NE(V.Message.find("order.A"), std::string::npos) << V.Message;
  EXPECT_NE(V.Message.find("order.B"), std::string::npos) << V.Message;
  EXPECT_NE(V.Message.find("lock-order cycle"), std::string::npos)
      << V.Message;
}

/// The same inversion acquired again must not re-report: the Reported
/// set both de-spams the log and keeps the graph acyclic for later DFS.
TEST_F(SyncCheckerTest, InversionReportedExactlyOnce) {
  Mutex A("once.A");
  Mutex B("once.B");
  A.lock();
  B.lock();
  B.unlock();
  A.unlock();
  for (int I = 0; I < 3; ++I) {
    B.lock();
    A.lock();
    A.unlock();
    B.unlock();
  }
  EXPECT_EQ(sync::violationCount(), 1u);
}

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
  EXPECT_EQ(sync::violationCount(), 0u);
}

/// An inversion that only closes through a chain (A->B, B->C, then
/// C->A) is still a cycle; the report walks the whole path.
TEST_F(SyncCheckerTest, TransitiveCycleDetected) {
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
  A.unlock();
  C.unlock();

  ASSERT_EQ(sync::violationCount(), 1u);
  std::string Msg = sync::violations().front().Message;
  EXPECT_NE(Msg.find("chain.A"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("chain.B"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("chain.C"), std::string::npos) << Msg;
}

/// A successful try_lock never blocks, so it is not deadlock evidence:
/// it must contribute no order edges. Taking A then try(B), and later
/// B then A, is therefore clean.
TEST_F(SyncCheckerTest, TryLockAddsNoOrderEdges) {
  Mutex A("try.A");
  Mutex B("try.B");
  A.lock();
  ASSERT_TRUE(B.try_lock());
  B.unlock();
  A.unlock();
  B.lock();
  A.lock();
  A.unlock();
  B.unlock();
  EXPECT_EQ(sync::violationCount(), 0u);
}

/// ...but a blocking acquisition made while a try_lock is held still
/// produces an edge from the try-held mutex, so inversions against a
/// try-held lock are caught.
TEST_F(SyncCheckerTest, BlockingAcquireUnderTryHeldMakesEdges) {
  Mutex A("tryedge.A");
  Mutex B("tryedge.B");
  ASSERT_TRUE(A.try_lock());
  B.lock(); // edge A -> B even though A arrived via try_lock
  B.unlock();
  A.unlock();
  B.lock();
  A.lock();
  A.unlock();
  B.unlock();
  EXPECT_EQ(sync::violationCount(), 1u);
}

/// The runtime REQUIRES assert: calling assertHeld() without the lock
/// reports a "requires" violation; with the lock it is silent.
TEST_F(SyncCheckerTest, AssertHeldReportsWhenNotHeld) {
  Mutex M("req.M");
  M.lock();
  M.assertHeld();
  M.unlock();
  EXPECT_EQ(sync::violationCount(), 0u);
  M.assertHeld();
  ASSERT_EQ(sync::violationCount(), 1u);
  EXPECT_EQ(sync::violations().front().Kind, "requires");
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
  EXPECT_EQ(sync::violationCount(), 0u);
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
  EXPECT_EQ(sync::violationCount(), 0u);
}

/// Mutexes constructed while checking is OFF are permanently untracked:
/// no registry entry, no per-op hook cost, even if checking is enabled
/// later. This is the zero-overhead-off guarantee in functional form.
TEST_F(SyncCheckerTest, MutexConstructedWithCheckingOffIsUntracked) {
  sync::setCheckMode(sync::CheckMode::Off);
  Mutex M("untracked.M");
  EXPECT_FALSE(M.checked());
  size_t Tracked = sync::trackedMutexCount();
  sync::setCheckMode(sync::CheckMode::Report);
  EXPECT_EQ(sync::trackedMutexCount(), Tracked);
  M.lock();
  M.unlock();
  M.lock();
  M.unlock();
  EXPECT_EQ(sync::violationCount(), 0u);
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
  EXPECT_EQ(sync::violationCount(), 0u);
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
  EXPECT_EQ(sync::violationCount(), 0u);
  for (Mutex *M : Pool)
    delete M;
}

/// An inversion assembled by two threads (each takes a consistent pair,
/// but the pairs disagree) is still caught: edges are global, not
/// per-thread. Sequenced with an atomic gate so the second thread's
/// acquisition always happens after the first established its edge --
/// deterministic, no timing dependence.
TEST_F(SyncCheckerTest, CrossThreadInversionDetected) {
  Mutex A("xthread.A");
  Mutex B("xthread.B");
  std::atomic<bool> EdgeMade{false};
  std::thread T1([&] {
    A.lock();
    B.lock(); // A -> B
    B.unlock();
    A.unlock();
    EdgeMade.store(true);
  });
  T1.join(); // stronger than the gate: fully sequenced
  ASSERT_TRUE(EdgeMade.load());
  std::thread T2([&] {
    B.lock();
    A.lock(); // B -> A inverts T1's order
    A.unlock();
    B.unlock();
  });
  T2.join();
  ASSERT_EQ(sync::violationCount(), 1u);
  std::string Msg = sync::violations().front().Message;
  EXPECT_NE(Msg.find("xthread.A"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("xthread.B"), std::string::npos) << Msg;
  EXPECT_NE(Msg.find("checker thread"), std::string::npos) << Msg;
}

#if !ECO_TSAN_BUILD

/// Fatal-mode misuse classes abort the (forked) child. Each death
/// statement flips the mode inside the child so the parent suite keeps
/// running in Report mode.
TEST_F(SyncCheckerTest, RecursiveAcquireDiesUnderFatal) {
  EXPECT_DEATH(
      {
        sync::setCheckMode(sync::CheckMode::Fatal);
        Mutex M("fatal.recursive");
        M.lock();
        M.lock();
      },
      "recursive acquisition.*fatal\\.recursive");
}

TEST_F(SyncCheckerTest, UnlockNotHeldDiesUnderFatal) {
  EXPECT_DEATH(
      {
        sync::setCheckMode(sync::CheckMode::Fatal);
        Mutex M("fatal.unlock");
        M.lock();
        M.unlock();
        M.unlock();
      },
      "bad-unlock");
}

TEST_F(SyncCheckerTest, DestroyedWhileHeldDiesUnderFatal) {
  EXPECT_DEATH(
      {
        sync::setCheckMode(sync::CheckMode::Fatal);
        auto *M = new Mutex("fatal.destroyed");
        M->lock();
        delete M;
      },
      "destroyed while held");
}

/// Recursive acquire is fatal even in Report mode: continuing would
/// self-deadlock on the underlying std::mutex, so there is no safe way
/// to merely report it.
TEST_F(SyncCheckerTest, RecursiveAcquireFatalEvenInReportMode) {
  EXPECT_DEATH(
      {
        sync::setCheckMode(sync::CheckMode::Report);
        Mutex M("report.recursive");
        M.lock();
        M.lock();
      },
      "recursive acquisition");
}

#endif // !ECO_TSAN_BUILD

/// Lock-order cycles in Report mode do NOT abort: both acquisitions
/// complete and execution continues (this whole fixture would have died
/// otherwise), which is what lets ECO_SANITIZE builds run the full
/// suite with reporting on.
TEST_F(SyncCheckerTest, CycleIsNonFatalInReportMode) {
  Mutex A("soft.A");
  Mutex B("soft.B");
  A.lock();
  B.lock();
  B.unlock();
  A.unlock();
  B.lock();
  A.lock();
  A.unlock();
  B.unlock();
  EXPECT_EQ(sync::violationCount(), 1u);
  // Still alive, still usable.
  A.lock();
  A.unlock();
}

/// support/ sits below obs/, so reports leave through a sink; the event
/// bus installs obs's, which publishes a `sync.violation` event and
/// bumps the `sync.violations` counter.
TEST_F(SyncCheckerTest, ViolationReachesObsEventAndCounter) {
  obs::EventBus &Bus = obs::EventBus::global();
  Bus.clear();
  const bool EventsWere = obs::eventsEnabled();
  const bool MetricsWere = obs::metricsEnabled();
  obs::setEventsEnabled(true);
  obs::setMetricsEnabled(true);
  const uint64_t Before = obs::metrics().counter("sync.violations").value();

  Mutex A("sink.A");
  Mutex B("sink.B");
  A.lock();
  B.lock();
  B.unlock();
  A.unlock();
  B.lock();
  A.lock();
  A.unlock();
  B.unlock();

  obs::setEventsEnabled(EventsWere);
  obs::setMetricsEnabled(MetricsWere);
  ASSERT_EQ(sync::violationCount(), 1u);
  EXPECT_EQ(Bus.typeCount("sync.violation"), 1u);
  EXPECT_EQ(obs::metrics().counter("sync.violations").value(), Before + 1);
  Bus.clear();
}

} // namespace
