//===- support/Sync.cpp - Owner-check reports and CondVar waits -----------===//
//
// Part of the ECO reproduction of Chen, Chame & Hall, CGO 2005.
//
//===----------------------------------------------------------------------===//
//
// The out-of-line half of Sync.h: the one-line misuse report every owner
// check ends in, and the CondVar waits, which hand the mutex's owner
// record over around the sleep.
//
//===----------------------------------------------------------------------===//

#include "support/Sync.h"

#include <cstdio>
#include <cstdlib>

using namespace eco;

void Mutex::fail(Misuse Kind) const {
  unsigned long long Held = Owner.load(std::memory_order_relaxed);
  switch (Kind) {
  case Misuse::Recursive:
    std::fprintf(stderr,
                 "eco sync [recursive]: recursive acquisition of mutex "
                 "\"%s\"\n",
                 Name);
    break;
  case Misuse::BadUnlock:
    if (Held != 0)
      std::fprintf(stderr,
                   "eco sync [bad-unlock]: mutex \"%s\" unlocked by thread "
                   "%llu but held by thread %llu\n",
                   Name, static_cast<unsigned long long>(callerId()), Held);
    else
      std::fprintf(stderr,
                   "eco sync [bad-unlock]: mutex \"%s\" unlocked but not "
                   "held by this thread\n",
                   Name);
    break;
  case Misuse::DestroyedHeld:
    std::fprintf(stderr,
                 "eco sync [destroyed-held]: mutex \"%s\" destroyed while "
                 "held (by thread %llu)\n",
                 Name, Held);
    break;
  case Misuse::Requires:
    std::fprintf(stderr,
                 "eco sync [requires]: caller of a *Locked() helper does not "
                 "hold mutex \"%s\"\n",
                 Name);
    break;
  }
  std::abort();
}

void CondVar::wait(MutexLock &L) {
  Mutex &Mu = L.Mu;
  Mu.releaseOwner();
  std::unique_lock<std::mutex> UL(Mu.M, std::adopt_lock);
  CV.wait(UL);
  UL.release();
  Mu.Owner.store(Mutex::callerId(), std::memory_order_relaxed);
}

std::cv_status CondVar::waitUntilSteady(MutexLock &L,
                                        std::chrono::steady_clock::time_point T) {
  Mutex &Mu = L.Mu;
  Mu.releaseOwner();
  std::unique_lock<std::mutex> UL(Mu.M, std::adopt_lock);
  std::cv_status S = CV.wait_until(UL, T);
  UL.release();
  Mu.Owner.store(Mutex::callerId(), std::memory_order_relaxed);
  return S;
}
