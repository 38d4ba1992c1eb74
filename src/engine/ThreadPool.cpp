//===- engine/ThreadPool.cpp - Fixed-size worker pool ---------------------===//

#include "engine/ThreadPool.h"

#include <algorithm>

using namespace eco;

ThreadPool::ThreadPool(int Jobs) : NumJobs(std::max(Jobs, 1)) {
  Workers.reserve(static_cast<size_t>(NumJobs) - 1);
  // Lane 0 is reserved for the submitting thread.
  for (int W = 1; W < NumJobs; ++W)
    Workers.emplace_back([this, W] { workerLoop(W); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock Lock(M);
    Stopping = true;
  }
  WorkReady.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::drainQueue(int Lane) {
  MutexLock Lock(M);
  while (Batch && NextTask < Batch->size()) {
    size_t Task = NextTask++;
    const auto &Fn = (*Batch)[Task];
    Lock.unlock();
    Fn(Lane);
    Lock.lock();
    if (--Pending == 0) {
      Batch = nullptr;
      BatchDone.notify_all();
    }
  }
}

void ThreadPool::workerLoop(int Lane) {
  while (true) {
    {
      MutexLock Lock(M);
      while (!Stopping && !(Batch && NextTask < Batch->size()))
        WorkReady.wait(Lock);
      if (Stopping)
        return;
    }
    drainQueue(Lane);
  }
}

void ThreadPool::runBatch(
    const std::vector<std::function<void(int)>> &Tasks) {
  if (Tasks.empty())
    return;
  if (NumJobs == 1) {
    for (const auto &Fn : Tasks)
      Fn(0);
    return;
  }
  {
    MutexLock Lock(M);
    Batch = &Tasks;
    NextTask = 0;
    Pending = Tasks.size();
  }
  WorkReady.notify_all();
  drainQueue(/*Lane=*/0);
  MutexLock Lock(M);
  while (Pending != 0)
    BatchDone.wait(Lock);
}
