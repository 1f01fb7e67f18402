// Small joinable thread pool.
//
// Fixed worker count, FIFO task queue, and a Wait() barrier that blocks until
// every submitted task has finished. Used by the shard fan-out
// (AsyncSolver::SolveSharded, src/core/async_solver.cc), which submits one
// shard solve per task and merges their results after the barrier, and by
// raslint's file scan.
//
// This is the sanctioned home for raw std::thread in the repository
// (raslint's ras-naked-thread rule); all other concurrency rides on it.

#ifndef RAS_SRC_UTIL_THREAD_POOL_H_
#define RAS_SRC_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace ras {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(int num_threads);
  // Drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks must not call Submit/Wait on their own pool's
  // destructor path; submitting from within a task is allowed.
  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and no task is running.
  void Wait();

  int size() const { return static_cast<int>(workers_.size()); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar task_cv_;  // Signals workers: task available / shutdown.
  CondVar idle_cv_;  // Signals Wait(): queue drained and idle.
  std::deque<std::function<void()>> tasks_ GUARDED_BY(mu_);
  int running_ GUARDED_BY(mu_) = 0;
  bool shutdown_ GUARDED_BY(mu_) = false;
};

}  // namespace ras

#endif  // RAS_SRC_UTIL_THREAD_POOL_H_
