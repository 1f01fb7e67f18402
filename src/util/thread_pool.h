// Small joinable thread pool.
//
// Fixed worker count, FIFO task queue, and a Wait() barrier that blocks until
// every submitted task has finished. Beside plain tasks it runs claimable
// ones (SubmitClaimable): each runs exactly once, on the first worker that
// reaches it or, when none has by the time it is joined, inline on the
// joining thread. The Async Solver (src/core/async_solver.cc) keeps one pool
// for its life and runs both its parallel steps on it as claimable tasks: the
// shard fan-out and each phase's initial state beside its search. raslint's
// file scan uses plain tasks.
//
// Each worker is pinned to a CPU of its own, where the platform allows it
// (see the constructor): some hosts never move a thread between CPUs, and
// there a woken worker runs on the CPU of the thread that woke it, taking
// turns with it instead of running beside it. Placement is scheduling only;
// no task can observe it, so it never feeds into an answer.
//
// This is the sanctioned home for raw std::thread in the repository
// (raslint's ras-naked-thread rule); all other concurrency rides on it.

#ifndef RAS_SRC_UTIL_THREAD_POOL_H_
#define RAS_SRC_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace ras {

// The CPUs this process may run on: its affinity mask (sched_getaffinity)
// where the platform has one, else std::thread::hardware_concurrency(); at
// least 1.
int UsableCpus();

class ThreadPool {
  class ClaimableTask;  // Defined in thread_pool.cc.

 public:
  // Spawns `num_threads` workers (clamped to >= 1). When the process may
  // run on more than one CPU and the platform can pin threads, worker i is
  // pinned to the i-th usable CPU counting from the one after the
  // constructing thread's: up to UsableCpus() - 1 workers each get a CPU of
  // their own and leave the constructing thread's free; more wrap around.
  // Otherwise the workers stay unpinned.
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

  // A claimable task's one claim: the worker that dequeues it or the thread
  // that joins it, whichever comes first, runs it; the other does nothing
  // (the worker) or waits for it to finish (the joiner). A join therefore
  // never waits on a task still in the queue, so a task may submit and join
  // its own claimable tasks even on a one-worker pool, and a joiner whose
  // task no worker was free for runs it itself instead of idling.
  class JoinHandle {
   public:
    JoinHandle(JoinHandle&&) = default;
    JoinHandle& operator=(JoinHandle&&) = delete;
    // Joins, so the task never outlives what it captured by reference.
    ~JoinHandle() { Join(); }

    // Runs the task here if no worker has claimed it, else blocks until the
    // worker that did has finished it. Later calls return at once.
    void Join();

   private:
    friend class ThreadPool;
    explicit JoinHandle(std::shared_ptr<ClaimableTask> task) : task_(std::move(task)) {}
    std::shared_ptr<ClaimableTask> task_;
  };
  [[nodiscard]] JoinHandle SubmitClaimable(std::function<void()> task);

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
