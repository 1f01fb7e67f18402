#include "src/util/thread_pool.h"

#include <algorithm>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

namespace ras {
namespace {

#if defined(__linux__)
// The CPUs this process may run on, ascending.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(getpid(), sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

int CurrentCpu() { return sched_getcpu(); }

// Best effort: a failed call leaves the worker unpinned.
void PinToCpu(std::thread& worker, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  pthread_setaffinity_np(worker.native_handle(), sizeof(set), &set);
}
#else
// No affinity calls: the mask is unknown, so nothing is pinned.
std::vector<int> AllowedCpus() { return {}; }
int CurrentCpu() { return -1; }
void PinToCpu(std::thread&, int) {}
#endif

}  // namespace

int UsableCpus() {
  const std::vector<int> cpus = AllowedCpus();
  if (!cpus.empty()) {
    return static_cast<int>(cpus.size());
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

ThreadPool::ThreadPool(int num_threads) {
  const int count = std::max(1, num_threads);
  const std::vector<int> cpus = AllowedCpus();
  // Worker i takes the i-th CPU after the constructing thread's (the first
  // CPU when that one is not in the mask).
  const auto here = std::find(cpus.begin(), cpus.end(), CurrentCpu());
  const size_t first = here == cpus.end() ? 0 : static_cast<size_t>(here - cpus.begin()) + 1;
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
    if (cpus.size() > 1) {
      PinToCpu(workers_.back(), cpus[(first + static_cast<size_t>(i)) % cpus.size()]);
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(&mu_);
    shutdown_ = true;
  }
  task_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(&mu_);
    tasks_.push_back(std::move(task));
  }
  task_cv_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(&mu_);
  while (!tasks_.empty() || running_ != 0) {
    idle_cv_.Wait(mu_);
  }
}

class ThreadPool::ClaimableTask {
 public:
  explicit ClaimableTask(std::function<void()> fn) : fn_(std::move(fn)) {}

  // Runs the task if this caller is the first to claim it; returns false
  // (having run nothing) when another thread already has.
  bool RunIfUnclaimed() {
    std::function<void()> fn;
    {
      MutexLock lock(&mu_);
      if (claimed_) {
        return false;
      }
      claimed_ = true;
      fn = std::move(fn_);
    }
    fn();
    fn = nullptr;  // Drop the captures before a joiner may return.
    MutexLock lock(&mu_);
    done_ = true;
    done_cv_.NotifyAll();
    return true;
  }

  void AwaitDone() {
    MutexLock lock(&mu_);
    while (!done_) {
      done_cv_.Wait(mu_);
    }
  }

 private:
  Mutex mu_;
  CondVar done_cv_;
  std::function<void()> fn_ GUARDED_BY(mu_);
  bool claimed_ GUARDED_BY(mu_) = false;
  bool done_ GUARDED_BY(mu_) = false;
};

ThreadPool::JoinHandle ThreadPool::SubmitClaimable(std::function<void()> task) {
  auto claimable = std::make_shared<ClaimableTask>(std::move(task));
  // The queued entry holds its own reference: a worker may reach it after
  // the joiner ran the task and dropped the handle.
  Submit([claimable] { claimable->RunIfUnclaimed(); });
  return JoinHandle(std::move(claimable));
}

void ThreadPool::JoinHandle::Join() {
  if (task_ == nullptr) {
    return;
  }
  if (!task_->RunIfUnclaimed()) {
    task_->AwaitDone();
  }
  task_ = nullptr;
}

void ThreadPool::WorkerLoop() {
  mu_.Lock();
  for (;;) {
    while (!shutdown_ && tasks_.empty()) {
      task_cv_.Wait(mu_);
    }
    if (tasks_.empty()) {
      mu_.Unlock();
      return;  // Shutdown with nothing left to run.
    }
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    ++running_;
    mu_.Unlock();
    task();
    mu_.Lock();
    --running_;
    if (tasks_.empty() && running_ == 0) {
      idle_cv_.NotifyAll();
    }
  }
}

}  // namespace ras
