// Test helper: holds every worker of a ThreadPool, so that claimable tasks
// submitted meanwhile stay unclaimed by the pool and run on their joiners.

#ifndef RAS_TESTS_UTIL_POOL_BLOCKER_H_
#define RAS_TESTS_UTIL_POOL_BLOCKER_H_

#include <condition_variable>
#include <mutex>

#include "src/util/thread_pool.h"

namespace ras {

// Returns once every worker is held; releases them when destroyed.
class PoolBlocker {
 public:
  explicit PoolBlocker(ThreadPool& pool) : pool_(pool) {
    for (int i = 0; i < pool.size(); ++i) {
      pool.Submit([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++blocked_;
        cv_.notify_all();
        cv_.wait(lock, [this] { return released_; });
      });
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this, &pool] { return blocked_ == pool.size(); });
  }
  // Releases the workers and waits until the pool is idle again.
  ~PoolBlocker() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
      cv_.notify_all();
    }
    pool_.Wait();
  }

 private:
  ThreadPool& pool_;
  std::mutex mu_;
  std::condition_variable cv_;
  int blocked_ = 0;
  bool released_ = false;
};

}  // namespace ras

#endif  // RAS_TESTS_UTIL_POOL_BLOCKER_H_
