// Capability-annotated synchronization primitives.
//
// Thin wrappers over std::mutex / std::condition_variable that carry the
// Clang thread-safety attributes from src/util/thread_annotations.h. The
// standard-library types in libstdc++ have no annotations, so Clang's
// `-Wthread-safety` analysis cannot see their acquisitions; everything in
// this repository that guards shared state uses these wrappers instead
// (ThreadPool's queue, the shard fan-out's merge slots in
// AsyncSolver::SolveSharded, the broker's generation counter).

#ifndef RAS_SRC_UTIL_MUTEX_H_
#define RAS_SRC_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "src/util/thread_annotations.h"

namespace ras {

class CondVar;

// Exclusive mutex. Prefer the RAII MutexLock; explicit Lock()/Unlock() pairs
// are for code that drops the lock mid-scope (worker loops), which the
// analysis follows as long as every path rebalances.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII scope holding a Mutex.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* mu_;
};

// Condition variable usable with ras::Mutex. Wait() atomically releases the
// mutex while blocked and reacquires it before returning, so from the
// analysis's point of view the caller holds the mutex throughout.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // Ownership stays with the caller's Lock()/Unlock() pair.
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace ras

#endif  // RAS_SRC_UTIL_MUTEX_H_
