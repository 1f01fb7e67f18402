#include "src/util/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#include <unistd.h>
#endif

#include "tests/util/pool_blocker.h"

namespace ras {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCountToAtLeastOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { ++count; });
    }
    pool.Wait();
    EXPECT_EQ(count.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count] { ++count; });
    }
    // No Wait(): the destructor must still run everything before joining.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, SubmittingFromWithinATaskWorks) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&pool, &count] {
    ++count;
    pool.Submit([&count] { ++count; });
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, TasksRunConcurrentlyUpToPoolSize) {
  // The parallel B&B relies on one long-lived worker loop per thread, so the
  // pool must actually run N submitted tasks at the same time. Rendezvous: all
  // four tasks block until all four have started.
  constexpr int kThreads = 4;
  ThreadPool pool(kThreads);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  for (int i = 0; i < kThreads; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      if (++arrived == kThreads) {
        cv.notify_all();
      } else {
        cv.wait(lock, [&] { return arrived == kThreads; });
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(arrived, kThreads);
}

TEST(ThreadPoolTest, JoinRunsAnUnclaimedTaskInline) {
  ThreadPool pool(2);
  PoolBlocker blocker(pool);
  std::thread::id ran_on;
  ThreadPool::JoinHandle task = pool.SubmitClaimable([&ran_on] {
    ran_on = std::this_thread::get_id();
  });
  task.Join();
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, JoinWaitsForATaskAWorkerClaimed) {
  ThreadPool pool(1);
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  std::thread::id ran_on;
  ThreadPool::JoinHandle task = pool.SubmitClaimable([&] {
    ran_on = std::this_thread::get_id();
    started = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    finished = true;
  });
  while (!started) {
    std::this_thread::yield();
  }
  task.Join();
  EXPECT_TRUE(finished.load());
  EXPECT_NE(ran_on, std::this_thread::get_id());
}

TEST(ThreadPoolTest, WorkerSkipsATaskItsJoinerAlreadyRan) {
  ThreadPool pool(1);
  std::atomic<int> runs{0};
  {
    PoolBlocker blocker(pool);
    ThreadPool::JoinHandle task = pool.SubmitClaimable([&runs] { ++runs; });
    task.Join();
    EXPECT_EQ(runs.load(), 1);
  }
  // The worker now reaches the queued entry of the task already run.
  pool.Wait();
  EXPECT_EQ(runs.load(), 1);
}

TEST(ThreadPoolTest, NestedJoinOnAOneWorkerPoolDoesNotDeadlock) {
  ThreadPool pool(1);
  std::atomic<bool> outer_started{false};
  std::thread::id outer_on;
  std::thread::id inner_on;
  ThreadPool::JoinHandle outer = pool.SubmitClaimable([&] {
    outer_on = std::this_thread::get_id();
    outer_started = true;
    // The only worker is running this task, so nothing else can claim the
    // inner one: its join must run it here.
    ThreadPool::JoinHandle inner =
        pool.SubmitClaimable([&inner_on] { inner_on = std::this_thread::get_id(); });
    inner.Join();
  });
  while (!outer_started) {
    std::this_thread::yield();
  }
  outer.Join();
  EXPECT_NE(outer_on, std::this_thread::get_id());
  EXPECT_EQ(inner_on, outer_on);
}

// Each worker runs on a CPU of its own from the process's allowed set, and
// the constructing thread's CPU stays free for it. The pool under test is
// built on a helper pool's worker held on the last allowed CPU, so the
// constructing thread cannot move while the placement is checked.
TEST(ThreadPoolTest, WorkersRunOnDistinctCpusOfTheAllowedSet) {
#if !defined(__linux__)
  GTEST_SKIP() << "CPU placement is only implemented on Linux";
#else
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ASSERT_EQ(sched_getaffinity(getpid(), sizeof(allowed), &allowed), 0);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) {
      cpus.push_back(cpu);
    }
  }
  ASSERT_EQ(UsableCpus(), static_cast<int>(cpus.size()));
  if (cpus.size() < 2) {
    GTEST_SKIP() << "one usable CPU: the workers stay unpinned";
  }
  const int home = cpus.back();
  int built_on = -1;
  int workers = 0;
  std::vector<int> seen;
  ThreadPool helper(1);
  helper.Submit([&] {
    cpu_set_t only_home;
    CPU_ZERO(&only_home);
    CPU_SET(home, &only_home);
    if (pthread_setaffinity_np(pthread_self(), sizeof(only_home), &only_home) != 0) {
      return;
    }
    built_on = sched_getcpu();
    ThreadPool pool(UsableCpus() - 1);
    workers = pool.size();
    // Every worker reports its CPU while all of them are held, so none can
    // report for another.
    std::mutex mu;
    std::condition_variable cv;
    for (int i = 0; i < workers; ++i) {
      pool.Submit([&] {
        std::unique_lock<std::mutex> lock(mu);
        seen.push_back(sched_getcpu());
        if (static_cast<int>(seen.size()) == workers) {
          cv.notify_all();
        } else {
          cv.wait(lock, [&] { return static_cast<int>(seen.size()) == workers; });
        }
      });
    }
    pool.Wait();
  });
  helper.Wait();

  ASSERT_EQ(built_on, home);
  ASSERT_EQ(workers, static_cast<int>(cpus.size()) - 1);
  ASSERT_EQ(seen.size(), cpus.size() - 1);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end()) << "two workers share a CPU";
  for (int cpu : seen) {
    EXPECT_TRUE(CPU_ISSET(cpu, &allowed)) << "worker on CPU " << cpu;
    EXPECT_NE(cpu, home) << "a worker took the constructing thread's CPU";
  }
#endif
}

}  // namespace
}  // namespace ras
