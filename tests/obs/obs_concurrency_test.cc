// Hammers one MetricRegistry and one Tracer from ThreadPool workers. Run
// under TSan (the CI tsan job includes this test) to prove the counter and
// histogram atomics and the span ring are race-free; the assertions prove no
// increments are lost.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/thread_pool.h"

namespace ras {
namespace obs {
namespace {

constexpr int kThreads = 8;
constexpr int kOpsPerThread = 10000;

TEST(ObsConcurrencyTest, CountersLoseNothingUnderContention) {
  MetricRegistry reg;
  Counter& hot = reg.counter("ras_test_hot_total", "One counter, all threads.");
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&reg, &hot] {
      // Half the traffic through a shared handle, half through the registry
      // lookup path, so both the value atomic and the name map see load.
      for (int i = 0; i < kOpsPerThread; ++i) {
        hot.Add();
        reg.counter("ras_test_hot_total", "").Add();
      }
    });
  }
  pool.Wait();
  EXPECT_EQ(hot.Value(), static_cast<uint64_t>(kThreads) * kOpsPerThread * 2);
}

TEST(ObsConcurrencyTest, HistogramCountAndSumAreExact) {
  MetricRegistry reg;
  Histogram& h = reg.histogram("ras_test_latency_seconds", "Latency.", 0.0, 1.0, 10);
  ThreadPool pool(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&h, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Deterministic per-thread values: thread t observes t * 0.1 + 0.05,
        // landing every observation of thread t in bucket t.
        h.Observe(0.1 * t + 0.05);
      }
    });
  }
  pool.Wait();
  ras::Histogram snap = h.Snapshot();
  EXPECT_EQ(snap.total(), static_cast<uint64_t>(kThreads) * kOpsPerThread);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(snap.bucket(t), static_cast<uint64_t>(kOpsPerThread)) << "bucket " << t;
  }
  double expected_sum = 0.0;
  for (int t = 0; t < kThreads; ++t) {
    expected_sum += kOpsPerThread * (0.1 * t + 0.05);
  }
  EXPECT_NEAR(h.Sum(), expected_sum, 1e-6 * expected_sum);
}

TEST(ObsConcurrencyTest, RegistrationRacesYieldOneInstance) {
  MetricRegistry reg;
  ThreadPool pool(kThreads);
  std::atomic<Counter*> seen[kThreads] = {};
  for (int t = 0; t < kThreads; ++t) {
    pool.Submit([&reg, &seen, t] {
      // All threads race to register the same 64 names.
      for (int i = 0; i < 64; ++i) {
        Counter& c = reg.counter("ras_test_race_" + std::to_string(i) + "_total", "");
        c.Add();
        if (i == 0) {
          seen[t].store(&c);
        }
      }
    });
  }
  pool.Wait();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[t].load(), seen[0].load());
  }
  EXPECT_EQ(reg.counter("ras_test_race_0_total", "").Value(),
            static_cast<uint64_t>(kThreads));
  EXPECT_EQ(reg.Counters().size(), 64u);
}

TEST(ObsConcurrencyTest, TracerSpansFromManyThreads) {
  // kThreads * 32 workers, each with one inner child, plus the root.
  Tracer tracer(/*capacity=*/kThreads * 64 + 1);
  uint64_t root_id = 0;
  {
    SpanScope root(tracer, "root");
    root_id = root.id();
    ThreadPool pool(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      pool.Submit([&tracer, root_id] {
        for (int i = 0; i < 32; ++i) {
          SpanScope worker(tracer, "worker", root_id);
          SpanScope inner(tracer, "inner");
        }
      });
    }
    pool.Wait();
  }
  std::vector<Span> spans = tracer.Completed();
  EXPECT_EQ(spans.size(), static_cast<size_t>(kThreads) * 32 * 2 + 1);
  EXPECT_EQ(tracer.dropped(), 0u);
  size_t workers = 0;
  for (const Span& s : spans) {
    if (s.name == "worker") {
      ++workers;
      EXPECT_EQ(s.parent, root_id);
    }
  }
  EXPECT_EQ(workers, static_cast<size_t>(kThreads) * 32);
  EXPECT_EQ(tracer.DumpTree(Tracer::Dump::kStructure),
            "root x1\n"
            "  worker x256\n"
            "    inner x256\n");
}

}  // namespace
}  // namespace obs
}  // namespace ras
