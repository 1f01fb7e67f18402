// Typed metric registry for the continuous solve loop.
//
// Three metric kinds, Prometheus-shaped:
//
//   Counter    monotonically increasing int64 (events, iterations, nodes);
//   Gauge      last-written double (generation numbers, queue depths);
//   Histogram  fixed-bucket latency/size distribution, snapshotted into the
//              mergeable ras::Histogram from src/util/stats for p50/p95/p99.
//
// Design constraints, in order:
//
//   1. *Parity-safe.* Metrics only record; nothing in this file feeds back
//      into solver decisions, so solver targets are bitwise identical with
//      the registry enabled or disabled (tests/obs/obs_parity_test.cc).
//   2. *Lock-free on the hot path.* Counter::Add is one relaxed atomic add
//      on the counter's one value; Histogram::Observe is one on its bucket
//      and one on its sum. Each solve is single-threaded, so the only
//      concurrent recorders are the shard fan-out's few workers, which record
//      once per LP solve or phase, not per pivot; per-thread stripes would
//      buy nothing.
//      The registry's util::Mutex guards only registration and snapshotting.
//   3. *Handles are forever.* counter()/gauge()/histogram() return stable
//      references; ResetValues() zeroes values but never unregisters, so
//      function-local static handles at instrumentation sites stay valid
//      across test resets.
//
// Naming convention (enforced by raslint's ras-metric-name rule):
// `ras_<subsystem>_<name>`, counters suffixed `_total`, time-valued
// histograms suffixed `_seconds`. An optional Prometheus label set may
// follow the name: `ras_supervisor_rung_total{rung="FULL_TWO_PHASE"}`.

#ifndef RAS_SRC_OBS_METRICS_H_
#define RAS_SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/stats.h"
#include "src/util/thread_annotations.h"

namespace ras {
namespace obs {

class MetricRegistry;

// Monotonic event counter.
class Counter {
 public:
  // RASLINT-HOT: record path — called from solver inner loops.
  void Add(int64_t n = 1) {
    if (!enabled_->load(std::memory_order_relaxed)) {
      return;
    }
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricRegistry;
  Counter(std::string name, std::string help, const std::atomic<bool>* enabled)
      : name_(std::move(name)), help_(std::move(help)), enabled_(enabled) {}
  void Reset() { value_.store(0, std::memory_order_relaxed); }

  std::string name_;
  std::string help_;
  const std::atomic<bool>* enabled_;
  std::atomic<int64_t> value_{0};
};

// Last-written value. Set() races are benign (last writer wins); gauges are
// written from one site at a time in practice.
class Gauge {
 public:
  // RASLINT-HOT: record path — called from solver inner loops.
  void Set(double v) {
    if (!enabled_->load(std::memory_order_relaxed)) {
      return;
    }
    value_.store(v, std::memory_order_relaxed);
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }

 private:
  friend class MetricRegistry;
  Gauge(std::string name, std::string help, const std::atomic<bool>* enabled)
      : name_(std::move(name)), help_(std::move(help)), enabled_(enabled) {}
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  std::string name_;
  std::string help_;
  const std::atomic<bool>* enabled_;
  std::atomic<double> value_{0.0};
};

// Fixed-bucket histogram over [lo, hi); out-of-range observations clamp into
// the edge buckets, matching ras::Histogram.
class Histogram {
 public:
  void Observe(double x);

  // Snapshot as the util::stats histogram (which then answers
  // Percentile/Merge/ToString).
  ras::Histogram Snapshot() const;
  // Sum and count of the observations (sum is not derivable from buckets
  // since observations are clamped, so it is tracked exactly).
  double Sum() const;
  uint64_t Count() const;

  const std::string& name() const { return name_; }
  const std::string& help() const { return help_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }
  size_t bucket_count() const { return buckets_; }

 private:
  friend class MetricRegistry;
  Histogram(std::string name, std::string help, double lo, double hi, size_t buckets,
            const std::atomic<bool>* enabled);
  void Reset();

  std::string name_;
  std::string help_;
  double lo_;
  double hi_;
  double width_;
  size_t buckets_;
  const std::atomic<bool>* enabled_;
  std::vector<std::atomic<uint64_t>> counts_;  // One per bucket.
  std::atomic<double> sum_{0.0};
};

// Owner of every metric. Thread-safe; see the file comment for the contract.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // The process-wide registry all built-in instrumentation records into.
  // Never destroyed (function-local statics at instrumentation sites hold
  // references across the whole process lifetime).
  static MetricRegistry& Default();

  // Find-or-create. The returned reference is valid for the registry's
  // lifetime. Requesting an existing name with a different metric kind or
  // histogram shape aborts: two call sites disagreeing about a metric's type
  // is a programming error, not a runtime condition.
  Counter& counter(const std::string& name, const std::string& help);
  Gauge& gauge(const std::string& name, const std::string& help);
  Histogram& histogram(const std::string& name, const std::string& help, double lo, double hi,
                       size_t buckets);

  // Recording on/off. Disabled metrics early-out on one relaxed bool load;
  // values freeze at whatever they held. Enabled by default.
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Zeroes every value; registrations (and outstanding references) survive.
  void ResetValues();

  // Deterministically ordered (by name) views for the exporters. The
  // pointers are stable; values read through them are live.
  std::vector<const Counter*> Counters() const;
  std::vector<const Gauge*> Gauges() const;
  std::vector<const Histogram*> Histograms() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  std::atomic<bool> enabled_{true};
  mutable Mutex mu_;
  std::map<std::string, Entry> metrics_ GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace ras

#endif  // RAS_SRC_OBS_METRICS_H_
