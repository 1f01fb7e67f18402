#include "src/obs/metrics.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ras {
namespace obs {

// --- Histogram ---------------------------------------------------------------

namespace {
[[noreturn]] void DieKindMismatch(const std::string& name, const char* requested) {
  // The write to stderr is the last thing this process does before abort();
  // "blocking on a hot path" is moot when the path ends here.
  std::fprintf(stderr,  // NOLINT(ras-blocking-in-hot-path)
               "MetricRegistry: metric '%s' already registered with a different kind/shape "
               "(requested %s); call sites must agree\n",
               name.c_str(), requested);
  std::abort();
}
}  // namespace

Histogram::Histogram(std::string name, std::string help, double lo, double hi, size_t buckets,
                     const std::atomic<bool>* enabled)
    : name_(std::move(name)),
      help_(std::move(help)),
      lo_(lo),
      hi_(hi),
      buckets_(buckets),
      enabled_(enabled),
      counts_(buckets) {
  assert(hi > lo && buckets > 0);
  width_ = (hi - lo) / static_cast<double>(buckets);
}

// RASLINT-HOT: record path — called from solver inner loops.
void Histogram::Observe(double x) {
  if (!enabled_->load(std::memory_order_relaxed)) {
    return;
  }
  double offset = (x - lo_) / width_;
  int64_t index = static_cast<int64_t>(std::floor(offset));
  if (index < 0) {
    index = 0;
  }
  if (index >= static_cast<int64_t>(buckets_)) {
    index = static_cast<int64_t>(buckets_) - 1;
  }
  counts_[static_cast<size_t>(index)].fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(x, std::memory_order_relaxed);
}

ras::Histogram Histogram::Snapshot() const {
  ras::Histogram snapshot(lo_, hi_, buckets_);
  for (size_t b = 0; b < buckets_; ++b) {
    uint64_t n = counts_[b].load(std::memory_order_relaxed);
    if (n > 0) {
      snapshot.AddCount(b, n);
    }
  }
  return snapshot;
}

double Histogram::Sum() const { return sum_.load(std::memory_order_relaxed); }

uint64_t Histogram::Count() const {
  uint64_t n = 0;
  for (const auto& c : counts_) {
    n += c.load(std::memory_order_relaxed);
  }
  return n;
}

void Histogram::Reset() {
  for (auto& c : counts_) {
    c.store(0, std::memory_order_relaxed);
  }
  sum_.store(0.0, std::memory_order_relaxed);
}

// --- MetricRegistry ----------------------------------------------------------

MetricRegistry& MetricRegistry::Default() {
  static MetricRegistry* registry = new MetricRegistry();  // Leaked: see header.
  return *registry;
}

Counter& MetricRegistry::counter(const std::string& name, const std::string& help) {
  MutexLock lock(&mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = Kind::kCounter;
    entry.counter.reset(new Counter(name, help, &enabled_));
    it = metrics_.emplace(name, std::move(entry)).first;
  } else if (it->second.kind != Kind::kCounter) {
    // [[noreturn]] abort path — blocking on stderr while holding mu_ is fine
    // when the next instruction is std::abort().
    DieKindMismatch(name, "counter");  // NOLINT(ras-blocking-in-hot-path)
  }
  return *it->second.counter;
}

Gauge& MetricRegistry::gauge(const std::string& name, const std::string& help) {
  MutexLock lock(&mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = Kind::kGauge;
    entry.gauge.reset(new Gauge(name, help, &enabled_));
    it = metrics_.emplace(name, std::move(entry)).first;
  } else if (it->second.kind != Kind::kGauge) {
    // [[noreturn]] abort path, as above.
    DieKindMismatch(name, "gauge");  // NOLINT(ras-blocking-in-hot-path)
  }
  return *it->second.gauge;
}

Histogram& MetricRegistry::histogram(const std::string& name, const std::string& help, double lo,
                                     double hi, size_t buckets) {
  MutexLock lock(&mu_);
  auto it = metrics_.find(name);
  if (it == metrics_.end()) {
    Entry entry;
    entry.kind = Kind::kHistogram;
    entry.histogram.reset(new Histogram(name, help, lo, hi, buckets, &enabled_));
    it = metrics_.emplace(name, std::move(entry)).first;
  } else if (it->second.kind != Kind::kHistogram || it->second.histogram->lo() != lo ||
             it->second.histogram->hi() != hi || it->second.histogram->bucket_count() != buckets) {
    // [[noreturn]] abort path, as above.
    DieKindMismatch(name, "histogram");  // NOLINT(ras-blocking-in-hot-path)
  }
  return *it->second.histogram;
}

void MetricRegistry::ResetValues() {
  MutexLock lock(&mu_);
  for (auto& [name, entry] : metrics_) {
    switch (entry.kind) {
      case Kind::kCounter:
        entry.counter->Reset();
        break;
      case Kind::kGauge:
        entry.gauge->Reset();
        break;
      case Kind::kHistogram:
        entry.histogram->Reset();
        break;
    }
  }
}

std::vector<const Counter*> MetricRegistry::Counters() const {
  MutexLock lock(&mu_);
  std::vector<const Counter*> out;
  for (const auto& [name, entry] : metrics_) {
    if (entry.kind == Kind::kCounter) {
      out.push_back(entry.counter.get());
    }
  }
  return out;
}

std::vector<const Gauge*> MetricRegistry::Gauges() const {
  MutexLock lock(&mu_);
  std::vector<const Gauge*> out;
  for (const auto& [name, entry] : metrics_) {
    if (entry.kind == Kind::kGauge) {
      out.push_back(entry.gauge.get());
    }
  }
  return out;
}

std::vector<const Histogram*> MetricRegistry::Histograms() const {
  MutexLock lock(&mu_);
  std::vector<const Histogram*> out;
  for (const auto& [name, entry] : metrics_) {
    if (entry.kind == Kind::kHistogram) {
      out.push_back(entry.histogram.get());
    }
  }
  return out;
}

}  // namespace obs
}  // namespace ras
