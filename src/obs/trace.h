// Span-based tracing of the solve pipeline.
//
// The continuous loop nests cleanly — round -> supervisor attempt -> phase ->
// shard -> simplex/branch-and-bound — and each level is worth timing on its
// own, so the tracer records *spans*: named intervals with a parent, the
// util::MonotonicSeconds wall-clock interval, and (when a sim clock is
// wired) the simulated time at which the span opened. Completed spans land in
// a fixed-capacity ring buffer: steady-state operation keeps the most recent
// window, and the oldest spans are overwritten (counted, never silently).
//
// Nesting is implicit within a thread: SpanScope pushes itself as the
// thread's current span, so spans opened inside it become children. Fan-out
// onto ThreadPool workers crosses threads, so the shard fan-out passes the
// parent span id explicitly (the SpanScope overload with `parent`).
//
// Determinism: wall times are nondeterministic, but span *structure* (names,
// nesting, counts) is a pure function of the deterministic pipeline. The
// aggregated DumpTree(kStructure) rendering therefore sorts children by name
// and omits timing fields — a goldenable, run-stable view that tests diff
// exactly. DumpTree(kTimings) adds wall-time totals for humans.
//
// Parity-safe like the metric registry: spans record, never steer.

#ifndef RAS_SRC_OBS_TRACE_H_
#define RAS_SRC_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace ras {
namespace obs {

// The calling thread's innermost open span id (0 = none): the explicit
// parent to capture before handing work to another thread.
uint64_t CurrentSpanId();

// One completed span. Ids are assigned in StartSpan order, 1-based; parent 0
// means "root" (no enclosing span).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  std::string name;
  double wall_start_s = 0.0;  // util::MonotonicSeconds at open/close.
  double wall_end_s = 0.0;
  int64_t sim_seconds = -1;  // Simulated time at open; -1 = no sim clock wired.
  int64_t value = 0;         // Optional numeric annotation (delta size, nodes, ...).

  double wall_seconds() const { return wall_end_s - wall_start_s; }
};

class Tracer {
 public:
  // `capacity` bounds the completed-span ring; the default holds several
  // hundred rounds of the instrumented pipeline.
  explicit Tracer(size_t capacity = 4096);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The process-wide tracer the built-in instrumentation records into.
  // Never destroyed.
  static Tracer& Default();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Optional simulated-time source (e.g. the scenario's EventLoop). Read at
  // span open. Not thread-safe to swap while spans are being recorded.
  using SimClock = std::function<int64_t()>;
  void set_sim_clock(SimClock clock) { sim_clock_ = std::move(clock); }

  // Raw span API (SpanScope is the normal entry point). StartSpan returns 0
  // when the tracer is disabled; EndSpan(0) is a no-op, so naked pairs stay
  // balanced without checking.
  uint64_t StartSpan(const std::string& name, uint64_t parent = 0);
  void EndSpan(uint64_t id, int64_t value = 0);

  // Completed spans, oldest first. (Open spans are not included.)
  std::vector<Span> Completed() const;
  // Completed spans overwritten by ring wrap-around since the last Clear.
  uint64_t dropped() const;
  // Drops all completed spans and resets the drop counter; open spans (and
  // the id counter) survive, so a Clear mid-round stays balanced.
  void Clear();

  enum class Dump {
    kStructure,  // Deterministic: name, count, nesting. Golden-testable.
    kTimings,    // Adds total wall seconds and mean per span name.
  };
  // Aggregated span tree over the completed ring: children grouped by name
  // under their parent's path, sorted by name, one "name xN" line per group.
  std::string DumpTree(Dump mode = Dump::kStructure) const;

 private:
  struct OpenSpan {
    uint64_t parent = 0;
    std::string name;
    double wall_start_s = 0.0;
    int64_t sim_seconds = -1;
  };

  std::atomic<bool> enabled_{true};
  SimClock sim_clock_;
  mutable Mutex mu_;
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
  // Open spans keyed by id (kept sorted; lookups are by exact id).
  std::vector<std::pair<uint64_t, OpenSpan>> open_ GUARDED_BY(mu_);
  std::vector<Span> ring_ GUARDED_BY(mu_);
  size_t ring_next_ GUARDED_BY(mu_) = 0;
  size_t ring_size_ GUARDED_BY(mu_) = 0;
  uint64_t dropped_ GUARDED_BY(mu_) = 0;
  size_t capacity_;
};

// RAII span. The single-argument form parents under the calling thread's
// current span; the explicit-parent form is for crossing threads (shard
// fan-out), and also installs itself as the worker thread's current span so
// deeper spans nest under it.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const std::string& name);
  SpanScope(Tracer& tracer, const std::string& name, uint64_t parent);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  // Attaches a numeric annotation, recorded at close.
  void set_value(int64_t value) { value_ = value; }
  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint64_t id_;
  uint64_t prev_current_;
  int64_t value_ = 0;
};

}  // namespace obs
}  // namespace ras

#endif  // RAS_SRC_OBS_TRACE_H_
