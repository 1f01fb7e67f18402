// Span accounting for the traced run of the region-round benchmark.
//
// The tracer hands back completed spans (name, parent, wall interval). A
// layer's *self time* is its span's duration minus the union of its
// children's intervals, clipped to the parent: shard spans run in parallel
// under one fan-out span, so summing child durations would overcount.

#ifndef RAS_ROUNDBENCH_SPAN_STATS_H_
#define RAS_ROUNDBENCH_SPAN_STATS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace ras {
namespace roundbench {

struct SpanTotals {
  int64_t count = 0;
  double wall_s = 0.0;  // Summed span durations.
  double self_s = 0.0;  // Summed self times.
};

// Aggregates one batch of completed spans (typically one round) by name.
std::map<std::string, SpanTotals> AggregateSpans(const std::vector<obs::Span>& spans);

// Slowest ÷ mean duration of the spans called `name`; 0 when there are none.
double StragglerRatio(const std::vector<obs::Span>& spans, const std::string& name);

}  // namespace roundbench
}  // namespace ras

#endif  // RAS_ROUNDBENCH_SPAN_STATS_H_
