#include "roundbench/span_stats.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace ras {
namespace roundbench {

std::map<std::string, SpanTotals> AggregateSpans(const std::vector<obs::Span>& spans) {
  std::unordered_map<uint64_t, std::vector<const obs::Span*>> children;
  for (const obs::Span& span : spans) {
    children[span.parent].push_back(&span);
  }
  std::map<std::string, SpanTotals> totals;
  std::vector<std::pair<double, double>> intervals;
  for (const obs::Span& span : spans) {
    intervals.clear();
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const obs::Span* child : it->second) {
        double lo = std::max(child->wall_start_s, span.wall_start_s);
        double hi = std::min(child->wall_end_s, span.wall_end_s);
        if (hi > lo) {
          intervals.emplace_back(lo, hi);
        }
      }
    }
    std::sort(intervals.begin(), intervals.end());
    double covered = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        covered += std::max(0.0, run_hi - run_lo);
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    covered += std::max(0.0, run_hi - run_lo);
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.wall_s += span.wall_seconds();
    t.self_s += std::max(0.0, span.wall_seconds() - covered);
  }
  return totals;
}

double StragglerRatio(const std::vector<obs::Span>& spans, const std::string& name) {
  double sum = 0.0;
  double slowest = 0.0;
  int64_t count = 0;
  for (const obs::Span& span : spans) {
    if (span.name == name) {
      sum += span.wall_seconds();
      slowest = std::max(slowest, span.wall_seconds());
      ++count;
    }
  }
  return count > 0 && sum > 0.0 ? slowest / (sum / static_cast<double>(count)) : 0.0;
}

}  // namespace roundbench
}  // namespace ras
