#include "src/obs/round_report.h"

#include <cstdio>

namespace ras {
namespace obs {

std::string FormatRoundReport(const RoundReport& report) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "[round %d] rung=%s", report.round, report.rung.c_str());
  std::string out = buf;

  if (report.produced_assignment) {
    std::snprintf(buf, sizeof(buf), " vars=%zu moves=%zu (in-use %zu) shortfall=%.1f reuse=%s",
                  report.assignment_variables, report.moves_total, report.moves_in_use,
                  report.shortfall_rru, report.reuse.c_str());
    out += buf;
    if (!report.reuse_reason.empty()) {
      out += " (";
      out += report.reuse_reason;
      out += ")";
    }
    std::snprintf(buf, sizeof(buf), " delta=%d wall=%.3fs", report.delta_servers,
                  report.wall_seconds);
    out += buf;
    if (report.shard_count > 1) {
      std::snprintf(buf, sizeof(buf), " shards=%d (repair %zu)", report.shard_count,
                    report.repair_moves);
      out += buf;
    }
  } else {
    out += " kept previous assignment";
  }
  if (report.retries > 0) {
    std::snprintf(buf, sizeof(buf), " retries=%d", report.retries);
    out += buf;
  }
  if (!report.error.empty()) {
    out += " error=";
    out += report.error;
  }
  if (report.emergency_armed) {
    out += " EMERGENCY";
  }
  return out;
}

}  // namespace obs
}  // namespace ras
