// Per-round operator report.
//
// One struct per supervised solve round, carrying only primitive fields so
// src/obs stays below the solver layers: the core side fills it from
// RoundOutcome + SolveStats (MakeRoundReport in src/core/solver_supervisor.h)
// and the examples render it with FormatRoundReport instead of each
// hand-rolling its own printf. The single-line format is stable — harness
// transcripts diff cleanly across runs and releases.

#ifndef RAS_SRC_OBS_ROUND_REPORT_H_
#define RAS_SRC_OBS_ROUND_REPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace ras {
namespace obs {

struct RoundReport {
  int round = 0;
  int64_t sim_seconds = 0;
  // LadderRungName of the rung that served, e.g. "FULL_TWO_PHASE".
  std::string rung;
  int retries = 0;
  // The failure that forced degradation; empty when the top rung served.
  std::string error;
  // False for rungs that kept the previous assignment (LAST_GOOD, EMERGENCY);
  // the solve-shape fields below are only meaningful when true.
  bool produced_assignment = false;

  size_t assignment_variables = 0;
  size_t moves_total = 0;
  size_t moves_in_use = 0;
  double shortfall_rru = 0.0;
  double wall_seconds = 0.0;

  // Cross-round reuse: "cold", "patched", or "skipped", and why the round
  // took no cheaper path: "no cached model" or "layout refused" (cold),
  // "snapshot changed" (patched), empty (skipped).
  std::string reuse = "cold";
  std::string reuse_reason;
  int delta_servers = -1;

  int shard_count = 1;
  size_t repair_moves = 0;

  bool emergency_armed = false;
};

// One line, no trailing newline:
//   [round 3] rung=FULL_TWO_PHASE vars=512 moves=37 (in-use 12) shortfall=0.0
//   reuse=patched (snapshot changed) delta=14 wall=0.021s
// Degraded rounds append retries=N error=<...>; sharded rounds append
// shards=K (repair R); an armed emergency appends EMERGENCY.
std::string FormatRoundReport(const RoundReport& report);

}  // namespace obs
}  // namespace ras

#endif  // RAS_SRC_OBS_ROUND_REPORT_H_
