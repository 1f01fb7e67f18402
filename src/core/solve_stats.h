// Per-round solve telemetry: the Figure-8 step timings, model sizes, search
// outcome and cross-round reuse of each phase, and the round's totals. The
// Async Solver fills it, the resolve cache's round memo replays it, and the
// supervisor, benches and round reports read it.

#ifndef RAS_SRC_CORE_SOLVE_STATS_H_
#define RAS_SRC_CORE_SOLVE_STATS_H_

#include <cstddef>
#include <cstdint>

#include "src/solver/mip.h"

namespace ras {

struct StepTimings {
  double ras_build_s = 0.0;
  double solver_build_s = 0.0;
  double initial_state_s = 0.0;
  double mip_s = 0.0;

  double total() const { return ras_build_s + solver_build_s + initial_state_s + mip_s; }
  double setup() const { return ras_build_s + solver_build_s + initial_state_s; }
};

// Why a round took no cheaper reuse path than the one it took (resolve
// cache): the round memo replays, else SetRoundBounds patches, else phase 1
// builds cold.
enum class ReuseMiss {
  kNone,             // The round memo replayed the round.
  kSnapshotChanged,  // Patched: the memo missed, the cached model was re-bounded.
  kLayoutRefused,    // Cold: SetRoundBounds refused the cached model's layout.
  kNoCachedModel,    // Cold: no full round cached, reuse off, or a degraded rung.
};

inline const char* ReuseMissName(ReuseMiss miss) {
  switch (miss) {
    case ReuseMiss::kNone:
      return "";
    case ReuseMiss::kSnapshotChanged:
      return "snapshot changed";
    case ReuseMiss::kLayoutRefused:
      return "layout refused";
    case ReuseMiss::kNoCachedModel:
      return "no cached model";
  }
  return "";
}

struct PhaseStats {
  StepTimings timings;
  size_t assignment_variables = 0;
  size_t model_rows = 0;
  size_t model_variables = 0;
  size_t memory_bytes = 0;
  MipStatus mip_status = MipStatus::kError;
  double objective = 0.0;
  double best_bound = 0.0;
  double warm_start_objective = 0.0;
  int64_t nodes = 0;
  bool ran = false;

  // Cross-round reuse telemetry (resolve cache, SolverConfig::
  // incremental_resolve). model_patched: phase 1 built no model, because
  // SetRoundBounds re-bounded the cached one or the round memo replayed the
  // round (phase 2 always builds). solve_skipped: the round memo replayed
  // this phase. delta_servers is phase 1's server-state delta against the
  // cached round, or -1 when there was no cached round (and always in
  // phase 2).
  bool model_patched = false;
  bool solve_skipped = false;
  int delta_servers = -1;
  ReuseMiss reuse_miss = ReuseMiss::kNoCachedModel;
  // Dual simplex telemetry, summed over every LP the phase ran: node LPs
  // served by the dual kernel and the dual pivots they took.
  int64_t dual_resolves = 0;
  int64_t dual_iterations = 0;
};

struct SolveStats {
  PhaseStats phase1;
  PhaseStats phase2;
  size_t moves_total = 0;
  size_t moves_in_use = 0;
  size_t moves_idle = 0;
  // Capacity shortfall (softened-constraint residue) after the solve, RRUs.
  double total_shortfall_rru = 0.0;
  double total_seconds = 0.0;

  // Shard decomposition accounting (src/shard). shard_count == 1 is the
  // monolithic solve; then the fields below stay zero.
  int shard_count = 1;
  // Always 0: a shard solve cannot fail. Kept because roundbench reads it.
  size_t failed_shards = 0;
  size_t repair_moves = 0;
  double repair_shortfall_before_rru = 0.0;

  // Round-level reuse summary, phase 1's flags (when sharded, holding in
  // every shard): model_patched when phase 1 built no model, solve_skipped
  // when the round memo replayed the round; delta_servers is phase 1's
  // region-wide delta (summed across shards), -1 on a cold round.
  // reuse_miss is phase 1's (when sharded, the last in ReuseMiss order
  // across shards, which explains the round's reuse).
  bool model_patched = false;
  bool solve_skipped = false;
  int delta_servers = -1;
  ReuseMiss reuse_miss = ReuseMiss::kNoCachedModel;
  // Solver-layer re-optimization totals summed across phases (and shards).
  int64_t dual_resolves = 0;
  int64_t dual_iterations = 0;
  // Always 0: the LP has no presolve. Kept because roundbench reads it.
  int64_t presolve_rows_removed = 0;
};

}  // namespace ras

#endif  // RAS_SRC_CORE_SOLVE_STATS_H_
