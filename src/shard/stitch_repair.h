// Cross-shard stitch repair: after per-shard solves are merged back into one
// region-wide target set, some reservations can be left short — the split
// rounds demand at 1-RRU granularity, and a shard can be locally infeasible
// (its share softened away) even though the region as a whole has capacity.
// This pass runs a bounded, deterministic local search over the *merged*
// assignment: first pull free servers into short reservations (preferring
// the MSB where the reservation holds the least RRU, which also shrinks its
// correlated-failure buffer), then, if still short, take idle servers from
// donors whose surplus covers the loss. In-use servers are never preempted.

#ifndef RAS_SRC_SHARD_STITCH_REPAIR_H_
#define RAS_SRC_SHARD_STITCH_REPAIR_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "src/core/solve_input.h"

namespace ras {

struct StitchRepairOptions {
  // Hard cap on total reassignments; repair is a patch, not a second solve.
  size_t max_moves = 2000;
  // Third pass (spread rebalance): per-shard solves cannot see each other's
  // MSB loads, so the merged assignment can pile one reservation's capacity
  // into an MSB beyond the region-wide Ψ_F threshold even though every shard
  // respected its own. Servers the round freshly acquired for an
  // over-threshold (reservation, MSB) pair are swapped against free servers
  // in the least-loaded MSBs. One threshold in RRUs per reservation index of
  // the input — callers pass the model's (MsbSpreadThreshold). Empty disables
  // the pass.
  std::vector<double> msb_spread_thresholds;
};

struct StitchRepairStats {
  size_t moves_from_free = 0;
  size_t moves_from_donors = 0;
  size_t moves_spread = 0;
  size_t reservations_short = 0;  // Before repair.
  double shortfall_before_rru = 0.0;
  double shortfall_after_rru = 0.0;
  double spread_over_after_rru = 0.0;

  size_t moves() const { return moves_from_free + moves_from_donors + moves_spread; }
};

// Repairs `targets` in place. `targets` must hold one entry per solvable
// server (the merged shard decode), sorted by server id. Deterministic: the
// same input and targets always produce the same repaired assignment.
StitchRepairStats RepairShortfalls(const SolveInput& input,
                                   std::vector<std::pair<ServerId, ReservationId>>& targets,
                                   const StitchRepairOptions& options = {});

}  // namespace ras

#endif  // RAS_SRC_SHARD_STITCH_REPAIR_H_
