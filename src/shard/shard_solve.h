// Shard solve coordination: fans the per-shard solves out onto a ThreadPool
// and merges the results back into one region-wide target set plus a
// combined SolveStats.
//
// The coordinator is deliberately agnostic about *how* a shard is solved —
// the caller passes a ShardSolveFn (AsyncSolver wires in each shard's
// persistent sub-solver's SolveMonolithic), which keeps src/shard free of a
// dependency cycle with src/core's solver while AsyncSolver drives it.
//
// A shard that fails (solver fault, shard-local infeasibility surfaced as an
// error) does not sink the round: its servers keep their snapshot bindings
// and the shortfall it leaves behind is handed to StitchRepair. Only when
// every shard fails does the coordinator report an error.

#ifndef RAS_SRC_SHARD_SHARD_SOLVE_H_
#define RAS_SRC_SHARD_SHARD_SOLVE_H_

#include <functional>
#include <vector>

#include "src/core/async_solver.h"
#include "src/core/assignment_decoder.h"
#include "src/core/solve_input.h"
#include "src/shard/demand_splitter.h"
#include "src/shard/shard_planner.h"

namespace ras {

// Solves one shard's sub-input, filling `decoded` with targets covering
// exactly the shard's available servers. `shard` is the plan's shard index —
// stable round-over-round for a fixed plan, which is what lets the caller
// route each shard to a persistent per-shard solver (and its resolve cache)
// so warm state follows the same shard across rounds (incumbent affinity).
using ShardSolveFn = std::function<Result<SolveStats>(
    int shard, const SolveInput& shard_input, DecodedAssignment* decoded)>;

struct ShardSolveOptions {
  // Worker threads for the fan-out; 0 = min(shard_count, hardware
  // concurrency). Shards are solved independently and results are merged in
  // shard order, so the outcome is deterministic for any thread count.
  int threads = 0;
};

struct ShardOutcomeSummary {
  int shard = 0;
  Status status;
  size_t servers = 0;
  double objective = 0.0;
  double wall_seconds = 0.0;
  double shortfall_rru = 0.0;
};

struct ShardSolveOutcome {
  // OK when at least one shard produced an assignment.
  Status status;
  // Summed phase stats across shards; total_seconds is the coordinator's
  // wall time (on one core the sum of shard times, with threads the span).
  SolveStats aggregate;
  // Union of per-shard targets (snapshot bindings for failed shards), sorted
  // by server id — one entry per available server.
  DecodedAssignment merged;
  std::vector<ShardOutcomeSummary> shards;
};

// The sub-problem a shard solves: the region input with the reservation list
// cut down to the shard's span members (reservations with a nonzero share
// there, capacity replaced by the share) and every server outside the shard
// marked unavailable (equivalence classes then simply never see them — no
// re-indexing anywhere). In-shard servers bound to a reservation outside the
// shard's span are frozen (unavailable) so the sub-solve can neither reuse
// nor churn them; the merge re-emits their snapshot bindings. Cutting the
// reservation list is where the decomposition's superlinear win comes from:
// model rows and columns are reservation-dominated, so a shard with R/K of
// the reservations solves far more than K× faster than the region.
SolveInput MakeShardInput(const SolveInput& region, const ShardPlan& plan,
                          const ShardDemand& demand, int shard);

ShardSolveOutcome SolveShards(const SolveInput& input, const ShardPlan& plan,
                              const ShardDemand& demand, const ShardSolveFn& solve_shard,
                              const ShardSolveOptions& options = {});

}  // namespace ras

#endif  // RAS_SRC_SHARD_SHARD_SOLVE_H_
