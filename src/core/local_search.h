// Local-search assignment backend.
//
// The paper (Section 6) describes ReBalancer, the Facebook-internal library
// both RAS and Shard Manager use to formulate constrained optimization:
// "ReBalancer can choose different backend solvers... a MIP solver for RAS,
// but a local-search-based solver for Shard Manager because Shard Manager
// needs to perform near-realtime allocation in seconds."
//
// This is that local search, specialized to the RAS assignment structure:
// single-unit moves of equivalence-class servers between reservations (or
// the free pool), greedily accepted on exact incremental objective deltas
// over the cost model the MIP optimizes (Expressions 1-7 plus the repo's
// anti-hoarding term), except that it does not score phase 2's rack-spread
// terms. Every proposal is a move the current state admits: it is drawn
// from the valid moves only, with the probabilities a uniform draw
// conditioned on validity would give, so each one is priced. A rejected
// move is undone exactly. It trades solution quality for bounded work, all
// of it counted, never timed. The AsyncSolver runs it as a short polish of
// the greedy warm start (MakePhaseStart), beside the MIP's search;
// bench/ablation_backend compares it, run to its own limits, against the MIP.

#ifndef RAS_SRC_CORE_LOCAL_SEARCH_H_
#define RAS_SRC_CORE_LOCAL_SEARCH_H_

#include <cstdint>
#include <vector>

#include "src/core/model_builder.h"
#include "src/core/solve_input.h"

namespace ras {

struct LocalSearchOptions {
  // Cap on accepted moves x assignment variables: each accepted move
  // rebuilds the move table over every variable, the polish's dominant cost.
  // The default is about 1 s on a 4-vCPU VM at 108k-491k variables.
  int64_t max_rebuild_work = 80'000'000;
  // Cap on proposals. Every proposal is a valid move that gets evaluated.
  int64_t max_proposals = 1000000;
  // Consecutive rejected proposals before giving up early. Each one is a
  // valid move priced and found not to improve the objective.
  int64_t stall_limit = 150000;
  uint64_t seed = 1;
};

struct LocalSearchResult {
  std::vector<double> counts;  // Aligned with built.assignment_vars.
  double initial_objective = 0.0;
  double final_objective = 0.0;
  int64_t proposals = 0;  // Valid moves drawn and evaluated.
  int64_t accepted = 0;
};

// Improves `initial_counts` (must respect class supplies; typically
// BuildInitialCounts output). The returned counts also respect supplies; the
// objective values are the built model's objective at the corresponding
// MakeWarmStart points, less any rack-spread penalty (a phase-2 model's).
LocalSearchResult LocalSearchOptimize(const SolveInput& input,
                                      const std::vector<EquivalenceClass>& classes,
                                      const BuiltModel& built,
                                      const std::vector<double>& initial_counts,
                                      const LocalSearchOptions& options = LocalSearchOptions());

}  // namespace ras

#endif  // RAS_SRC_CORE_LOCAL_SEARCH_H_
