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
// over the same cost model the MIP optimizes (Expressions 1-7 plus the
// repo's anti-hoarding term). It trades solution quality for strictly
// bounded runtime. The AsyncSolver runs it as a short polish of the greedy
// warm start before the MIP; bench/ablation_backend compares it, run to its
// own time limit, against the MIP.

#ifndef RAS_SRC_CORE_LOCAL_SEARCH_H_
#define RAS_SRC_CORE_LOCAL_SEARCH_H_

#include <cstdint>
#include <vector>

#include "src/core/model_builder.h"
#include "src/core/solve_input.h"

namespace ras {

struct LocalSearchOptions {
  double time_limit_seconds = 3.0;
  int64_t max_proposals = 1000000;
  // Consecutive rejected proposals before giving up early. Coupled moves
  // (specific source/destination pairs) are rare draws, so the stall limit
  // must be large relative to the proposal space.
  int64_t stall_limit = 150000;
  uint64_t seed = 1;
};

struct LocalSearchResult {
  std::vector<double> counts;  // Aligned with built.assignment_vars.
  double initial_objective = 0.0;
  double final_objective = 0.0;
  int64_t proposals = 0;
  int64_t accepted = 0;
  double seconds = 0.0;
};

// Improves `initial_counts` (must respect class supplies; typically
// BuildInitialCounts output). The returned counts also respect supplies; the
// objective values are the built model's objective at the corresponding
// MakeWarmStart points.
LocalSearchResult LocalSearchOptimize(const SolveInput& input,
                                      const std::vector<EquivalenceClass>& classes,
                                      const BuiltModel& built,
                                      const std::vector<double>& initial_counts,
                                      const LocalSearchOptions& options = LocalSearchOptions());

}  // namespace ras

#endif  // RAS_SRC_CORE_LOCAL_SEARCH_H_
