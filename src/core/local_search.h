// Local-search assignment backend.
//
// The paper (Section 6) describes ReBalancer, the Facebook-internal library
// both RAS and Shard Manager use to formulate constrained optimization:
// "ReBalancer can choose different backend solvers... a MIP solver for RAS,
// but a local-search-based solver for Shard Manager because Shard Manager
// needs to perform near-realtime allocation in seconds."
//
// This is that local search, specialized to the RAS assignment structure:
// moves of equivalence-class servers between reservations (or the free pool)
// in chunks of 1, 2, 4 or 8, priced on exact incremental objective deltas
// over the cost model the MIP optimizes (Expressions 1-7 plus the repo's
// anti-hoarding term), except that it does not score phase 2's rack-spread
// terms. It is a deterministic best-first descent: every variable's best
// improving move waits in a heap, the best of them all is applied, and the
// variables that move touched are priced again when they reach the top. It
// stops only when a full pricing pass finds no improving move, so its answer
// is a local optimum of the move set, or at a cap on priced moves; all its
// work is counted, never timed. The AsyncSolver runs it as the polish of the
// greedy warm start (MakePhaseStart), beside the MIP's search;
// bench/ablation_backend compares it against the MIP.

#ifndef RAS_SRC_CORE_LOCAL_SEARCH_H_
#define RAS_SRC_CORE_LOCAL_SEARCH_H_

#include <cstdint>
#include <vector>

#include "src/core/model_builder.h"
#include "src/core/solve_input.h"

namespace ras {

struct LocalSearchOptions {
  // Cap on priced moves. Each one applies a move to the incremental state,
  // scores the terms it touches and restores them. A cap inside the first
  // full pricing pass returns the start unchanged; the default is about five
  // first passes of the largest phase 1 the scaling benches build (22.5k
  // variables, 3.5-4M priced moves, SweepRegion scale 8).
  int64_t max_priced_moves = 20'000'000;
};

struct LocalSearchResult {
  std::vector<double> counts;  // Aligned with built.assignment_vars.
  double initial_objective = 0.0;
  double final_objective = 0.0;
  int64_t priced_moves = 0;
  int64_t accepted = 0;
  // A full pricing pass over `counts` found no improving move.
  bool local_optimum = false;
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
