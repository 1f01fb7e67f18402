// Initial-state construction (the "Initial State" step of Figure 8): a
// greedy, spread-aware repair of the current assignment that gives the MIP a
// feasible integer warm start — keep every server where it is, then fill
// capacity deficits from the free pool, always adding to the MSB where the
// reservation currently holds the least capacity.
//
// This is also RAS's fallback allocator: if the MIP stops at its work limit
// with no better incumbent, the greedy solution is what ships.

#ifndef RAS_SRC_CORE_INITIAL_ASSIGNMENT_H_
#define RAS_SRC_CORE_INITIAL_ASSIGNMENT_H_

#include <vector>

#include "src/core/model_builder.h"
#include "src/core/solve_input.h"

namespace ras {

// Returns assignment counts aligned with built.assignment_vars: the current
// counts X plus greedy fills for reservations short of capacity + buffer.
std::vector<double> BuildInitialCounts(const SolveInput& input,
                                       const std::vector<EquivalenceClass>& classes,
                                       const BuiltModel& built);

// The underlying repair: starting from arbitrary (supply-respecting)
// assignment counts, greedily fill each under-capacity reservation from the
// remaining free supply, spread-first. BuildInitialCounts is this applied to
// the current assignment X; the LP-rounding heuristic (lp_rounding.h) applies
// it to a rounded LP point.
std::vector<double> RepairCounts(const SolveInput& input,
                                 const std::vector<EquivalenceClass>& classes,
                                 const BuiltModel& built, std::vector<double> counts);

}  // namespace ras

#endif  // RAS_SRC_CORE_INITIAL_ASSIGNMENT_H_
