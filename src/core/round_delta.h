// Round deltas: how much of the fleet changed between two consecutive
// SolveInput snapshots.
//
// The Async Solver runs continuously (Figure 6); consecutive rounds see
// ~99%-identical inputs. The resolve cache reports the server-state delta
// against its cached round as `delta_servers` telemetry. It gates nothing:
// the round memo keys on the whole snapshot, and SetRoundBounds checks the
// model layout itself.

#ifndef RAS_SRC_CORE_ROUND_DELTA_H_
#define RAS_SRC_CORE_ROUND_DELTA_H_

#include "src/core/solve_input.h"

namespace ras {

// Index-aligned servers whose binding, in-use flag or availability differs,
// plus the servers one snapshot has beyond the other (snapshots index servers
// by ServerId, so sizes only grow when hardware lands).
int DeltaServers(const SolveInput& prev, const SolveInput& next);

}  // namespace ras

#endif  // RAS_SRC_CORE_ROUND_DELTA_H_
