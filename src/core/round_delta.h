// Round deltas: what changed between two consecutive SolveInput snapshots.
//
// The Async Solver runs continuously (Figure 6); consecutive rounds see
// ~99%-identical inputs. The delta classifies the differences — server churn
// (health / binding / in-use flips, fleet growth), reservation churn (added /
// removed / resized / restructured) — and certifies whether the previous
// round's model structure survives, which is what gates the incremental
// re-solve layer the ResolveCache carries: model patching (SetRoundBounds)
// and the skip-solve fast path.

#ifndef RAS_SRC_CORE_ROUND_DELTA_H_
#define RAS_SRC_CORE_ROUND_DELTA_H_

#include <vector>

#include "src/core/solve_input.h"

namespace ras {

struct RoundDelta {
  // Server-level churn. `servers_changed` counts index-aligned servers whose
  // binding, in-use flag, or availability flipped; added/removed cover fleet
  // resizes (snapshots index servers by ServerId, so sizes only grow when
  // hardware lands).
  int servers_changed = 0;
  int servers_added = 0;
  int servers_removed = 0;

  // Reservation-level churn, matched by id (both snapshots are id-ordered).
  // "Resized" changes only bounds SetRoundBounds re-targets (capacity,
  // spread alphas, affinity theta / shares, quorum magnitude); a
  // "restructured" reservation changed something that alters the constraint
  // matrix itself (value table, buffer flag, affinity key set, quorum cap
  // appearing or vanishing) and forces a rebuild.
  int reservations_added = 0;
  int reservations_removed = 0;
  int reservations_resized = 0;
  int reservations_restructured = 0;

  // Both snapshots reference the same topology + catalog objects. Different
  // region objects void every cross-round assumption.
  bool same_region = false;

  // The reservation list is patch-compatible: same ids in the same order,
  // none restructured (resizes are fine).
  bool reservations_structurally_equal = false;

  // The equivalence classes produced by the two rounds have identical keys
  // (group, msb, dc, type, current, in_use) at every index — counts may
  // differ. Set by the caller from ClassStructureEqual over the actual class
  // vectors (ComputeRoundDelta cannot know them); defaults to false, so an
  // unset field fails safe into a full rebuild.
  bool classes_structurally_equal = false;

  int delta_servers() const { return servers_changed + servers_added + servers_removed; }

  // Nothing the solver can observe changed: bit-for-bit the same round.
  bool empty() const {
    return delta_servers() == 0 && reservations_added == 0 && reservations_removed == 0 &&
           reservations_resized == 0 && reservations_restructured == 0 && same_region;
  }

  // The layout gate: the previous round's BuiltModel keeps its variables,
  // rows, coefficients and costs, so SetRoundBounds can re-target it in place.
  bool patchable() const {
    return same_region && reservations_structurally_equal && classes_structurally_equal;
  }
};

// Input-level delta. Fills everything except `classes_structurally_equal`,
// which the caller certifies with ClassStructureEqual once both rounds'
// class vectors exist.
RoundDelta ComputeRoundDelta(const SolveInput& prev, const SolveInput& next);

// True when `a` and `b` would keep the same model layout under
// BuildRasModel: identical keys at every index. Server membership and counts
// are allowed to differ (those patch as bounds).
bool ClassStructureEqual(const std::vector<EquivalenceClass>& a,
                         const std::vector<EquivalenceClass>& b);

// True when replacing `a` with `b` preserves the constraint matrix: same id,
// same value table, same buffer/elastic flags, same affinity key set, and
// the storage quorum cap neither appears nor vanishes. Size-only changes
// (capacity, alphas, theta, shares, quorum magnitude) return true.
bool ReservationStructureEqual(const ReservationSpec& a, const ReservationSpec& b);

}  // namespace ras

#endif  // RAS_SRC_CORE_ROUND_DELTA_H_
