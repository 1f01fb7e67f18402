// Demand splitting for shard decomposition (paper §3.5.2): each
// reservation's RRU demand is divided across the K shards proportionally to
// how much capacity each shard can actually supply it (summed RRU value of
// the shard's available servers under the reservation's per-type RRU vector
// — heterogeneous hardware means the usable fraction differs per shard).
//
// Conservation is exact: the integer part of the demand is apportioned by
// largest-remainder rounding (no RRU is lost or duplicated across shards),
// and any fractional residue rides on the largest-remainder shard. Buffer
// requirements travel with the split: flags (needs_correlated_buffer,
// is_storage, max_msb_fraction_hard) and the spread alphas are fractions of
// C_r and apply per shard to its share.

#ifndef RAS_SRC_SHARD_DEMAND_SPLITTER_H_
#define RAS_SRC_SHARD_DEMAND_SPLITTER_H_

#include <vector>

#include "src/core/solve_input.h"
#include "src/shard/shard_planner.h"

namespace ras {

// Splits `total` (>= 0) proportionally to `weights` with largest-remainder
// rounding at 1-RRU granularity. Guarantees:
//   - shares sum to `total` exactly when `total` is integral (pure integer
//     arithmetic), and to within one double rounding otherwise;
//   - zero-weight entries receive a zero share;
//   - if every weight is zero the whole demand lands on entry 0 (the shard
//     solve softens the resulting shortfall rather than losing the demand).
std::vector<double> SplitByLargestRemainder(double total, const std::vector<double>& weights);

// POP-style span limiting. A reservation's demand is split across just
// enough shards (its "span") that each member carries at most kSpanMaxFill
// of the average per-shard usable capacity for that reservation; every other
// shard gets a zero share. Small reservations land whole on one shard —
// their spread and buffer constraints then run at full C_r scale, exactly as
// in the monolithic model — while region-sized reservations still span all
// K. Span members are chosen deterministically: shards already holding the
// reservation's servers first, then least-loaded (ties -> lowest shard
// index), processing reservations in descending-demand order so big spans
// are placed before the load picture fills in.
inline constexpr double kSpanMaxFill = 0.5;

struct ShardDemand {
  // usable_rru[r][k]: RRU capacity shard k can supply reservation r.
  std::vector<std::vector<double>> usable_rru;
  // shares[r][k]: RRU demand assigned to shard k; sums to capacity_rru over k.
  std::vector<std::vector<double>> shares;
  // span[r]: ascending shard indices that received a nonzero share of r.
  std::vector<std::vector<int>> span;
  // Per-shard reservation lists: same ids and order as input.reservations,
  // capacity replaced by the shard's share. Every reservation appears in
  // every shard (possibly with a zero share) so callers can index these by
  // the region-wide reservation index.
  std::vector<std::vector<ReservationSpec>> reservations;
};

ShardDemand SplitDemand(const SolveInput& input, const ShardPlan& plan);

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

}  // namespace ras

#endif  // RAS_SRC_SHARD_DEMAND_SPLITTER_H_
