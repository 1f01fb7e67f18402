// RAS MIP model construction (Section 3.5.3).
//
// Builds, from equivalence classes, the model
//
//   min   sum Ms * max(0, X - x)                      (1) stability
//       + beta * sum_rack max(0, rack RRU - aK*C)     (2) rack spread
//       + beta * sum_msb  max(0, msb RRU  - aF*C)     (3) MSB spread
//       + tau  * sum_r max_msb(msb RRU)               (4) buffer minimization
//   s.t. sum_r n[c][r] <= |class c|                   (5) assignment
//        sum V*n - max_msb(...) >= C_r                (6) embedded buffer
//        |dc share - A_{r,dc}| <= theta               (7) network affinity
//
// max() terms are linearized with auxiliary continuous variables. Classes
// are keyed by (location, hardware type) alone, so one n per (class,
// reservation) pair carries Expression (1) for every server the reservation
// holds in the class: move-outs o_idle <= X_idle and o_in_use <= X_in_use
// with n + o_idle + o_in_use >= X, and acquire_cost per server of n above X.
// Since max(0, n - X) = n - X + max(0, X - n), the acquire cost rides on n
// and on both move-outs, and one column fixed at sum X carries the constant
// -acquire_cost * sum X; no per-pair acquire column or row is needed. Any
// target set that releases a reservation's idle servers before its in-use
// ones scores exactly what a binding-keyed model gives it. Following
// Section 3.5.1, constraints (6) and (7) are *softened* with high-priority
// slack variables so the model is always feasible; the slacks' costs dominate
// every ordinary objective, so the solver fixes as many constraints as it
// can before optimizing anything else.

#ifndef RAS_SRC_CORE_MODEL_BUILDER_H_
#define RAS_SRC_CORE_MODEL_BUILDER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/core/solve_input.h"
#include "src/solver/mip.h"
#include "src/solver/model.h"

namespace ras {

struct SolverConfig {
  // Expression (1): Ms. In-use servers cost 10x idle ones to move, which is
  // why ~10x more unused servers move in practice (Figure 16).
  double move_cost_in_use = 1000.0;
  double move_cost_idle = 100.0;
  // Small per-server cost for claiming a server a reservation does not
  // currently hold (host cleanup + OS reconfiguration). Keeps solutions tight
  // — without it, over-allocating free servers is objective-neutral.
  double acquire_cost = 1.0;
  // Expression (2)/(3): beta, per RRU above the spread threshold.
  double spread_penalty_beta = 20000.0;
  // Expression (4): tau, per RRU of correlated-failure buffer.
  double buffer_cost_tau = 3000.0;
  // Softened-constraint slack costs; must dominate all of the above.
  double affinity_soften_cost = 2e5;
  double capacity_soften_cost = 1e6;
  // Storage quorum-spread cap (max_msb_fraction_hard): near-hard.
  double quorum_soften_cost = 5e5;
  // Anti-hoarding: per-RRU cost of holding capacity beyond
  // (1 + hoarding_allowance) * C_r + buffer. Set above move_cost_idle so idle
  // surplus is shed back to the free pool rather than stranded — the
  // fungibility RAS exists to provide. Below move_cost_in_use, so shedding
  // never preempts running containers by itself.
  double hoarding_cost = 300.0;
  double hoarding_allowance = 0.10;
  // Default spread thresholds as multiples of the perfectly-uniform share:
  // alpha_F = msb_alpha_factor / #MSBs, alpha_K = rack_alpha_factor / #racks.
  double msb_alpha_factor = 1.3;
  double rack_alpha_factor = 2.0;
  // Floor on spread thresholds (in RRUs): tiny reservations (e.g. per-type
  // shared buffers) would otherwise pay junk penalties for placing even a
  // single server anywhere. MsbSpreadThreshold / RackSpreadThreshold apply it.
  double min_spread_threshold_rru = 4.0;

  // --- Shard decomposition (src/shard, paper §3.5.2) ---
  // 1 (default) runs the monolithic region-wide solve, bit-for-bit the
  // pre-shard path. K > 1 partitions the region into K rack-complete shards
  // (deterministic, under ShardPlanOptions' fixed seed), splits every
  // reservation's demand across them proportionally to usable capacity,
  // solves the shards independently, and stitches the results with a bounded
  // cross-shard repair. 0 picks K automatically from the fleet size
  // (AutoShardCount).
  int shard_count = 1;

  // --- Cross-round incremental re-solve (src/core/resolve_cache.h) ---
  // Replays the previous round when the snapshot is unchanged, and re-bounds
  // the previous round's phase-1 model in place when its layout fits. Both
  // only skip work a cold solve would provably repeat, so disabling this
  // changes timings, not targets.
  bool incremental_resolve = true;

  // Per-phase branch-and-bound settings.
  MipOptions phase1_mip;
  MipOptions phase2_mip;

  SolverConfig() {
    // The polished warm start and the LP-rounding heuristic leave deeper
    // search little to find (bench/fig09: from the production start, the
    // 24-node early stop matches a 200-node reference in most trials and
    // trails it by under 15 in-use moves' cost in every one), so node
    // budgets stay small.
    // The work limits stand in for the paper's timeouts: about 20 s and
    // 10 s of search on a 4-vCPU VM (DESIGN.md, "one stopping rule").
    phase1_mip.max_lp_work = 4'000'000'000;
    phase1_mip.max_nodes = 24;
    phase2_mip.max_lp_work = 2'000'000'000;
    phase2_mip.max_nodes = 16;
    // Gaps below half an idle server move are operationally meaningless;
    // pruning at this tolerance saves most of the branch-and-bound tail.
    phase1_mip.absolute_gap = move_cost_idle / 2;
    phase2_mip.absolute_gap = move_cost_idle / 2;
  }
};

// Everything BuildRasModel's layout pass reads: the region objects, each
// class's (location, type) key in order, each reservation's structural
// fields, and the phase shape. Equal layouts give equal variables, rows,
// coefficients and costs (under one SolverConfig); only bounds can differ,
// and SetRoundBounds writes those. Bindings and in-use flags are bounds (the
// X counts), so moves and flips keep the layout.
struct ModelLayout {
  struct ClassKey {
    uint32_t group = 0;
    MsbId msb = 0;
    DatacenterId dc = 0;
    HardwareTypeId type = kInvalidHardwareType;

    bool operator==(const ClassKey&) const = default;
  };
  // Size-only fields (capacity, alphas, theta, affinity shares, the quorum
  // cap's magnitude) are bounds and stay out.
  struct ReservationShape {
    ReservationId id = kUnassigned;
    std::vector<double> rru_per_type;
    bool needs_correlated_buffer = false;
    bool has_quorum_cap = false;
    std::vector<DatacenterId> affinity_dcs;

    bool operator==(const ReservationShape&) const = default;
  };

  const RegionTopology* topology = nullptr;
  const HardwareCatalog* catalog = nullptr;
  std::vector<ClassKey> classes;
  std::vector<ReservationShape> reservations;
  bool include_rack_spread = false;
  std::vector<int> reservation_subset;

  bool operator==(const ModelLayout&) const = default;
};

inline constexpr VarId kNoVar = -1;
inline constexpr RowId kNoRow = -1;

// A built model plus the bookkeeping needed to decode a solution.
struct BuiltModel {
  Model model;
  // The layout the model was built from; SetRoundBounds checks it.
  ModelLayout layout;

  // Assignment variables: n_vars[k] is the k-th (class, reservation) pair.
  struct AssignmentVar {
    VarId var;
    int class_index;
    int reservation_index;
  };
  std::vector<AssignmentVar> assignment_vars;
  // Per class: indices into assignment_vars (for decode and warm start).
  std::vector<std::vector<int>> class_to_vars;
  // Per reservation index: capacity shortfall slack (kNoVar if the
  // reservation is outside the subset).
  std::vector<VarId> shortfall_vars;
  // Per reservation index: the max-MSB buffer variable m_r, or kNoVar.
  std::vector<VarId> buffer_vars;
  // Per reservation index: hoarding overflow variable, or kNoVar.
  std::vector<VarId> hoard_vars;
  // Expression (1)'s X per pair, aligned with assignment_vars: the class's
  // servers the reservation holds, and how many of those are in use.
  std::vector<double> initial_counts;
  std::vector<double> initial_in_use;
  // Move-out variables per pair by tier, aligned with assignment_vars:
  // o_idle <= X_idle, o_in_use <= X_in_use. Every pair has both.
  std::vector<VarId> move_idle_vars;
  std::vector<VarId> move_in_use_vars;
  // Fixed at sum X, at -acquire_cost: the linearization's constant.
  VarId held_var = kNoVar;
  // Expression (1)'s prices, the build config's.
  double acquire_cost = 0.0;
  double move_cost_idle = 0.0;
  double move_cost_in_use = 0.0;

  // Bookkeeping for warm-start construction. Each term's round-dependent
  // bound (spread threshold, quorum cap, affinity band) lives only in the
  // model, on the term's row(s).
  struct SpreadTerm {
    VarId var;  // Overflow variable w >= (group RRU) - threshold.
    int reservation_index;
    uint32_t group;
    RowId row = -1;  // sum_G V*n - w <= threshold.
  };
  std::vector<SpreadTerm> msb_spread_terms;
  std::vector<SpreadTerm> rack_spread_terms;
  struct AffinityTerm {
    VarId lo_slack;
    VarId hi_slack;
    int reservation_index;
    DatacenterId dc;
    RowId lo_row = -1;  // sum_dc V*n + s_lo >= AffinityBand().lo.
    RowId hi_row = -1;  // sum_dc V*n - s_hi <= AffinityBand().hi.
  };
  std::vector<AffinityTerm> affinity_terms;
  // Storage quorum caps: per (reservation, MSB) slack above the hard limit.
  struct QuorumTerm {
    VarId slack;
    int reservation_index;
    uint32_t group;  // MSB.
    RowId row = -1;  // sum_G V*n - slack <= max_msb_fraction_hard * C_r.
  };
  std::vector<QuorumTerm> quorum_terms;

  // Row bookkeeping for SetRoundBounds: every row whose bounds depend on
  // class counts or reservation sizes. Rows not present in this build
  // (reservation outside the subset) hold kNoRow.
  std::vector<RowId> supply_rows;    // Per class: sum_r n <= |class|.
  std::vector<RowId> move_rows;      // Per pair: n + o_idle + o_in_use >= X.
  std::vector<RowId> capacity_rows;  // Per reservation index: Expression (6).
  std::vector<RowId> hoard_rows;     // Per reservation index: h >= RRU - m_r - limit.

  // Pair k's move-outs at n servers, idle servers released first.
  struct Release {
    double idle = 0.0;
    double in_use = 0.0;
  };
  Release ReleaseAt(size_t k, double n) const {
    const double release = std::max(0.0, initial_counts[k] - n);
    const double idle = std::min(release, initial_counts[k] - initial_in_use[k]);
    return {idle, release - idle};
  }
  // Expression (1) for pair k at n servers: the tiered move-outs, plus
  // acquire_cost per server above X.
  double MoveCost(size_t k, double n) const {
    const Release out = ReleaseAt(k, n);
    return acquire_cost * std::max(0.0, n - initial_counts[k]) + move_cost_idle * out.idle +
           move_cost_in_use * out.in_use;
  }

  size_t num_assignment_variables() const { return assignment_vars.size(); }
  // Model-build memory (variables, rows, nonzeros, decode bookkeeping):
  // linear in the number of assignment variables, the quantity comparable to
  // the paper's Figure 11.
  size_t ModelMemoryBytes() const;
};

// Builds the model over `classes` in two passes: a layout pass adds every
// variable, row, coefficient and objective cost (all fixed by the ModelLayout
// it records and `config`), then the bound pass writes the bounds that depend
// on the round.
//  - include_rack_spread: phase 2 adds Expression (2); requires rack classes.
//  - reservation_subset: when non-empty (phase 2), capacity/spread/buffer
//    constraints are emitted only for these reservation indices; classes are
//    expected to be pre-filtered to those reservations' servers + free pool.
BuiltModel BuildRasModel(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                         const SolverConfig& config, bool include_rack_spread,
                         const std::vector<int>& reservation_subset = {});

// The cross-round patch, and its only gate. Returns false, with `built`
// untouched, when the round's layout (same arguments as BuildRasModel)
// differs from the one `built` records: a class appears or vanishes, a
// reservation is added, removed or restructured, or the phase shape differs.
// Otherwise runs the build's own bound pass over `built`: class supply and n
// upper bounds, X with the tiered move-out bounds and sum X, the shortfall
// bound, capacity and hoard rows, spread
// thresholds, quorum caps and affinity bands, written through the Model's
// cache-preserving Update mutators. The result is then identical to a fresh
// build by construction. It still returns false when an affinity band is
// crossed (lo > hi) or an Update call refuses its range; `built` is then
// partly re-bounded and must be rebuilt for this round. Costs stay those of
// the build's `config`.
[[nodiscard]] bool SetRoundBounds(BuiltModel& built, const SolveInput& input,
                                  const std::vector<EquivalenceClass>& classes,
                                  const SolverConfig& config, bool include_rack_spread,
                                  const std::vector<int>& reservation_subset = {});

// Spread thresholds in RRUs, shared by the model and every caller that scores
// spread against them: the reservation's own alpha (msb_spread_alpha for
// Expression (3), rack_spread_alpha for Expression (2)) or else the config's
// multiple of the uniform share, times C_r, floored at
// min_spread_threshold_rru.
double MsbSpreadThreshold(const ReservationSpec& spec, const SolverConfig& config,
                          const RegionTopology& topo);
double RackSpreadThreshold(const ReservationSpec& spec, const SolverConfig& config,
                           const RegionTopology& topo);

// Expression (7)'s band for one datacenter share A, in RRUs:
// [max(0, A - theta) * C_r, (A + theta) * C_r].
struct RruBand {
  double lo;
  double hi;
};
RruBand AffinityBand(const ReservationSpec& spec, double share);

// Computes the auxiliary-variable values (move-outs, spread overflows, buffer
// max, slacks) consistent with the given assignment counts, producing a fully
// feasible warm-start vector for the MIP ("Initial State" step, Figure 8).
// `counts` is aligned with built.assignment_vars.
std::vector<double> MakeWarmStart(const SolveInput& input,
                                  const std::vector<EquivalenceClass>& classes,
                                  const BuiltModel& built, const std::vector<double>& counts);

}  // namespace ras

#endif  // RAS_SRC_CORE_MODEL_BUILDER_H_
