// Async Solver (Section 3.5): continuously re-optimizes the whole region's
// server-to-reservation assignment with two-phase MIP solving.
//
// Phase 1 groups servers at MSB granularity (dropping rack goals lets far
// more servers merge into each equivalence class) and solves capacity,
// buffer, MSB-spread, affinity, and stability region-wide. Phase 2 re-solves
// at rack granularity for the subset of reservations with the worst
// rack-level objective, holding everything else fixed.
//
// Each phase is instrumented with the four steps of Figure 8:
//   RAS build -> solver build -> initial state -> MIP.

#ifndef RAS_SRC_CORE_ASYNC_SOLVER_H_
#define RAS_SRC_CORE_ASYNC_SOLVER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/broker/resource_broker.h"
#include "src/core/assignment_decoder.h"
#include "src/core/model_builder.h"
#include "src/core/reservation.h"
#include "src/core/resolve_cache.h"
#include "src/core/solve_input.h"

namespace ras {

// How much of the solve pipeline to run. The degraded modes are the middle
// rungs of the supervisor's ladder: each trades solution quality for a
// cheaper, more reliable answer when the full solve keeps failing.
enum class SolveMode : uint8_t {
  kFullTwoPhase = 0,  // Phase 1 + rack-granular phase 2 (the normal solve).
  kPhase1Only,        // MSB-granular MIP only; skip the phase-2 refinement.
  kIncumbentOnly,     // Phase 1 with no search budget: ships phase 1's
                      // polished greedy start (RAS's timeout fallback).
};

struct StepTimings {
  double ras_build_s = 0.0;
  double solver_build_s = 0.0;
  double initial_state_s = 0.0;
  double mip_s = 0.0;

  double total() const { return ras_build_s + solver_build_s + initial_state_s + mip_s; }
  double setup() const { return ras_build_s + solver_build_s + initial_state_s; }
};

struct PhaseStats {
  StepTimings timings;
  size_t assignment_variables = 0;
  size_t model_rows = 0;
  size_t model_variables = 0;
  size_t memory_bytes = 0;
  MipStatus mip_status = MipStatus::kError;
  double objective = 0.0;
  double best_bound = 0.0;
  double warm_start_objective = 0.0;
  int64_t nodes = 0;
  bool ran = false;

  // Cross-round reuse telemetry (resolve cache, SolverConfig::
  // incremental_resolve). delta_servers is the server-state delta against the
  // cached round, or -1 when there was no cached round to diff against.
  bool model_patched = false;
  bool solve_skipped = false;
  int delta_servers = -1;
  // Dual simplex telemetry, summed over every LP the phase ran: node LPs
  // served by the dual kernel and the dual pivots they took.
  int64_t dual_resolves = 0;
  int64_t dual_iterations = 0;
};

struct SolveStats {
  PhaseStats phase1;
  PhaseStats phase2;
  size_t moves_total = 0;
  size_t moves_in_use = 0;
  size_t moves_idle = 0;
  // Capacity shortfall (softened-constraint residue) after the solve, RRUs.
  double total_shortfall_rru = 0.0;
  double total_seconds = 0.0;

  // Shard decomposition accounting (src/shard). shard_count == 1 is the
  // monolithic solve; then the fields below stay zero.
  int shard_count = 1;
  // Always 0: a shard solve cannot fail. Kept because roundbench reads it.
  size_t failed_shards = 0;
  size_t repair_moves = 0;
  double repair_shortfall_before_rru = 0.0;

  // Round-level reuse summary: the booleans hold when every phase (and, when
  // sharded, every shard) that ran reused that way; delta_servers is phase
  // 1's region-wide delta (summed across shards), -1 on a cold round.
  bool model_patched = false;
  bool solve_skipped = false;
  int delta_servers = -1;
  // Solver-layer re-optimization totals summed across phases (and shards).
  int64_t dual_resolves = 0;
  int64_t dual_iterations = 0;
  // Always 0: the LP has no presolve. Kept because roundbench reads it.
  int64_t presolve_rows_removed = 0;
};

// The initial-state step of a phase (Figure 8). `warm` is the greedy spread-
// aware assignment polished by a short local search; it seeds the MIP's
// incumbent. `root_start` is the region's current assignment, every held
// class at its count; the root LP starts there.
struct PhaseStart {
  std::vector<double> warm;
  std::vector<double> root_start;
};

// Builds the initial state every phase solve starts from; the polish runs to
// LocalSearchOptions' default work limits.
PhaseStart MakePhaseStart(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                          const BuiltModel& built);

// The MIP step of a phase: branch-and-bound over `built` from `start`, with
// the LP-guided rounding heuristic (src/core/lp_rounding) installed.
MipResult SolvePhaseMip(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                        const BuiltModel& built, const MipOptions& mip_options,
                        const PhaseStart& start);

class AsyncSolver {
 public:
  explicit AsyncSolver(SolverConfig config = SolverConfig()) : config_(std::move(config)) {}

  const SolverConfig& config() const { return config_; }
  SolverConfig& mutable_config() { return config_; }

  // One full solve (Figure 6, steps 2-3): snapshot broker + registry, run the
  // two phases, and persist the resulting targets to the broker. The persist
  // is all-or-nothing: a failed broker write rolls the batch back and the
  // error propagates with the broker unchanged.
  Result<SolveStats> SolveOnce(ResourceBroker& broker, const ReservationRegistry& registry,
                               const HardwareCatalog& catalog,
                               SolveMode mode = SolveMode::kFullTwoPhase);

  // Lower-level entry point over a prepared snapshot; used by benches that
  // need the input held fixed. Fills `targets` instead of writing the broker.
  Result<SolveStats> SolveSnapshot(const SolveInput& input, DecodedAssignment* decoded,
                                   SolveMode mode = SolveMode::kFullTwoPhase);

  // Fault-injection hook, consulted at the top of every SolveSnapshot with
  // the mode about to run. A non-OK return aborts the solve with that status
  // — how the fault library simulates solver timeouts and crashes without
  // touching solver internals.
  using FaultHook = std::function<Status(SolveMode)>;
  void SetFaultHook(FaultHook hook) { fault_hook_ = std::move(hook); }

  // Drops every cached per-phase resolve entry — the monolithic cache and
  // every per-shard cache — so the next round cold-starts.
  // Called internally on every path that breaks round-over-round continuity
  // (degraded solve modes, injected faults, failed broker writes); exposed so
  // the supervisor and recovery drills can force the same on external
  // evidence of divergence.
  void InvalidateResolveCache();

  const ResolveCache& resolve_cache() const { return resolve_cache_; }

 private:
  // Shard-decomposed solve (src/shard, POP-style): plan -> split -> per-shard
  // SolveMonolithic on the thread pool, each with its own shard's cache ->
  // merge in shard order -> stitch repair. Entered from SolveSnapshot when
  // the configured shard count resolves to K > 1.
  SolveStats SolveSharded(const SolveInput& input, DecodedAssignment* decoded_out,
                          SolveMode mode, int shard_count);
  // The unsharded two-phase (or degraded-mode) pipeline over `cache`. Records
  // no per-solve metrics: SolveSnapshot does, once per top-level solve. Const,
  // so concurrent shard solves share nothing but their read-only config.
  SolveStats SolveMonolithic(const SolveInput& input, DecodedAssignment* decoded_out,
                             SolveMode mode, ResolveCache& cache) const;

  // Runs one phase over the given classes; returns the decoded assignment.
  struct PhaseOutcome {
    PhaseStats stats;
    DecodedAssignment decoded;
  };
  // `phase` selects the slot of `cache` (1 or 2); 0 disables caching for this
  // call (degraded modes must not leave warm state behind).
  PhaseOutcome RunPhase(ResolveCache& cache, const SolveInput& input,
                        const std::vector<EquivalenceClass>& classes, bool include_rack_spread,
                        const std::vector<int>& subset, const MipOptions& mip_options,
                        double snapshot_seconds, int phase) const;

  SolverConfig config_;
  FaultHook fault_hook_;

  // Cross-round warm state (Figure 8: the build and root-LP steps this
  // avoids repaying every round), one entry per phase.
  ResolveCache resolve_cache_;

  // One cache per shard index, kept across rounds so warm state follows the
  // shard it belongs to (incumbent affinity). Reset whenever the plan
  // signature below changes.
  std::vector<ResolveCache> shard_caches_;
  int shard_plan_count_ = 0;
  uint64_t shard_plan_seed_ = 0;
  const RegionTopology* shard_plan_topology_ = nullptr;
  size_t shard_plan_servers_ = 0;
};

}  // namespace ras

#endif  // RAS_SRC_CORE_ASYNC_SOLVER_H_
