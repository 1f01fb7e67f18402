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
// The initial state runs on the solver's pool while the MIP's search runs
// on the calling thread; the initial-state timing is what the phase then
// still waits for it.

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
#include "src/core/solve_stats.h"
#include "src/shard/shard_planner.h"
#include "src/solver/mip.h"
#include "src/util/thread_pool.h"

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

// The initial-state step of a phase (Figure 8): the greedy spread-aware
// assignment polished by the local-search descent, run to a local optimum of
// its move set or to LocalSearchOptions' default cap. It seeds the MIP's
// incumbent. A pure function of its
// arguments, so RunPhase runs it on a pool worker beside the search.
std::vector<double> MakePhaseStart(const SolveInput& input,
                                   const std::vector<EquivalenceClass>& classes,
                                   const BuiltModel& built);

// The root LP's start: the region's current assignment, every pair at its
// count X.
std::vector<double> MakeRootStart(const SolveInput& input,
                                  const std::vector<EquivalenceClass>& classes,
                                  const BuiltModel& built);

// The MIP step of a phase: branch-and-bound over `built` with the LP-guided
// rounding heuristic (src/core/lp_rounding) installed, its root LP started
// from MakeRootStart. `warm_start` is asked for the phase start only after
// the search (MipSolver::WarmStartSource), so it may still be computing.
MipResult SolvePhaseMip(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                        const BuiltModel& built, const MipOptions& mip_options,
                        const MipSolver::WarmStartSource& warm_start);
// The same with the start in hand.
MipResult SolvePhaseMip(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                        const BuiltModel& built, const MipOptions& mip_options,
                        const std::vector<double>& warm_start);

class AsyncSolver {
 public:
  // Starts the solver's pool: one worker fewer than the CPUs the process may
  // run on (UsableCpus, at least one worker); the solving thread is the last.
  explicit AsyncSolver(SolverConfig config = SolverConfig());

  // Fixed for the solver's life: the cached phase-1 model carries the costs
  // it was laid out with.
  const SolverConfig& config() const { return config_; }

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

  // The pool every solve runs its parallel steps on as claimable tasks: the
  // shard fan-out and each phase's start. A caller may run its own work on
  // it; while that work holds every worker, each solve step runs inline on
  // the solving thread, with the same answer.
  ThreadPool& pool() { return pool_; }

 private:
  // Shard-decomposed solve (src/shard, POP-style): plan -> split -> per-shard
  // SolveMonolithic on the pool, each with its own shard's cache -> join and
  // merge in shard order -> stitch repair. Entered from SolveSnapshot when
  // the configured shard count resolves to K > 1.
  SolveStats SolveSharded(const SolveInput& input, DecodedAssignment* decoded_out,
                          SolveMode mode, int shard_count);
  // The unsharded two-phase (or degraded-mode) pipeline over `cache`. Records
  // no per-solve metrics: SolveSnapshot does, once per top-level solve. Const,
  // so concurrent shard solves share nothing but their read-only config and
  // the thread-safe pool.
  SolveStats SolveMonolithic(const SolveInput& input, DecodedAssignment* decoded_out,
                             SolveMode mode, ResolveCache& cache) const;

  // Runs one phase over the given classes; returns the decoded assignment.
  struct PhaseOutcome {
    PhaseStats stats;
    DecodedAssignment decoded;
  };
  // `cache` is phase 1's in a full round, whose model SetRoundBounds may
  // re-bound and which the phase refills; null builds and keeps nothing
  // (phase 2, and degraded modes, which leave the cache as it was).
  PhaseOutcome RunPhase(ResolveCache* cache, const SolveInput& input,
                        const std::vector<EquivalenceClass>& classes, bool include_rack_spread,
                        const std::vector<int>& subset, const MipOptions& mip_options,
                        double snapshot_seconds) const;

  const SolverConfig config_;
  FaultHook fault_hook_;

  // Cross-round warm state (Figure 8: the steps this avoids repaying every
  // round), keyed on content: a miss costs time, never an answer, so no
  // fault path clears it (src/core/resolve_cache.h).
  ResolveCache resolve_cache_;

  // One cache per shard index, kept across rounds so warm state follows the
  // shard it belongs to (incumbent affinity).
  std::vector<ResolveCache> shard_caches_;

  // The shard plan, keyed on what PlanShards reads (src/shard/shard_planner.h).
  ShardPlanCache plan_cache_;

  // Lives as long as the solver, so no round pays for thread start-up. The
  // solving thread joins what it submits and runs what no worker claimed, so
  // it is the last of the usable CPUs. Mutable because const shard
  // solves submit their phase starts to it.
  mutable ThreadPool pool_;
};

}  // namespace ras

#endif  // RAS_SRC_CORE_ASYNC_SOLVER_H_
