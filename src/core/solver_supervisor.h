// Solver supervision for the continuous solve loop.
//
// The paper's stance (Section 5.4) is that region-wide re-optimization runs
// off the critical path and the system must stay safe when the solver is
// slow, wrong, or down: work limits bound each solve, the greedy incumbent is
// what ships when the search stops early, and the out-of-band emergency path
// is "the back-up when the Async Solver is unavailable". The SolverSupervisor
// packages that posture into one component wrapped around AsyncSolver:
//
//   - deadline enforcement on every attempt, the one wall clock acting on a
//     solve: it discards a late answer but never shapes one;
//   - bounded retry with exponential backoff + jitter, in *simulated* time
//     (driven through the EventLoop — no wall-clock sleeps anywhere);
//   - snapshot validation before a solve and a broker-generation check
//     before its result may be persisted;
//   - a graceful-degradation ladder, descended within a round:
//
//       full two-phase MIP
//         -> phase-1-only MIP
//           -> incumbent: phase 1's start, no search
//             -> keep the last-good assignment (no writes)
//               -> declare the solver unhealthy and arm the
//                  GrantImmediateCapacity emergency path.
//
// Every round's outcome is recorded in SupervisorStats so tests and benches
// can assert exactly which rung served, how many retries it took, and how
// long recovery to a full solve took once faults cleared.

#ifndef RAS_SRC_CORE_SOLVER_SUPERVISOR_H_
#define RAS_SRC_CORE_SOLVER_SUPERVISOR_H_

#include <cstdint>
#include <vector>

#include "src/core/async_solver.h"
#include "src/core/emergency.h"
#include "src/faults/fault_injector.h"
#include "src/obs/round_report.h"
#include "src/sim/event_loop.h"
#include "src/util/rng.h"

namespace ras {

// The degradation ladder, best rung first. Rungs at or above kIncumbent
// produce and persist a fresh assignment; kLastGood and kEmergency keep
// serving placements from whatever the broker already holds.
enum class LadderRung : uint8_t {
  kFullTwoPhase = 0,
  kPhase1Only,
  kIncumbent,
  kLastGood,
  kEmergency,
};

inline constexpr int kNumLadderRungs = 5;

const char* LadderRungName(LadderRung rung);

// True for rungs that produced (and persisted) a fresh assignment.
inline bool ProducedAssignment(LadderRung rung) {
  return static_cast<uint8_t>(rung) <= static_cast<uint8_t>(LadderRung::kIncumbent);
}

// Pluggable persistence barrier for solver results. The default path is a
// bare broker ApplyTargets; a durable control plane (src/journal) implements
// this to journal the batch as an intent record before the broker sees a
// write, so a crash mid-apply is redone at recovery instead of lost.
class TargetPersistence {
 public:
  virtual ~TargetPersistence() = default;
  virtual Status PersistTargets(ResourceBroker& broker,
                                const std::vector<std::pair<ServerId, ReservationId>>& targets) = 0;
};

struct SupervisorConfig {
  // Extra attempts at the full-two-phase rung before degrading. Retries are
  // the cheapest rung of the ladder: the same solve, just later.
  int max_retries = 2;
  // Exponential backoff between retries, in simulated time.
  SimDuration backoff_initial = Seconds(30);
  double backoff_multiplier = 2.0;
  SimDuration backoff_max = Minutes(8);
  // +/- fraction of the delay, drawn from the supervisor's seeded stream.
  // Deterministic: same seed, same jitter sequence.
  double backoff_jitter = 0.25;
  // Wall-clock budget for one solve attempt. A result that took longer is
  // treated as DEADLINE_EXCEEDED and discarded — a solve that overshoots its
  // window is as useless as one that never returned.
  double solve_deadline_seconds = 120.0;
  // Consecutive rounds without a fresh assignment before the solver is
  // declared unhealthy and the emergency path is armed.
  int unhealthy_after_failures = 3;
  uint64_t seed = 0x5EED5;
};

struct RoundOutcome {
  int round = 0;
  SimTime time{0};
  LadderRung rung = LadderRung::kFullTwoPhase;
  int retries = 0;
  // Why the round degraded (OK when the full two-phase solve succeeded).
  Status error;
  bool emergency_armed = false;
};

// Builds the operator-facing per-round report (src/obs) from a round's
// outcome record and the serving solve's stats. `record` supplies identity,
// rung, and error; `stats` supplies solve shape (pass the SupervisedRound's
// stats, zeroed for rungs that kept the previous assignment).
obs::RoundReport MakeRoundReport(const RoundOutcome& record, const SolveStats& stats);

struct SupervisorStats {
  std::vector<RoundOutcome> rounds;
  size_t rung_counts[kNumLadderRungs] = {};
  size_t total_retries = 0;
  // Failed solve attempts across all rungs (one round can contribute several).
  size_t failed_attempts = 0;
  // Rounds, including the current streak, that produced no fresh assignment.
  size_t consecutive_failed_rounds = 0;
  size_t snapshots_rejected = 0;  // Validation failures (corruption).
  size_t stale_snapshots = 0;     // Generation moved mid-solve.
  size_t persist_failures = 0;    // Broker write batches rolled back.
  // Simulated instant the solver was declared unhealthy; negative = healthy.
  SimTime unhealthy_since{-1};
  // Unhealthy-to-recovered durations, one per completed outage.
  std::vector<SimDuration> recovery_times;

  size_t RungCount(LadderRung rung) const { return rung_counts[static_cast<int>(rung)]; }
};

// What one supervised round produced.
struct SupervisedRound {
  LadderRung rung = LadderRung::kFullTwoPhase;
  // Meaningful when ProducedAssignment(rung); zeroed otherwise.
  SolveStats stats;
  int retries = 0;
  // The failure that forced degradation; OK at the top rung.
  Status error;
};

class SolverSupervisor {
 public:
  // `loop` drives sim-time backoff; pass nullptr to retry without delays
  // (solver-only setups with no clock). `registry` and `catalog` must outlive
  // the supervisor.
  SolverSupervisor(AsyncSolver* solver, ResourceBroker* broker,
                   const ReservationRegistry* registry, const HardwareCatalog* catalog,
                   EventLoop* loop, SupervisorConfig config = SupervisorConfig());
  ~SolverSupervisor();

  SolverSupervisor(const SolverSupervisor&) = delete;
  SolverSupervisor& operator=(const SolverSupervisor&) = delete;

  // Installs (or clears, with nullptr) the fault injector. The supervisor
  // wires it into the solver's fault hook and the broker's write-fault hook;
  // it does not take ownership.
  void SetFaultInjector(FaultInjector* injector);

  // Routes successful solve results through `persistence` instead of a bare
  // broker ApplyTargets (nullptr restores the default). Not owned.
  void SetTargetPersistence(TargetPersistence* persistence) { persistence_ = persistence; }

  // One supervised solver round: walk the ladder until a rung serves. Must be
  // called from outside EventLoop callbacks (backoff re-enters the loop).
  // Never "fails" — the bottom rungs always serve — but the outcome records
  // which rung did and why.
  SupervisedRound RunRound();

  // Urgent out-of-band capacity (Section 5.4). Only available while the
  // solver is unhealthy — the healthy path is a capacity request plus the
  // next solve; returns FAILED_PRECONDITION then.
  Result<EmergencyGrant> RequestUrgentCapacity(ReservationId reservation, size_t count);

  bool solver_healthy() const { return stats_.unhealthy_since.seconds < 0; }
  bool emergency_armed() const { return emergency_armed_; }
  const SupervisorStats& stats() const { return stats_; }
  // Target set from the most recent successful persist (snapshot order).
  const std::vector<std::pair<ServerId, ReservationId>>& last_good_targets() const {
    return last_good_targets_;
  }

 private:
  // One attempt: snapshot -> validate -> solve(mode) -> deadline check ->
  // staleness check -> atomic persist. OK iff the broker holds the fresh
  // assignment afterwards. A failure after the solve ran (deadline, stale
  // snapshot, persist rollback) leaves the solver's warm state alone: it is
  // keyed on the snapshot, so a retry on the same snapshot replays exactly
  // what a cold solve would compute, and any other snapshot misses.
  Status AttemptSolve(SolveMode mode, SolveStats* stats);
  // Backoff before retry `attempt` (0-based), advancing simulated time.
  void Backoff(int attempt);
  SimTime now() const;

  AsyncSolver* solver_;
  ResourceBroker* broker_;
  const ReservationRegistry* registry_;
  const HardwareCatalog* catalog_;
  EventLoop* loop_;
  SupervisorConfig config_;
  FaultInjector* injector_ = nullptr;
  TargetPersistence* persistence_ = nullptr;
  Rng rng_;
  int next_round_ = 0;
  bool emergency_armed_ = false;
  SupervisorStats stats_;
  std::vector<std::pair<ServerId, ReservationId>> last_good_targets_;
};

}  // namespace ras

#endif  // RAS_SRC_CORE_SOLVER_SUPERVISOR_H_
