// Fault plans: declarative, deterministic descriptions of which faults fire
// when, for chaos testing the continuous solve loop.
//
// A plan is a list of rules. Each rule names a fault kind and a window —
// solver rounds and/or simulated time — inside which the fault fires with a
// given probability per query. All randomness is derived from the plan seed
// and the (round, kind, query-index) triple, so two runs of the same plan
// observe the exact same fault sequence regardless of what else draws random
// numbers.

#ifndef RAS_SRC_FAULTS_FAULT_PLAN_H_
#define RAS_SRC_FAULTS_FAULT_PLAN_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/sim_time.h"

namespace ras {

enum class FaultKind : uint8_t {
  // The MIP search overruns the supervisor's solve deadline; the attempt
  // yields DEADLINE_EXCEEDED and no assignment.
  kSolverTimeout = 0,
  // The solver process dies mid-solve; the attempt yields INTERNAL.
  kSolverCrash,
  // The snapshot read from the broker arrives mangled (bit flips, torn
  // reads); snapshot validation must reject it before any solve runs.
  kSnapshotCorruption,
  // The broker is mutated out-of-band while the solve is in flight, so the
  // solution was computed against a stale world and must not be persisted.
  kSnapshotStale,
  // A target write to the broker fails (replica quorum loss); a batch of
  // target writes must be rolled back, never half-applied.
  kBrokerWriteFailure,
};

inline constexpr int kNumFaultKinds = 5;

const char* FaultKindName(FaultKind kind);

struct FaultRule {
  FaultKind kind = FaultKind::kSolverCrash;
  // Solver-round window, inclusive on both ends. Rounds count from 0.
  int first_round = 0;
  int last_round = std::numeric_limits<int>::max();
  // Simulated-time window, inclusive; the default spans all of time.
  SimTime not_before{0};
  SimTime not_after{std::numeric_limits<int64_t>::max()};
  // Chance the fault fires for one query inside the window. 1.0 = always.
  double probability = 1.0;
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  uint64_t seed = 0xFA017;

  bool empty() const { return rules.empty(); }

  FaultPlan& Add(FaultRule rule) {
    rules.push_back(rule);
    return *this;
  }

  // A burst: `kind` fires unconditionally for `rounds` consecutive solver
  // rounds starting at `first_round` — the repeated-failure pattern that
  // drives the supervisor to declare the solver unhealthy.
  FaultPlan& AddBurst(FaultKind kind, int first_round, int rounds, double probability = 1.0) {
    FaultRule rule;
    rule.kind = kind;
    rule.first_round = first_round;
    rule.last_round = first_round + rounds - 1;
    rule.probability = probability;
    return Add(rule);
  }
};

}  // namespace ras

#endif  // RAS_SRC_FAULTS_FAULT_PLAN_H_
