// Cross-round resolve cache: the warm state the Async Solver carries from one
// round to the next.
//
// Each entry — one per phase — remembers the previous round's
// snapshot, equivalence classes, built model, incumbent assignment counts,
// proven bound, and MIP status. The cache does exactly two things. When the
// next round's RoundDelta against the cached snapshot leaves the model
// structure intact (RoundDelta::patchable), it re-targets the cached model in
// place (SetRoundBounds, the same bound pass every fresh build ends with)
// instead of rebuilding it. When the delta is also empty, it skips the solve
// and returns the cached incumbent. Every solve that does run is the cold
// branch-and-bound, so incremental and cold rounds produce identical targets.
//
// Lifetime rules (see DESIGN.md "Incremental re-solve"): the cache lives
// inside an AsyncSolver and survives exactly as long as consecutive healthy
// kFullTwoPhase rounds. Degraded supervisor rungs, faults, broker write
// rollbacks, and durable-control-plane recovery all invalidate it, so every
// recovery path cold-starts. A sharded solve keeps one cache per shard in
// the same AsyncSolver, so each shard carries its own warm state.

#ifndef RAS_SRC_CORE_RESOLVE_CACHE_H_
#define RAS_SRC_CORE_RESOLVE_CACHE_H_

#include <vector>

#include "src/core/model_builder.h"
#include "src/core/round_delta.h"
#include "src/core/solve_input.h"

namespace ras {

struct ResolveEntry {
  bool valid = false;
  // The round this entry was produced by.
  SolveInput input;
  std::vector<EquivalenceClass> classes;
  // The built (and since patched-forward) model for that round's structure.
  BuiltModel built;
  bool include_rack_spread = false;
  std::vector<int> subset;
  // Final incumbent as assignment counts (aligned with
  // built.assignment_vars), the best proven bound, and how the producing
  // solve terminated (kOptimal vs node-limited kFeasible — a
  // skipped round must report the cached round's true status, not invent an
  // optimality proof).
  std::vector<double> counts;
  double best_bound = 0.0;
  MipStatus mip_status = MipStatus::kError;
};

class ResolveCache {
 public:
  // Entry for phase 1 or 2; invalid until a round fills it.
  ResolveEntry& entry(int phase) { return entries_[phase - 1]; }

  // Drops both entries: the next round of either phase is cold.
  void Invalidate() {
    for (ResolveEntry& e : entries_) {
      e = ResolveEntry();
    }
  }

  // True when neither phase holds a cached round.
  bool empty() const { return !entries_[0].valid && !entries_[1].valid; }

 private:
  ResolveEntry entries_[2];
};

}  // namespace ras

#endif  // RAS_SRC_CORE_RESOLVE_CACHE_H_
