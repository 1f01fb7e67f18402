// Cross-round resolve cache: the warm state the Async Solver carries from one
// round to the next, under two reuse rules.
//
// Round memo. In kFullTwoPhase, a snapshot equal to the cached round's
// (SolveInput::operator==: same region objects, field-for-field the same
// reservations and servers) replays that round's final targets and stats.
// The cold pipeline is deterministic, so a re-solve would recompute exactly
// them; the memo builds no classes and runs no phase. It is stored only when
// every phase that ran returned a usable MIP status.
//
// Phase-1 patch. Phase 1 keeps its BuiltModel, and the next round hands it to
// SetRoundBounds, which re-bounds it in place when the layout it records fits
// the round and refuses otherwise; the round then builds. Phase 2 always
// builds: its subset and rack classes follow phase 1's targets. Every solve
// that does run is the cold branch-and-bound, so incremental and cold rounds
// produce identical targets.
//
// Lifetime rules (see DESIGN.md "Incremental re-solve"): the cache lives
// inside an AsyncSolver and survives exactly as long as consecutive healthy
// kFullTwoPhase rounds. Degraded supervisor rungs, faults, broker write
// rollbacks, and durable-control-plane recovery all invalidate it, so every
// recovery path cold-starts. A sharded solve keeps one cache per shard in
// the same AsyncSolver, so each shard carries its own warm state.

#ifndef RAS_SRC_CORE_RESOLVE_CACHE_H_
#define RAS_SRC_CORE_RESOLVE_CACHE_H_

#include <utility>
#include <vector>

#include "src/core/model_builder.h"
#include "src/core/solve_input.h"
#include "src/core/solve_stats.h"

namespace ras {

struct ResolveCache {
  // True once a phase 1 returned a usable status; `input` is that round's
  // snapshot and `phase1` its model.
  bool valid = false;
  SolveInput input;
  BuiltModel phase1;

  // The round memo, set when every phase of that round returned a usable
  // status: the round's final targets and stats.
  bool memo_valid = false;
  std::vector<std::pair<ServerId, ReservationId>> targets;
  SolveStats stats;

  // Drops everything: the next round is cold.
  void Invalidate() { *this = ResolveCache(); }

  bool empty() const { return !valid; }
};

}  // namespace ras

#endif  // RAS_SRC_CORE_RESOLVE_CACHE_H_
