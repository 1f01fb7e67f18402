// Cross-round resolve cache: the warm state the Async Solver carries from one
// round to the next, keyed only on content.
//
// Round memo. In kFullTwoPhase, a snapshot equal to the cached round's
// (SolveInput::operator==: same region objects, field-for-field the same
// reservations and servers) replays that round's final targets and stats.
// The cold pipeline is a pure function of the snapshot (every solver loop
// stops on work counts), so a re-solve would recompute exactly them,
// whatever MIP status they came with; the memo builds no classes and runs no
// phase.
//
// Phase-1 patch. Phase 1 keeps its BuiltModel, and the next round hands it to
// SetRoundBounds, which re-bounds it in place when the layout it records fits
// the round and refuses otherwise; the round then builds. Phase 2 always
// builds: its subset and rack classes follow phase 1's targets. Every solve
// that does run is the cold branch-and-bound, so incremental and cold rounds
// produce identical targets.
//
// No lifetime rules (see DESIGN.md "Incremental re-solve"): every full round
// overwrites the cache, and nothing else clears it. An entry describing a
// round that was never applied (a failed persist, a stale snapshot, a missed
// deadline) or that a degraded rung followed can only miss or replay what a
// cold solve would compute. The cache lives inside an AsyncSolver and is
// private to it; a sharded solve keeps one per shard index.

#ifndef RAS_SRC_CORE_RESOLVE_CACHE_H_
#define RAS_SRC_CORE_RESOLVE_CACHE_H_

#include <utility>
#include <vector>

#include "src/core/model_builder.h"
#include "src/core/solve_input.h"
#include "src/core/solve_stats.h"

namespace ras {

struct ResolveCache {
  // True once a full round ran: `input` is its snapshot, `phase1` its phase-1
  // model, and `targets` and `stats` its final targets and stats.
  bool valid = false;
  SolveInput input;
  BuiltModel phase1;
  std::vector<std::pair<ServerId, ReservationId>> targets;
  SolveStats stats;
};

}  // namespace ras

#endif  // RAS_SRC_CORE_RESOLVE_CACHE_H_
