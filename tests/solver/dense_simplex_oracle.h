// Dense reference simplex: the differential oracle for the production LP
// kernel (src/solver/simplex.h).
//
// Same algorithm family as SimplexSolver — a bounded-variable primal simplex
// over the slack-augmented model with a composite phase 1 — written for
// obviousness rather than speed: an explicit dense m x m basis inverse
// rebuilt by Gauss–Jordan elimination, product-form row updates, full
// Dantzig pricing every iteration with a Bland fallback, a fixed
// refactorization cadence, and no warm start. It shares no
// kernel code with the sparse LU path, so agreement on status and objective
// is independent evidence that both are right.

#ifndef RAS_TESTS_SOLVER_DENSE_SIMPLEX_ORACLE_H_
#define RAS_TESTS_SOLVER_DENSE_SIMPLEX_ORACLE_H_

#include <vector>

#include "src/solver/model.h"
#include "src/solver/simplex.h"

namespace ras {

// Cold solve of `model` under `overrides`. Fills status, x, objective,
// iterations and duals; the kernel counters stay zero.
LpResult SolveDenseReference(const Model& model,
                             const std::vector<BoundOverride>& overrides = {});

}  // namespace ras

#endif  // RAS_TESTS_SOLVER_DENSE_SIMPLEX_ORACLE_H_
