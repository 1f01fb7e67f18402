// Branch-and-bound mixed-integer solver on top of the bounded simplex.
//
// Features used by RAS (Section 3.5): warm starting from a known feasible
// assignment (the "initial state" step), a hard time limit with best-incumbent
// return (the paper's phase-1 timeout), and reporting of the remaining
// optimality gap (Figure 9 measures solution quality in units of the model's
// move / constraint-fix costs).
//
// The time limit is one absolute deadline, checked between nodes and, every
// 16 pivots, inside each node LP, so a root LP larger than the budget is cut
// off rather than overrunning it; the search then returns the warm start (or
// the best incumbent since), and the cut-off node prices the bound by its
// parent's.
//
// The search is a single-threaded depth-first loop, so the same model, warm
// start and options give a bitwise-identical result on every run.

#ifndef RAS_SRC_SOLVER_MIP_H_
#define RAS_SRC_SOLVER_MIP_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/solver/model.h"
#include "src/solver/simplex.h"

namespace ras {

enum class MipStatus {
  kOptimal,          // Incumbent proven optimal within gap tolerances.
  kFeasible,         // Incumbent found but search stopped early (time/nodes).
  kInfeasible,       // No integer-feasible point exists.
  kUnbounded,
  kNoSolutionFound,  // Search stopped early with no incumbent.
  kError,
};

const char* MipStatusName(MipStatus status);

// Problem-specific primal heuristic: turn a (fractional) LP point into a
// feasible integer candidate. Return false if no candidate was produced.
// The caller validates feasibility and objective before accepting it.
using MipHeuristic =
    std::function<bool(const Model& model, const std::vector<double>& lp_x,
                       std::vector<double>* candidate)>;

struct MipOptions {
  double time_limit_seconds = 120.0;
  int64_t max_nodes = 200000;
  double integrality_tol = 1e-6;
  double absolute_gap = 1e-6;
  double relative_gap = 1e-6;
  // When set, used instead of the built-in generic fix-and-solve rounding.
  // RAS installs an LP-guided greedy that understands the assignment
  // structure (src/core/lp_rounding).
  MipHeuristic heuristic;
};

struct MipResult {
  MipStatus status = MipStatus::kError;
  std::vector<double> x;      // Best incumbent (empty if none).
  double objective = 0.0;     // Incumbent objective.
  double best_bound = 0.0;    // Proven lower bound on the optimum.
  int64_t nodes = 0;
  // Simplex iterations summed over every node LP.
  int64_t lp_iterations = 0;
  double solve_seconds = 0.0;
  bool hit_time_limit = false;
  // Solver-layer re-optimization telemetry summed over every node LP: warm
  // resolves served by the dual simplex kernel and the dual pivots they took.
  int64_t dual_resolves = 0;
  int64_t lp_dual_iterations = 0;

  double gap() const { return objective - best_bound; }
};

class MipSolver {
 public:
  explicit MipSolver(const MipOptions& options = MipOptions()) : options_(options) {}

  // `warm_start`, if provided and feasible for `model`, seeds the incumbent;
  // infeasible warm starts are ignored. `root_start`, if provided, is the
  // root LP's start point (SimplexSolver::Solve's `start`; only which columns
  // sit at their upper bound matters). RAS passes the region's current
  // assignment, where every held class starts at its count. Node LPs re-solve
  // from their parent's basis either way.
  MipResult Solve(const Model& model, const std::vector<double>* warm_start = nullptr,
                  const std::vector<double>* root_start = nullptr);

 private:
  MipResult Search(const Model& model, const std::vector<double>* warm_start,
                   const std::vector<double>* root_start);

  MipOptions options_;
};

}  // namespace ras

#endif  // RAS_SRC_SOLVER_MIP_H_
