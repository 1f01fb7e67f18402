// Branch-and-bound mixed-integer solver on top of the bounded simplex.
//
// Features used by RAS (Section 3.5): warm starting from a known feasible
// assignment (the "initial state" step), a hard work limit with
// best-incumbent return (the paper's phase-1 timeout), and reporting of the
// remaining optimality gap (Figure 9 measures solution quality in units of
// the model's move / constraint-fix costs).
//
// The work limit is LP work, pivots x (rows + columns): one pivot budget,
// derived from the model's width, covers every node LP, so a root LP larger
// than the budget is cut off rather than overrunning it; the search then
// returns the better of its own incumbent and the warm start, and the cut-off
// node prices the bound by its parent's.
//
// The search is a single-threaded depth-first loop with no clock in it, so
// the same inputs give a bitwise-identical result on every run and host.

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
  kFeasible,         // Incumbent found but search stopped early (work/nodes).
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
  // LP work across all node LPs, in pivots x (rows + columns). One unit
  // cost 4.5-6.4 ns of search time on a 4-vCPU VM at 23k-503k columns.
  int64_t max_lp_work = 24'000'000'000;
  int64_t max_nodes = 200000;
  double absolute_gap = 1e-6;
  double relative_gap = 1e-6;
  // Run on the LP point of the shallow nodes and of every 16th node; unset
  // means no primal heuristic. RAS installs an LP-guided greedy that
  // understands the assignment structure (src/core/lp_rounding).
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
  // The search stopped because a node LP ran out of pivots.
  bool hit_work_limit = false;
  // Solver-layer re-optimization telemetry summed over every node LP: warm
  // resolves served by the dual simplex kernel and the dual pivots they took.
  int64_t dual_resolves = 0;
  int64_t lp_dual_iterations = 0;

  double gap() const { return objective - best_bound; }
};

class MipSolver {
 public:
  explicit MipSolver(const MipOptions& options = MipOptions()) : options_(options) {}

  // Supplies the warm start. Solve calls it exactly once, after the search
  // and before deriving the bound and status. The search never reads it, so
  // the caller may still be computing the start while the root LP and every
  // node LP run, and the result is the same as with the start in hand. A null
  // return means no warm start.
  using WarmStartSource = std::function<const std::vector<double>*()>;

  // `warm_start`, if provided and feasible for `model`, is the last incumbent
  // candidate: it replaces the search's incumbent only if its objective is
  // strictly lower, so the result is the better of the two and the search's
  // nodes, pivots and open bounds are those of a solve without it. Infeasible
  // warm starts are ignored. `root_start`, if provided, is the root LP's
  // start point (SimplexSolver::Solve's `start`: which columns sit
  // at their upper bound, and which strictly inside their bounds get crashed
  // into the basis). RAS passes the region's current assignment, where every
  // pair starts at its count X. Node LPs re-solve from their parent's basis
  // either way.
  MipResult Solve(const Model& model, const std::vector<double>* warm_start = nullptr,
                  const std::vector<double>* root_start = nullptr) {
    return Solve(model, [warm_start] { return warm_start; }, root_start);
  }
  MipResult Solve(const Model& model, const WarmStartSource& warm_start,
                  const std::vector<double>* root_start);

 private:
  MipResult Search(const Model& model, const WarmStartSource& warm_start,
                   const std::vector<double>* root_start);

  MipOptions options_;
};

}  // namespace ras

#endif  // RAS_SRC_SOLVER_MIP_H_
