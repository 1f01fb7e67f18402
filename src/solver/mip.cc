#include "src/solver/mip.h"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.h"
#include "src/util/monotonic_time.h"

namespace ras {

const char* MipStatusName(MipStatus status) {
  switch (status) {
    case MipStatus::kOptimal:
      return "OPTIMAL";
    case MipStatus::kFeasible:
      return "FEASIBLE";
    case MipStatus::kInfeasible:
      return "INFEASIBLE";
    case MipStatus::kUnbounded:
      return "UNBOUNDED";
    case MipStatus::kNoSolutionFound:
      return "NO_SOLUTION_FOUND";
    case MipStatus::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

namespace {

struct Node {
  std::vector<BoundOverride> overrides;
  double parent_bound;  // LP objective of the parent; used for best-bound pruning.
  int depth;
};

// Picks the integer variable whose LP value is farthest from integral.
int32_t MostFractional(const Model& model, const std::vector<double>& x, double tol) {
  int32_t best = -1;
  double best_frac = tol;
  for (size_t j = 0; j < model.num_variables(); ++j) {
    if (!model.variable(j).is_integer) {
      continue;
    }
    double frac = std::fabs(x[j] - std::round(x[j]));
    if (frac > best_frac) {
      best_frac = frac;
      best = static_cast<int32_t>(j);
    }
  }
  return best;
}

// Applies node overrides on top of model bounds for one variable.
void EffectiveBounds(const Model& model, const std::vector<BoundOverride>& overrides, VarId var,
                     double* lb, double* ub) {
  *lb = model.variable(var).lb;
  *ub = model.variable(var).ub;
  for (const BoundOverride& o : overrides) {
    if (o.var == var) {
      *lb = o.lb;
      *ub = o.ub;
    }
  }
}

}  // namespace

MipResult MipSolver::Solve(const Model& model, const std::vector<double>* warm_start,
                           const std::vector<double>* root_start) {
  const double start = util::MonotonicSeconds();
  MipResult result = Search(model, warm_start, root_start);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  static obs::Counter& solves = reg.counter("ras_mip_solves_total", "Branch-and-bound runs.");
  static obs::Counter& nodes =
      reg.counter("ras_mip_nodes_total", "Nodes explored across branch-and-bound runs.");
  static obs::Counter& lp_iterations =
      reg.counter("ras_mip_lp_iterations_total", "Simplex iterations summed over node LPs.");
  // The name predates the work limit; the region-round benchmark reads it.
  static obs::Counter& work_limit = reg.counter("ras_mip_time_limit_hits_total",
                                                "Searches stopped by their LP work limit.");
  static obs::Counter& dual_resolves = reg.counter(
      "ras_mip_dual_resolves_total", "Node LPs re-optimized by the dual simplex kernel.");
  static obs::Histogram& seconds =
      reg.histogram("ras_mip_solve_seconds", "Wall time of one branch-and-bound run.", 0.0, 30.0,
                    120);
  solves.Add();
  nodes.Add(result.nodes);
  lp_iterations.Add(result.lp_iterations);
  dual_resolves.Add(result.dual_resolves);
  if (result.hit_work_limit) {
    work_limit.Add();
  }
  seconds.Observe(util::MonotonicSeconds() - start);
  return result;
}

MipResult MipSolver::Search(const Model& model, const std::vector<double>* warm_start,
                            const std::vector<double>* root_start) {
  MipResult result;
  bool unbounded = false;
  bool have_incumbent = false;
  std::vector<double> incumbent;
  double incumbent_obj = kInf;
  double root_bound = -kInf;  // Root LP objective once solved.
  auto install = [&](std::vector<double> x, double obj) {
    incumbent = std::move(x);
    incumbent_obj = obj;
    have_incumbent = true;
  };
  if (warm_start != nullptr && model.IsFeasible(*warm_start, options_.integrality_tol * 10)) {
    install(*warm_start, model.Objective(*warm_start));
  }

  // Depth-first: children of the most recent node are explored first (good
  // for finding incumbents fast), while `parent_bound` prunes against the
  // incumbent. The root node has no overrides.
  std::vector<Node> open;
  open.push_back(Node{{}, -kInf, 0});
  // Children differ from their parent by one bound, so each node LP re-solves
  // from the basis the previous node left; with no valid basis (after an
  // infeasible node) it solves cold. The root solves cold from `root_start`.
  // One pivot budget, derived from the model's width, covers every node LP.
  const auto width = static_cast<int64_t>(model.num_rows() + model.num_variables());
  SimplexSolver lp_solver(LpOptions(), options_.max_lp_work / std::max<int64_t>(1, width));
  // Nodes dropped unsolved (numerical failure) may hide better points: the
  // lowest parent LP value among them stays in the bound (kInf while there
  // are none).
  double dropped_bound = kInf;

  while (!open.empty() && !unbounded && result.nodes < options_.max_nodes) {
    Node node = std::move(open.back());
    open.pop_back();

    // Prune by parent bound before paying for an LP solve.
    if (have_incumbent && node.parent_bound > incumbent_obj - options_.absolute_gap) {
      continue;
    }
    const int64_t node_id = ++result.nodes;

    LpResult lp = node.depth == 0 ? lp_solver.Solve(model, node.overrides, root_start)
                                  : lp_solver.ResolveWithBasis(model, node.overrides);
    result.lp_iterations += lp.iterations;
    result.lp_dual_iterations += lp.dual_iterations;
    if (lp.used_dual_simplex) {
      ++result.dual_resolves;
    }
    if (lp.status == LpStatus::kUnbounded) {
      unbounded = true;
    }
    if (lp.status == LpStatus::kIterationLimit) {
      // Out of pivots mid-LP: requeue the node so its parent bound prices the
      // bound, and stop.
      result.hit_work_limit = true;
      open.push_back(std::move(node));
      break;
    }
    if (lp.status == LpStatus::kOptimal && node.depth == 0) {
      root_bound = lp.objective;
    }
    if (lp.status == LpStatus::kNumericalFailure) {
      dropped_bound = std::min(dropped_bound, node.parent_bound);
    }
    // Non-optimal nodes are dropped: the incumbent stays valid, and an
    // unsolved node's parent bound stays in the bound. Optimal nodes are
    // bound-pruned against the incumbent.
    if (lp.status != LpStatus::kOptimal ||
        (have_incumbent && lp.objective > incumbent_obj - options_.absolute_gap)) {
      continue;
    }
    const int32_t branch_var = MostFractional(model, lp.x, options_.integrality_tol);
    if (branch_var < 0) {
      // Integer feasible: snap the integers exactly.
      if (!have_incumbent || lp.objective < incumbent_obj) {
        for (size_t j = 0; j < model.num_variables(); ++j) {
          if (model.variable(j).is_integer) {
            lp.x[j] = std::round(lp.x[j]);
          }
        }
        const double obj = model.Objective(lp.x);
        install(std::move(lp.x), obj);
      }
      continue;
    }

    // The installed heuristic, at shallow depths and periodically deeper in
    // the tree: turns the fractional LP point into a feasible incumbent.
    if (options_.heuristic && (node.depth <= 2 || node_id % 16 == 0)) {
      std::vector<double> rounded;
      if (options_.heuristic(model, lp.x, &rounded) &&
          model.IsFeasible(rounded, options_.integrality_tol * 100)) {
        const double obj = model.Objective(rounded);
        if (!have_incumbent || obj < incumbent_obj) {
          install(std::move(rounded), obj);
        }
      }
    }

    const double lp_value = lp.x[branch_var];
    const double floor_val = std::floor(lp_value);
    double lb, ub;
    EffectiveBounds(model, node.overrides, branch_var, &lb, &ub);
    Node down{node.overrides, lp.objective, node.depth + 1};
    down.overrides.push_back(BoundOverride{branch_var, lb, floor_val});
    Node up{std::move(node.overrides), lp.objective, node.depth + 1};
    up.overrides.push_back(BoundOverride{branch_var, floor_val + 1.0, ub});
    // Explore the child nearest the LP value first (pushed last => popped
    // first).
    if (lp_value - floor_val > 0.5) {
      open.push_back(std::move(down));
      open.push_back(std::move(up));
    } else {
      open.push_back(std::move(up));
      open.push_back(std::move(down));
    }
  }

  // Derive the proven bound and the status. Queued nodes and nodes dropped
  // unsolved price the bound by their parent's LP value (a node that never
  // had one inherits the root bound), and the incumbent caps it.
  if (unbounded) {
    result.status = MipStatus::kUnbounded;
    result.best_bound = -kInf;
    return result;
  }
  const bool exhausted = open.empty() && dropped_bound == kInf;
  if (exhausted) {
    result.best_bound = have_incumbent ? incumbent_obj : kInf;
  } else {
    double open_bound = dropped_bound;
    for (const Node& n : open) {
      open_bound = std::min(open_bound, n.parent_bound);
    }
    if (open_bound == -kInf) {
      open_bound = root_bound;
    }
    result.best_bound = have_incumbent ? std::min(open_bound, incumbent_obj) : open_bound;
  }
  if (have_incumbent) {
    result.x = std::move(incumbent);
    result.objective = incumbent_obj;
    const double gap = result.objective - result.best_bound;
    const bool proven = exhausted || gap <= options_.absolute_gap ||
                        (std::fabs(result.objective) > 1 &&
                         gap / std::fabs(result.objective) <= options_.relative_gap);
    result.status = proven ? MipStatus::kOptimal : MipStatus::kFeasible;
    if (proven) {
      result.best_bound = result.objective;
    }
  } else if (exhausted) {
    result.status = MipStatus::kInfeasible;
  } else {
    result.status = MipStatus::kNoSolutionFound;
  }
  return result;
}

}  // namespace ras
