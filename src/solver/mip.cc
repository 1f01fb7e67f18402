#include "src/solver/mip.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>

#include "src/obs/metrics.h"
#include "src/util/monotonic_time.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

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

// Fix-and-solve rounding heuristic: round every integer variable of an LP
// point to the nearest integer (within the node's bounds), fix them there,
// and re-solve the LP over the remaining continuous variables. In models
// whose hard constraints are softened by slack variables (like the RAS
// model), the restricted LP is almost always feasible, which turns nearly
// every fractional LP optimum into a genuine incumbent.
bool TryFixAndSolve(const Model& model, const std::vector<BoundOverride>& node_overrides,
                    const std::vector<double>& x_lp, SimplexSolver& lp_solver,
                    std::vector<double>* candidate) {
  const size_t n = model.num_variables();
  std::vector<double> lo(n), hi(n);
  for (size_t j = 0; j < n; ++j) {
    lo[j] = model.variable(j).lb;
    hi[j] = model.variable(j).ub;
  }
  for (const BoundOverride& o : node_overrides) {
    lo[static_cast<size_t>(o.var)] = o.lb;
    hi[static_cast<size_t>(o.var)] = o.ub;
  }
  std::vector<double> rounded_value(n);
  for (size_t j = 0; j < n; ++j) {
    rounded_value[j] = model.variable(j).is_integer
                           ? std::clamp(std::round(x_lp[j]), lo[j], hi[j])
                           : x_lp[j];
  }

  // Repair pass: nearest-rounding can push a row past its bound when several
  // fractional variables share it (e.g. two 0.5s on a tight supply row both
  // rounding up). Walk each violated row and undo the cheapest roundings —
  // the ones that moved least from the LP value — until the row fits again.
  for (size_t r = 0; r < model.num_rows(); ++r) {
    const ModelRow& row = model.row(r);
    double activity = 0.0;
    for (const RowEntry& e : model.row_entries(r)) {
      activity += e.coeff * rounded_value[e.var];
    }
    for (int direction = 0; direction < 2; ++direction) {
      bool over = direction == 0;
      while (over ? activity > row.ub + 1e-9 : activity < row.lb - 1e-9) {
        // Find the integer var whose unit step toward the LP value best
        // reduces the violation, breaking ties by smallest rounding delta.
        VarId best = -1;
        double best_tie = kInf;
        int best_step = 0;
        for (const RowEntry& e : model.row_entries(r)) {
          if (!model.variable(e.var).is_integer || e.coeff == 0.0) {
            continue;
          }
          // Step that reduces activity when over, increases when under.
          int step = (over == (e.coeff > 0)) ? -1 : +1;
          double next = rounded_value[e.var] + step;
          if (next < lo[e.var] - 1e-9 || next > hi[e.var] + 1e-9) {
            continue;
          }
          double tie = std::fabs(next - x_lp[e.var]);
          if (tie < best_tie) {
            best_tie = tie;
            best = e.var;
            best_step = step;
          }
        }
        if (best < 0) {
          break;  // Row not repairable by integer steps; let the LP decide.
        }
        double coeff = 0.0;
        for (const RowEntry& e : model.row_entries(r)) {
          if (e.var == best) {
            coeff += e.coeff;
          }
        }
        rounded_value[static_cast<size_t>(best)] += best_step;
        activity += coeff * best_step;
      }
    }
  }

  std::vector<BoundOverride> overrides = node_overrides;
  for (size_t j = 0; j < n; ++j) {
    if (model.variable(j).is_integer) {
      overrides.push_back(
          BoundOverride{static_cast<VarId>(j), rounded_value[j], rounded_value[j]});
    }
  }
  LpResult fixed = lp_solver.ResolveWithBasis(model, overrides);
  if (fixed.status != LpStatus::kOptimal) {
    return false;
  }
  *candidate = std::move(fixed.x);
  // Snap the fixed integers exactly (the LP reports them to tolerance).
  for (size_t j = 0; j < model.num_variables(); ++j) {
    if (model.variable(j).is_integer) {
      (*candidate)[j] = std::round((*candidate)[j]);
    }
  }
  return true;
}

// Search state the branch-and-bound workers share. Node LPs and heuristics
// (the expensive part) run outside `mu`, each on the worker's own
// SimplexSolver, so warm starts chain along that worker's node sequence.
struct SharedSearch {
  Mutex mu;
  CondVar cv;
  std::deque<Node> open GUARDED_BY(mu);
  int busy GUARDED_BY(mu) = 0;       // Workers currently expanding a node.
  bool stop GUARDED_BY(mu) = false;  // Budget hit or unbounded: wind down.
  bool unbounded GUARDED_BY(mu) = false;
  int64_t nodes_since_improve GUARDED_BY(mu) = 0;
  bool have_incumbent GUARDED_BY(mu) = false;
  std::vector<double> incumbent GUARDED_BY(mu);
  double incumbent_obj GUARDED_BY(mu) = kInf;
  double root_bound GUARDED_BY(mu) = -kInf;  // Root LP objective once solved.
  // Node and LP counters, the time-limit flag and the root basis.
  MipResult result GUARDED_BY(mu);

  void Install(std::vector<double> x, double obj) REQUIRES(mu) {
    incumbent = std::move(x);
    incumbent_obj = obj;
    have_incumbent = true;
    nodes_since_improve = 0;
  }

  // Derives the proven bound and the status once the search has stopped.
  // Queued nodes price the bound by their parent's LP value (a node that
  // never had one inherits the root bound), and the incumbent caps it.
  MipResult Conclude(const MipOptions& options) REQUIRES(mu) {
    MipResult out = std::move(result);
    if (unbounded) {
      out.status = MipStatus::kUnbounded;
      out.best_bound = -kInf;
      return out;
    }
    if (open.empty()) {
      out.best_bound = have_incumbent ? incumbent_obj : kInf;
    } else {
      double open_bound = kInf;
      for (const Node& n : open) {
        open_bound = std::min(open_bound, n.parent_bound);
      }
      if (open_bound == -kInf) {
        open_bound = root_bound;
      }
      out.best_bound = have_incumbent ? std::min(open_bound, incumbent_obj) : open_bound;
    }
    if (have_incumbent) {
      out.x = std::move(incumbent);
      out.objective = incumbent_obj;
      bool proven = open.empty() || out.objective - out.best_bound <= options.absolute_gap ||
                    (std::fabs(out.objective) > 1 &&
                     (out.objective - out.best_bound) / std::fabs(out.objective) <=
                         options.relative_gap);
      out.status = proven ? MipStatus::kOptimal : MipStatus::kFeasible;
      if (proven) {
        out.best_bound = out.objective;
      }
    } else if (open.empty() && out.nodes > 0 && !out.hit_time_limit &&
               out.nodes < options.max_nodes) {
      out.status = MipStatus::kInfeasible;
    } else {
      out.status = MipStatus::kNoSolutionFound;
    }
    return out;
  }
};

}  // namespace

MipResult MipSolver::Solve(const Model& model, const std::vector<double>* warm_start) {
  MipResult result = Search(model, warm_start);
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  static obs::Counter& solves = reg.counter("ras_mip_solves_total", "Branch-and-bound runs.");
  static obs::Counter& nodes =
      reg.counter("ras_mip_nodes_total", "Nodes explored across branch-and-bound runs.");
  static obs::Counter& lp_iterations =
      reg.counter("ras_mip_lp_iterations_total", "Simplex iterations summed over node LPs.");
  static obs::Counter& root_basis =
      reg.counter("ras_mip_root_basis_used_total", "Runs that imported a cached root basis.");
  static obs::Counter& time_limit =
      reg.counter("ras_mip_time_limit_hits_total", "Runs cut off by their time limit.");
  static obs::Counter& dual_resolves = reg.counter(
      "ras_mip_dual_resolves_total", "Node LPs re-optimized by the dual simplex kernel.");
  static obs::Counter& presolve_rows = reg.counter(
      "ras_mip_presolve_rows_removed_total", "Rows removed by presolve across node LPs.");
  static obs::Histogram& seconds =
      reg.histogram("ras_mip_solve_seconds", "Wall time of one branch-and-bound run.", 0.0, 30.0,
                    120);
  solves.Add();
  nodes.Add(result.nodes);
  lp_iterations.Add(result.lp_iterations);
  dual_resolves.Add(result.dual_resolves);
  presolve_rows.Add(result.presolve_rows_removed);
  if (result.root_basis_used) {
    root_basis.Add();
  }
  if (result.hit_time_limit) {
    time_limit.Add();
  }
  seconds.Observe(result.solve_seconds);
  return result;
}

MipResult MipSolver::Search(const Model& model, const std::vector<double>* warm_start) {
  const double start_time = util::MonotonicSeconds();
  auto elapsed = [start_time]() { return util::MonotonicSeconds() - start_time; };

  SharedSearch sh;
  {
    MutexLock lock(&sh.mu);  // No workers yet; satisfies the static analysis.
    if (warm_start != nullptr && model.IsFeasible(*warm_start, options_.integrality_tol * 10)) {
      sh.Install(*warm_start, model.Objective(*warm_start));
    }
    // Depth-first with a deque: children of the most recent node are explored
    // first (good for finding incumbents fast), while `parent_bound` prunes
    // against the incumbent. The root node has no overrides.
    sh.open.push_back(Node{{}, -kInf, 0});
  }

  auto worker = [&]() {
    SimplexSolver lp_solver(options_.lp);
    // Separate solver for the fix-and-solve heuristic: consecutive heuristic
    // LPs have near-identical bounds, so they warm-start each other, and the
    // node chain's basis in lp_solver is never disturbed.
    SimplexSolver heuristic_solver(options_.lp);
    // Cross-round seed: the worker's chain starts from the cached root basis
    // when it imports cleanly; otherwise its first LP solves cold.
    const bool seeded =
        !options_.root_basis.empty() && lp_solver.ImportBasis(model, options_.root_basis);

    sh.mu.Lock();
    if (seeded) {
      sh.result.root_basis_used = true;
    }
    for (;;) {
      // An empty queue ends the search only once no worker is expanding a
      // node: an expanding worker may still push children.
      while (sh.open.empty() && !sh.stop && sh.busy > 0) {
        sh.cv.Wait(sh.mu);
      }
      if (sh.stop || sh.open.empty()) {
        break;
      }
      if (sh.result.nodes >= options_.max_nodes || elapsed() > options_.time_limit_seconds) {
        sh.result.hit_time_limit = elapsed() > options_.time_limit_seconds;
        sh.stop = true;  // Leave remaining nodes queued: they price the bound.
        break;
      }
      // Stall patience: with an incumbent in hand and a long run of nodes that
      // failed to improve it, stop searching instead of draining max_nodes.
      if (options_.stall_node_limit > 0 && sh.have_incumbent &&
          sh.nodes_since_improve >= options_.stall_node_limit) {
        sh.stop = true;
        break;
      }
      Node node = std::move(sh.open.back());
      sh.open.pop_back();

      // Prune by parent bound before paying for an LP solve.
      if (sh.have_incumbent && node.parent_bound > sh.incumbent_obj - options_.absolute_gap) {
        continue;
      }
      const int64_t node_id = ++sh.result.nodes;
      ++sh.nodes_since_improve;
      ++sh.busy;
      sh.mu.Unlock();

      // Children differ from their parent by one bound, so each LP re-solves
      // from the worker's last basis; a fresh solver (no basis yet) solves
      // cold, and a seeded one restarts from the imported basis.
      LpResult lp = lp_solver.ResolveWithBasis(model, node.overrides);
      const int32_t branch_var = lp.status == LpStatus::kOptimal
                                     ? MostFractional(model, lp.x, options_.integrality_tol)
                                     : -1;

      sh.mu.Lock();
      sh.result.lp_iterations += lp.iterations;
      sh.result.lp_dual_iterations += lp.dual_iterations;
      sh.result.presolve_rows_removed += lp.presolve_rows_removed;
      if (lp.used_dual_simplex) {
        ++sh.result.dual_resolves;
      }
      if (lp.status == LpStatus::kUnbounded) {
        sh.unbounded = true;
        sh.stop = true;
      }
      if (lp.status == LpStatus::kOptimal && node.depth == 0) {
        sh.root_bound = lp.objective;
        sh.result.root_basis = lp_solver.ExportBasis();
      }
      // Infeasible nodes, and nodes with numerical trouble or an iteration
      // limit, are dropped: the incumbent stays valid, the bound approximate.
      // Optimal nodes are bound-pruned against the incumbent.
      bool expand = lp.status == LpStatus::kOptimal &&
                    !(sh.have_incumbent && lp.objective > sh.incumbent_obj - options_.absolute_gap);
      if (expand && branch_var < 0) {
        // Integer feasible: snap the integers exactly.
        if (!sh.have_incumbent || lp.objective < sh.incumbent_obj) {
          for (size_t j = 0; j < model.num_variables(); ++j) {
            if (model.variable(j).is_integer) {
              lp.x[j] = std::round(lp.x[j]);
            }
          }
          const double obj = model.Objective(lp.x);
          sh.Install(std::move(lp.x), obj);
        }
        expand = false;
      }
      if (expand) {
        // Fix-and-solve heuristic at shallow depths and periodically deeper in
        // the tree: turns the fractional LP point into a feasible incumbent.
        if (node.depth <= 2 || node_id % 16 == 0) {
          sh.mu.Unlock();
          std::vector<double> rounded;
          bool produced =
              options_.heuristic
                  ? options_.heuristic(model, lp.x, &rounded)
                  : TryFixAndSolve(model, node.overrides, lp.x, heuristic_solver, &rounded);
          produced = produced && model.IsFeasible(rounded, options_.integrality_tol * 100);
          const double obj = produced ? model.Objective(rounded) : kInf;
          sh.mu.Lock();
          if (produced && (!sh.have_incumbent || obj < sh.incumbent_obj)) {
            sh.Install(std::move(rounded), obj);
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
          sh.open.push_back(std::move(down));
          sh.open.push_back(std::move(up));
        } else {
          sh.open.push_back(std::move(up));
          sh.open.push_back(std::move(down));
        }
      }
      --sh.busy;
      sh.cv.NotifyAll();
    }
    sh.cv.NotifyAll();
    sh.mu.Unlock();
  };

  // A single worker runs inline on the calling thread; more share a pool.
  if (options_.threads <= 1) {
    worker();
  } else {
    ThreadPool pool(options_.threads);
    for (int t = 0; t < options_.threads; ++t) {
      pool.Submit(worker);
    }
    pool.Wait();
  }

  MutexLock lock(&sh.mu);  // Workers are done; satisfies the static analysis.
  sh.result.solve_seconds = elapsed();
  return sh.Conclude(options_);
}

}  // namespace ras
