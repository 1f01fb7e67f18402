#include "src/solver/simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "src/obs/metrics.h"
#include "src/util/monotonic_time.h"

namespace ras {
namespace {

// Kernel constants. LpOptions holds only the cadences tests shrink.
constexpr double kFeasibilityTol = 1e-7;
constexpr double kOptimalityTol = 1e-7;
constexpr double kPivotTol = 1e-9;
// Consecutive degenerate pivots before switching to Bland's rule.
constexpr int kBlandTrigger = 60;
// A pivot this small relative to its column is a numerical-drift red flag:
// refactor early.
constexpr double kDriftRefactorTol = 1e-8;
// The optimality clean pass refactors to wash out eta drift before declaring
// the optimum. A warm re-solve whose eta file holds at most this many etas
// skips the rebuild — the same drift budget the in-loop cadence prices
// dozens of pivots through — provided the feasibility check passes on the
// current factor (when it does not, the full clean pass runs after all).
constexpr int kCleanPassEtaLimit = 8;

// Recorded once per LP solve (including node LPs inside branch-and-bound):
// a handful of relaxed atomic adds against the work of the solve itself.
void RecordLpMetrics(const LpResult& result) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  static obs::Counter& solves =
      reg.counter("ras_simplex_solves_total", "LP solves, cold starts and basis resolves.");
  static obs::Counter& iterations =
      reg.counter("ras_simplex_iterations_total", "Simplex pivots across all solves.");
  static obs::Counter& refactorizations = reg.counter(
      "ras_simplex_refactorizations_total", "Basis refactorizations across all solves.");
  static obs::Counter& dual_resolves = reg.counter(
      "ras_simplex_dual_resolves_total", "Warm resolves served by the dual simplex kernel.");
  static obs::Counter& dual_iterations =
      reg.counter("ras_simplex_dual_iterations_total", "Dual simplex pivots across all solves.");
  static obs::Histogram& refactor_seconds =
      reg.histogram("ras_simplex_refactor_seconds",
                    "Basis factorization wall time of one LP solve.", 0.0, 0.05, 100);
  solves.Add();
  iterations.Add(result.iterations);
  refactorizations.Add(result.refactorizations);
  if (result.used_dual_simplex) {
    dual_resolves.Add();
  }
  dual_iterations.Add(result.dual_iterations);
  refactor_seconds.Observe(result.refactor_seconds);
}

}  // namespace

const char* LpStatusName(LpStatus status) {
  switch (status) {
    case LpStatus::kOptimal:
      return "OPTIMAL";
    case LpStatus::kInfeasible:
      return "INFEASIBLE";
    case LpStatus::kUnbounded:
      return "UNBOUNDED";
    case LpStatus::kIterationLimit:
      return "ITERATION_LIMIT";
    case LpStatus::kNumericalFailure:
      return "NUMERICAL_FAILURE";
  }
  return "UNKNOWN";
}

void SimplexSolver::BuildColumns(const Model& model, const std::vector<BoundOverride>& overrides) {
  m_ = static_cast<int32_t>(model.num_rows());
  n_ = static_cast<int32_t>(model.num_variables());
  total_ = n_ + m_;

  // Column-major structural matrix; duplicate (row, var) entries are summed
  // by the CSC build.
  CscMatrix csc = model.CompressedColumns();
  csc_starts_ = std::move(csc.col_starts);
  csc_rows_ = std::move(csc.rows);
  csc_values_ = std::move(csc.values);

  lb_.resize(total_);
  ub_.resize(total_);
  cost_.assign(total_, 0.0);
  for (int32_t j = 0; j < n_; ++j) {
    const ModelVariable& v = model.variable(j);
    lb_[j] = v.lb;
    ub_[j] = v.ub;
    cost_[j] = v.cost;
  }
  for (const BoundOverride& o : overrides) {
    assert(o.var >= 0 && o.var < n_);
    lb_[o.var] = o.lb;
    ub_[o.var] = o.ub;
  }
  for (int32_t i = 0; i < m_; ++i) {
    const ModelRow& row = model.row(i);
    lb_[n_ + i] = row.lb;
    ub_[n_ + i] = row.ub;
  }
}

void SimplexSolver::InitializeBasis(const std::vector<double>* start) {
  assert(start == nullptr || start->size() == static_cast<size_t>(n_));
  basis_.resize(m_);
  status_.assign(total_, ColStatus::kAtLower);
  basis_pos_.assign(total_, -1);
  value_.assign(total_, 0.0);

  for (int32_t j = 0; j < total_; ++j) {
    if (start != nullptr && j < n_ && std::isfinite(ub_[j]) && ub_[j] > lb_[j] &&
        (*start)[j] >= ub_[j]) {
      status_[j] = ColStatus::kAtUpper;
      value_[j] = ub_[j];
    } else if (std::isfinite(lb_[j])) {
      status_[j] = ColStatus::kAtLower;
      value_[j] = lb_[j];
    } else if (std::isfinite(ub_[j])) {
      status_[j] = ColStatus::kAtUpper;
      value_[j] = ub_[j];
    } else {
      status_[j] = ColStatus::kFree;
      value_[j] = 0.0;
    }
  }
  // All-slack basis: B = -I, whose factorization cannot fail.
  for (int32_t i = 0; i < m_; ++i) {
    int32_t col = n_ + i;
    basis_[i] = col;
    basis_pos_[col] = i;
    status_[col] = ColStatus::kBasic;
  }
  Refactorize();
  ComputeBasicValues();
}

bool SimplexSolver::Refactorize() {
  double start = util::MonotonicSeconds();
  bool ok = factor_.Factor(m_, n_, basis_, csc_starts_, csc_rows_, csc_values_);
  refactor_seconds_ += util::MonotonicSeconds() - start;
  return ok;
}

void SimplexSolver::ComputeBasicValues() {
  // x_B = B^-1 * r where r_i = -(sum over nonbasic j of a_ij x_j). The rhs is
  // zero because every row's constant lives in its slack bounds.
  std::vector<double>& r = solve_rhs_;
  r.assign(m_, 0.0);
  for (int32_t j = 0; j < n_; ++j) {
    if (status_[j] == ColStatus::kBasic || value_[j] == 0.0) {
      continue;
    }
    double xj = value_[j];
    for (int32_t k = csc_starts_[j]; k < csc_starts_[j + 1]; ++k) {
      r[csc_rows_[k]] -= csc_values_[k] * xj;
    }
  }
  for (int32_t i = 0; i < m_; ++i) {
    int32_t col = n_ + i;
    if (status_[col] != ColStatus::kBasic && value_[col] != 0.0) {
      r[i] += value_[col];  // Slack column is -e_i, so -(-1 * x) = +x.
    }
  }
  std::vector<double> x;
  factor_.Ftran(r, x);
  for (int32_t pos = 0; pos < m_; ++pos) {
    value_[basis_[pos]] = x[pos];
  }
}

void SimplexSolver::Ftran(int32_t col, std::vector<double>& alpha, std::vector<int32_t>& nz) {
  // alpha = B^-1 * A_col.
  solve_rhs_.assign(m_, 0.0);
  if (col >= n_) {
    solve_rhs_[col - n_] = -1.0;
  } else {
    for (int32_t k = csc_starts_[col]; k < csc_starts_[col + 1]; ++k) {
      solve_rhs_[csc_rows_[k]] = csc_values_[k];
    }
  }
  factor_.Ftran(solve_rhs_, alpha);
  nz.clear();
  for (int32_t pos = 0; pos < m_; ++pos) {
    if (alpha[pos] != 0.0) {
      nz.push_back(pos);
    }
  }
}

void SimplexSolver::TrueCostDuals(std::vector<double>& y) {
  solve_rhs_.resize(m_);
  for (int32_t pos = 0; pos < m_; ++pos) {
    solve_rhs_[pos] = cost_[basis_[pos]];
  }
  factor_.Btran(solve_rhs_, y);
}

double SimplexSolver::TotalInfeasibility() const {
  double total = 0.0;
  for (int32_t pos = 0; pos < m_; ++pos) {
    int32_t col = basis_[pos];
    double x = value_[col];
    if (x < lb_[col]) {
      total += lb_[col] - x;
    } else if (x > ub_[col]) {
      total += x - ub_[col];
    }
  }
  return total;
}

void SimplexSolver::RefreshBounds(const Model& model, const std::vector<BoundOverride>& overrides) {
  for (int32_t j = 0; j < n_; ++j) {
    const ModelVariable& v = model.variable(j);
    lb_[j] = v.lb;
    ub_[j] = v.ub;
    cost_[j] = v.cost;
  }
  for (const BoundOverride& o : overrides) {
    lb_[o.var] = o.lb;
    ub_[o.var] = o.ub;
  }
  for (int32_t i = 0; i < m_; ++i) {
    const ModelRow& row = model.row(i);
    lb_[n_ + i] = row.lb;
    ub_[n_ + i] = row.ub;
  }
}

LpResult SimplexSolver::Solve(const Model& model, const std::vector<BoundOverride>& overrides,
                              const std::vector<double>* start) {
  refactor_seconds_ = 0.0;
  basis_valid_ = false;
  BuildColumns(model, overrides);
  // Reject empty-range variables early (branching can create lb > ub).
  bool empty_range = false;
  for (int32_t j = 0; j < total_ && !empty_range; ++j) {
    empty_range = lb_[j] > ub_[j];
  }
  LpResult result;
  if (empty_range) {
    result.status = LpStatus::kInfeasible;
  } else {
    InitializeBasis(start);
    result = RunSimplex(model);
    pivots_left_ -= result.iterations;
    if (result.status == LpStatus::kOptimal) {
      basis_valid_ = true;
      prepared_rows_ = model.num_rows();
      prepared_vars_ = model.num_variables();
      prepared_nonzeros_ = model.num_nonzeros();
    }
  }
  result.refactor_seconds = refactor_seconds_;
  result.factor_nonzeros = factor_.nonzeros();
  RecordLpMetrics(result);
  return result;
}

void SimplexSolver::SnapNonbasic() {
  for (int32_t j = 0; j < total_; ++j) {
    const bool at_lower = status_[j] == ColStatus::kAtLower;
    if (!at_lower && status_[j] != ColStatus::kAtUpper) {
      continue;  // Basic and free columns keep their values.
    }
    const double own = at_lower ? lb_[j] : ub_[j];
    const double other = at_lower ? ub_[j] : lb_[j];
    if (std::isfinite(own)) {
      value_[j] = own;
    } else if (std::isfinite(other)) {
      status_[j] = at_lower ? ColStatus::kAtUpper : ColStatus::kAtLower;
      value_[j] = other;
    } else {
      status_[j] = ColStatus::kFree;
      value_[j] = 0.0;
    }
  }
}

LpResult SimplexSolver::ResolveWithBasis(const Model& model,
                                         const std::vector<BoundOverride>& overrides) {
  if (!basis_valid_ || prepared_rows_ != model.num_rows() ||
      prepared_vars_ != model.num_variables() || prepared_nonzeros_ != model.num_nonzeros()) {
    return Solve(model, overrides);
  }
  refactor_seconds_ = 0.0;
  RefreshBounds(model, overrides);
  for (int32_t j = 0; j < total_; ++j) {
    if (lb_[j] > ub_[j]) {
      LpResult result;
      result.status = LpStatus::kInfeasible;
      return result;  // Retained basis stays valid for the next resolve.
    }
  }
  // Re-snap nonbasic variables onto their (possibly moved) bounds; the basis
  // matrix is untouched, so its factorization remains exact.
  SnapNonbasic();
  ComputeBasicValues();
  // Dual warm re-solve: a bound/RHS-only change leaves the old optimal basis
  // dual-feasible (costs did not move, so neither did the duals), and the
  // dual kernel restores primal feasibility in a handful of pivots instead of
  // the primal phase-1/phase-2 grind. The primal loop below still runs as the
  // verifier — from a dual-optimal basis it terminates after one full pricing
  // scan — so a dual-side stall or budget exhaustion costs nothing but the
  // pivots already taken.
  LpResult dual_accum;
  bool used_dual = false;
  if (TotalInfeasibility() > kFeasibilityTol && DualFeasibleBasis(kOptimalityTol)) {
    used_dual = true;
    const bool factor_ok = RunDualSimplex(&dual_accum);
    pivots_left_ -= dual_accum.dual_iterations;
    if (!factor_ok) {
      // Basis factorization broke down mid-flight: rebuild from scratch.
      return Solve(model, overrides);
    }
  }
  LpResult result = RunSimplex(model);
  pivots_left_ -= result.iterations;
  result.used_dual_simplex = used_dual;
  result.dual_iterations += dual_accum.dual_iterations;
  result.refactorizations += dual_accum.refactorizations;
  result.adaptive_refactorizations += dual_accum.adaptive_refactorizations;
  result.eta_nonzeros += dual_accum.eta_nonzeros;
  result.refactor_seconds = refactor_seconds_;
  result.factor_nonzeros = factor_.nonzeros();
  basis_valid_ = result.status == LpStatus::kOptimal;
  RecordLpMetrics(result);
  return result;
}

bool SimplexSolver::NeedRefactor(double pivot, double column_max, bool* adaptive) const {
  *adaptive = false;
  if (factor_.num_etas() >= options_.refactor_interval) {
    return true;
  }
  // Adaptive cadence: refactor early once the eta file's fill rivals the
  // factor it updates, or when a small pivot (relative to its column)
  // signals that the updates are drifting.
  *adaptive = static_cast<double>(factor_.eta_nonzeros()) >
                  options_.eta_growth_limit * static_cast<double>(m_) ||
              std::fabs(pivot) < kDriftRefactorTol * (1.0 + column_max);
  return *adaptive;
}

bool SimplexSolver::DualFeasibleBasis(double tol) {
  std::vector<double> y;
  TrueCostDuals(y);
  for (int32_t j = 0; j < total_; ++j) {
    if (status_[j] == ColStatus::kBasic || lb_[j] == ub_[j]) {
      continue;  // Fixed columns cannot move: any reduced-cost sign is fine.
    }
    double yaj;
    if (j >= n_) {
      yaj = -y[j - n_];
    } else {
      yaj = 0.0;
      for (int32_t k = csc_starts_[j]; k < csc_starts_[j + 1]; ++k) {
        yaj += y[csc_rows_[k]] * csc_values_[k];
      }
    }
    double d = cost_[j] - yaj;
    switch (status_[j]) {
      case ColStatus::kAtLower:
        if (d < -tol) {
          return false;
        }
        break;
      case ColStatus::kAtUpper:
        if (d > tol) {
          return false;
        }
        break;
      case ColStatus::kFree:
        if (std::fabs(d) > tol) {
          return false;
        }
        break;
      case ColStatus::kBasic:
        break;
    }
  }
  return true;
}

// RASLINT-HOT: the dual simplex pivot loop — nothing here may block.
bool SimplexSolver::RunDualSimplex(LpResult* accum) {
  const double ftol = kFeasibilityTol;
  const double ptol = kPivotTol;
  // A bound-only patch perturbs few basic values, so primal feasibility is a
  // few pivots away; a conservative budget keeps a degenerate tail from ever
  // costing more than the cold solve the caller would otherwise run.
  const int64_t max_iters = std::min<int64_t>(50 + 2LL * m_, pivots_left_);

  std::vector<double> y(m_);
  std::vector<double> rho_row(m_);
  std::vector<double> alpha_col(m_);
  std::vector<int32_t> alpha_nz;
  alpha_nz.reserve(m_);

  for (int64_t iter = 0; iter < max_iters; ++iter) {
    // --- Leaving: the most primal-violated basic position. ---
    int32_t leaving_pos = -1;
    double worst = ftol;
    bool above = false;
    for (int32_t pos = 0; pos < m_; ++pos) {
      int32_t col = basis_[pos];
      double x = value_[col];
      if (lb_[col] - x > worst) {
        worst = lb_[col] - x;
        leaving_pos = pos;
        above = false;
      }
      if (x - ub_[col] > worst) {
        worst = x - ub_[col];
        leaving_pos = pos;
        above = true;
      }
    }
    if (leaving_pos < 0) {
      return true;  // Primal feasible: the primal verifier finishes from here.
    }
    ++accum->dual_iterations;

    // The pivot row rho = e_r^T B^-1 is one BTRAN. Reduced costs are
    // re-priced from scratch each pivot (one more BTRAN) rather than updated
    // incrementally; at this iteration budget, exactness beats bookkeeping.
    solve_rhs_.assign(m_, 0.0);
    solve_rhs_[leaving_pos] = 1.0;
    factor_.Btran(solve_rhs_, rho_row);
    TrueCostDuals(y);

    // --- Bounded-variable dual ratio test. The leaving variable moves to its
    // violated bound; entering j must move the right way, which fixes the
    // sign of alpha_rj per status. Min |d_j / alpha_rj| keeps every other
    // reduced cost on the legal side; ties prefer the larger pivot. ---
    int32_t entering = -1;
    double best_ratio = kInf;
    double best_mag = 0.0;
    for (int32_t j = 0; j < total_; ++j) {
      if (status_[j] == ColStatus::kBasic || lb_[j] == ub_[j]) {
        continue;
      }
      double arj;
      double yaj;
      if (j >= n_) {
        arj = -rho_row[j - n_];
        yaj = -y[j - n_];
      } else {
        arj = 0.0;
        yaj = 0.0;
        for (int32_t k = csc_starts_[j]; k < csc_starts_[j + 1]; ++k) {
          int32_t r = csc_rows_[k];
          double v = csc_values_[k];
          arj += rho_row[r] * v;
          yaj += y[r] * v;
        }
      }
      double a_t = above ? arj : -arj;
      bool eligible = (status_[j] == ColStatus::kAtLower && a_t > ptol) ||
                      (status_[j] == ColStatus::kAtUpper && a_t < -ptol) ||
                      (status_[j] == ColStatus::kFree && std::fabs(a_t) > ptol);
      if (!eligible) {
        continue;
      }
      double ratio = (cost_[j] - yaj) / a_t;
      if (ratio < 0.0) {
        ratio = 0.0;  // Tolerance dust on a dual-degenerate column.
      }
      if (ratio < best_ratio - 1e-12 ||
          (ratio < best_ratio + 1e-12 && std::fabs(arj) > best_mag)) {
        best_ratio = ratio;
        best_mag = std::fabs(arj);
        entering = j;
      }
    }
    if (entering < 0) {
      // No column can absorb the violation. Keep the basis untouched and let
      // the primal phase 1 certify infeasibility (or finish) properly.
      return true;
    }

    Ftran(entering, alpha_col, alpha_nz);
    double pivot = alpha_col[leaving_pos];
    if (std::fabs(pivot) < ptol) {
      // FTRAN disagrees with the BTRAN row: the factor has drifted. Bail to
      // the primal verifier, which starts with its own clean refactorization.
      return true;
    }

    // --- Primal step: leaving lands exactly on its violated bound; the
    // entering variable may overshoot its own far bound and stay basic there
    // (the simple variant — later pivots or the verifier clean it up). ---
    int32_t leaving_col = basis_[leaving_pos];
    double target = above ? ub_[leaving_col] : lb_[leaving_col];
    double delta = (value_[leaving_col] - target) / pivot;
    for (int32_t pos : alpha_nz) {
      value_[basis_[pos]] -= alpha_col[pos] * delta;
    }
    value_[entering] += delta;
    value_[leaving_col] = target;

    status_[leaving_col] = above ? ColStatus::kAtUpper : ColStatus::kAtLower;
    basis_pos_[leaving_col] = -1;
    basis_[leaving_pos] = entering;
    basis_pos_[entering] = leaving_pos;
    status_[entering] = ColStatus::kBasic;

    // Product-form eta update, identical cadence to the primal loop.
    factor_.AddEta(leaving_pos, alpha_col, alpha_nz);
    accum->eta_nonzeros += static_cast<int64_t>(alpha_nz.size());

    bool adaptive = false;
    if (NeedRefactor(pivot, best_mag, &adaptive)) {
      ++accum->refactorizations;
      if (adaptive) {
        ++accum->adaptive_refactorizations;
      }
      if (!Refactorize()) {
        return false;  // Caller falls back to a cold solve.
      }
      ComputeBasicValues();
    }
  }
  return true;  // Budget exhausted; the primal verifier finishes the job.
}

// RASLINT-HOT: the simplex inner iteration — nothing here may block.
LpResult SimplexSolver::RunSimplex(const Model& model) {
  LpResult result;
  const double ftol = kFeasibilityTol;
  const double dtol = kOptimalityTol;
  const int64_t max_iters =
      std::min<int64_t>(200 + 40LL * (static_cast<int64_t>(m_) + total_), pivots_left_);

  std::vector<double> y(m_);        // Pricing duals.
  std::vector<double> alpha(m_);    // FTRAN result.
  std::vector<int32_t> alpha_nz;    // FTRAN nonzero positions.
  alpha_nz.reserve(m_);
  std::vector<double> cb(m_);       // Basic costs for the current phase.
  std::vector<int32_t> candidates;  // Partial-pricing candidate list.
  std::vector<std::pair<double, int32_t>> scored;  // Full-scan scratch.
  bool refresh_candidates = true;
  bool have_phase = false;
  bool last_phase1 = false;
  int degenerate_run = 0;
  bool bland = false;

  int64_t iter = 0;
  for (; iter < max_iters; ++iter) {
    // --- Phase selection: any basic bound violation => phase 1 pricing. ---
    bool phase1 = false;
    for (int32_t pos = 0; pos < m_; ++pos) {
      int32_t col = basis_[pos];
      double x = value_[col];
      if (x < lb_[col] - ftol || x > ub_[col] + ftol) {
        phase1 = true;
        break;
      }
    }
    if (!have_phase || phase1 != last_phase1) {
      // The phase objective changed; candidate reduced costs are stale.
      refresh_candidates = true;
      have_phase = true;
      last_phase1 = phase1;
    }

    // --- Pricing: y = cB^T B^-1 (one BTRAN), then reduced costs per
    // nonbasic column. ---
    for (int32_t pos = 0; pos < m_; ++pos) {
      int32_t col = basis_[pos];
      if (phase1) {
        double x = value_[col];
        if (x > ub_[col] + ftol) {
          cb[pos] = 1.0;
        } else if (x < lb_[col] - ftol) {
          cb[pos] = -1.0;
        } else {
          cb[pos] = 0.0;
        }
      } else {
        cb[pos] = cost_[col];
      }
    }
    factor_.Btran(cb, y);

    // Reduced-cost pricing of one column: returns its violation (0 when not
    // an improving direction) and the movement direction.
    auto price = [&](int32_t j, int* dir) -> double {
      double cj = phase1 ? 0.0 : cost_[j];
      double yaj;
      if (j >= n_) {
        yaj = -y[j - n_];
      } else {
        yaj = 0.0;
        for (int32_t k = csc_starts_[j]; k < csc_starts_[j + 1]; ++k) {
          yaj += y[csc_rows_[k]] * csc_values_[k];
        }
      }
      double d = cj - yaj;
      *dir = 0;
      if (status_[j] == ColStatus::kAtLower && d < -dtol) {
        *dir = +1;
        return -d;
      }
      if (status_[j] == ColStatus::kAtUpper && d > dtol) {
        *dir = -1;
        return d;
      }
      if (status_[j] == ColStatus::kFree && std::fabs(d) > dtol) {
        *dir = d < 0 ? +1 : -1;
        return std::fabs(d);
      }
      return 0.0;
    };

    int32_t entering = -1;
    int entering_dir = 0;

    auto full_scan = [&]() {
      ++result.full_pricing_scans;
      double best_violation = dtol;
      scored.clear();
      for (int32_t j = 0; j < total_; ++j) {
        if (status_[j] == ColStatus::kBasic || lb_[j] == ub_[j]) {
          continue;
        }
        int dir = 0;
        double violation = price(j, &dir);
        if (dir == 0) {
          continue;
        }
        if (bland) {
          entering = j;  // Bland: first eligible index.
          entering_dir = dir;
          return;
        }
        if (violation > best_violation) {
          best_violation = violation;
          entering = j;
          entering_dir = dir;
        }
        scored.push_back({violation, j});
      }
      if (!bland) {
        // Keep the most violated columns as the next candidate list.
        size_t keep = std::min(scored.size(),
                               static_cast<size_t>(std::max(1, options_.pricing_candidates)));
        std::partial_sort(scored.begin(), scored.begin() + keep, scored.end(),
                          [](const auto& a, const auto& b) { return a.first > b.first; });
        candidates.clear();
        for (size_t k = 0; k < keep; ++k) {
          candidates.push_back(scored[k].second);
        }
      }
    };

    if (bland) {
      full_scan();
    } else if (refresh_candidates || candidates.empty() ||
               (options_.pricing_refresh_interval > 0 &&
                iter % options_.pricing_refresh_interval == 0)) {
      full_scan();
      refresh_candidates = false;
    } else {
      // Partial pricing: re-price only the candidate list, dropping entries
      // that stopped being improving directions.
      double best_violation = dtol;
      size_t w = 0;
      for (int32_t j : candidates) {
        if (status_[j] == ColStatus::kBasic || lb_[j] == ub_[j]) {
          continue;
        }
        int dir = 0;
        double violation = price(j, &dir);
        if (dir == 0) {
          continue;
        }
        candidates[w++] = j;
        if (violation > best_violation) {
          best_violation = violation;
          entering = j;
          entering_dir = dir;
        }
      }
      candidates.resize(w);
      if (entering < 0) {
        // Candidates exhausted; only a full scan may declare optimality.
        full_scan();
        refresh_candidates = false;
      }
    }

    if (entering < 0) {
      // No improving direction for the current phase objective. This is only
      // ever reached after a full scan, so the optimality / infeasibility
      // claim has the strength of full Dantzig pricing.
      if (phase1) {
        result.status = LpStatus::kInfeasible;
        result.iterations = iter;
        return result;
      }
      break;  // Optimal.
    }

    Ftran(entering, alpha, alpha_nz);

    // --- Ratio test. Basic k changes at rate -dir * alpha_k per unit of the
    // entering variable's movement. In phase 1, an infeasible basic blocks
    // only when it reaches the bound it is violating (a gradient breakpoint);
    // a feasible basic blocks at whichever bound it is moving toward. ---
    double best_step = kInf;
    int32_t leaving_pos = -1;
    double leaving_target = 0.0;
    double best_pivot_mag = 0.0;
    auto ratio_test = [&](int32_t pos) {
      double a = alpha[pos];
      if (std::fabs(a) < kPivotTol) {
        return;
      }
      double rate = -static_cast<double>(entering_dir) * a;
      int32_t col = basis_[pos];
      double x = value_[col];
      bool below = x < lb_[col] - ftol;
      bool above = x > ub_[col] + ftol;
      double target;
      if (rate > 0) {
        if (below) {
          target = lb_[col];
        } else if (above) {
          return;  // Moving further above; linear phase-1 cost, no breakpoint.
        } else if (std::isfinite(ub_[col])) {
          target = ub_[col];
        } else {
          return;
        }
      } else {
        if (above) {
          target = ub_[col];
        } else if (below) {
          return;
        } else if (std::isfinite(lb_[col])) {
          target = lb_[col];
        } else {
          return;
        }
      }
      double step = (target - x) / rate;
      if (step < -ftol) {
        step = 0.0;  // Tolerance-degenerate blocker.
      }
      if (step < best_step - 1e-12 ||
          (step < best_step + 1e-12 && std::fabs(a) > best_pivot_mag)) {
        best_step = std::max(step, 0.0);
        leaving_pos = pos;
        leaving_target = target;
        best_pivot_mag = std::fabs(a);
      }
    };
    for (int32_t pos : alpha_nz) {
      ratio_test(pos);
    }

    // Entering variable's own bound range can also limit the step.
    double own_range = ub_[entering] - lb_[entering];
    bool own_blocks = false;
    if (std::isfinite(own_range) && own_range < best_step) {
      best_step = own_range;
      own_blocks = true;
    }

    if (!own_blocks && leaving_pos < 0) {
      result.status = phase1 ? LpStatus::kNumericalFailure : LpStatus::kUnbounded;
      result.iterations = iter;
      return result;
    }

    double step = best_step;
    if (step < ftol) {
      ++degenerate_run;
      if (degenerate_run > kBlandTrigger) {
        bland = true;
      }
    } else {
      degenerate_run = 0;
      bland = false;
    }

    // --- Apply the move. ---
    double delta = static_cast<double>(entering_dir) * step;
    if (delta != 0.0) {
      for (int32_t pos : alpha_nz) {
        value_[basis_[pos]] -= alpha[pos] * delta;
      }
      value_[entering] += delta;
    }

    if (own_blocks) {
      // Bound flip: the entering variable traverses its whole range; the
      // basis is unchanged.
      status_[entering] =
          entering_dir > 0 ? ColStatus::kAtUpper : ColStatus::kAtLower;
      value_[entering] = entering_dir > 0 ? ub_[entering] : lb_[entering];
      continue;
    }

    // Pivot: basic at leaving_pos leaves at its blocking bound.
    int32_t leaving_col = basis_[leaving_pos];
    value_[leaving_col] = leaving_target;
    status_[leaving_col] =
        (leaving_target == lb_[leaving_col]) ? ColStatus::kAtLower : ColStatus::kAtUpper;
    basis_pos_[leaving_col] = -1;

    basis_[leaving_pos] = entering;
    basis_pos_[entering] = leaving_pos;
    status_[entering] = ColStatus::kBasic;

    // Product-form update: append the eta for this basis change.
    double pivot = alpha[leaving_pos];
    factor_.AddEta(leaving_pos, alpha, alpha_nz);
    result.eta_nonzeros += static_cast<int64_t>(alpha_nz.size());

    bool adaptive = false;
    if (NeedRefactor(pivot, best_pivot_mag, &adaptive)) {
      ++result.refactorizations;
      if (adaptive) {
        ++result.adaptive_refactorizations;
      }
      if (!Refactorize()) {
        result.status = LpStatus::kNumericalFailure;
        result.iterations = iter;
        return result;
      }
      ComputeBasicValues();
    }
  }

  if (iter >= max_iters) {
    result.status = LpStatus::kIterationLimit;
    result.iterations = iter;
    return result;
  }

  // Clean pass: refactorize and recompute values to wash out eta drift, then
  // verify primal feasibility of the claimed optimum. A warm re-solve whose
  // eta file holds only a handful of pivots carries negligible drift — far
  // under what the in-loop adaptive cadence tolerates between rebuilds — so
  // the refactorization is skipped when the feasibility check already passes
  // on the current factor. This is what keeps a one-pivot dual re-solve
  // cheaper than the model rebuild it avoids.
  bool clean = factor_.num_etas() <= kCleanPassEtaLimit && TotalInfeasibility() <= 1e-5;
  if (!clean) {
    ++result.refactorizations;
    if (!Refactorize()) {
      result.status = LpStatus::kNumericalFailure;
      result.iterations = iter;
      return result;
    }
    ComputeBasicValues();
    if (TotalInfeasibility() > 1e-5) {
      result.status = LpStatus::kNumericalFailure;
      result.iterations = iter;
      return result;
    }
  }

  result.status = LpStatus::kOptimal;
  result.iterations = iter;
  result.x.resize(n_);
  for (int32_t j = 0; j < n_; ++j) {
    result.x[j] = value_[j];
  }
  result.objective = model.Objective(result.x);
  // Final duals priced with the true costs.
  TrueCostDuals(result.duals);
  return result;
}

}  // namespace ras
