#include "src/solver/presolve.h"

#include <algorithm>
#include <cmath>

namespace ras {
namespace {

// SimplexBasis status byte values; must match SimplexSolver::ColStatus order.
constexpr uint8_t kStBasic = 0;
constexpr uint8_t kStAtLower = 1;
constexpr uint8_t kStAtUpper = 2;

// Snap tolerance: bounds this close count as equal (fixed variables,
// redundant rows, pins to an original bound).
constexpr double kTol = 1e-9;
// Sweeps over the reductions; each sweep can expose more (a fold fixes a
// variable, which empties a row).
constexpr int kMaxPasses = 4;
// Reduce() reports failure (the caller solves the original model) unless at
// least this many rows + variables were removed.
constexpr int kMinReduction = 1;

// Looser margin for declaring infeasibility from accumulated activity
// arithmetic: substitution error compounds across passes, so an exact-tol
// verdict here would be a false positive waiting to happen.
constexpr double kFeasMargin = 1e-6;

}  // namespace

bool PresolvedLp::Reduce(const Model& model, const std::vector<BoundOverride>& overrides) {
  n0_ = static_cast<int32_t>(model.num_variables());
  m0_ = static_cast<int32_t>(model.num_rows());
  nnz0_ = model.num_nonzeros();
  const int32_t n = n0_;
  const int32_t m = m0_;
  stats_ = PresolveStats();
  folds_.clear();
  if (n == 0 || m == 0) {
    return false;
  }

  vlb0_.resize(n);
  vub0_.resize(n);
  std::vector<double> cost(n);
  for (int32_t j = 0; j < n; ++j) {
    const ModelVariable& v = model.variable(j);
    vlb0_[j] = v.lb;
    vub0_[j] = v.ub;
    cost[j] = v.cost;
  }
  for (const BoundOverride& o : overrides) {
    vlb0_[o.var] = o.lb;
    vub0_[o.var] = o.ub;
  }
  vlbf_ = vlb0_;
  vubf_ = vub0_;

  std::vector<double> rlb(m), rub(m);
  for (int32_t i = 0; i < m; ++i) {
    rlb[i] = model.row(i).lb;
    rub[i] = model.row(i).ub;
  }

  // Working rows with duplicate (row, var) entries merged and zero
  // coefficients dropped — singleton detection needs true support counts.
  std::vector<std::vector<RowEntry>> rows(m);
  {
    std::vector<double> acc(n, 0.0);
    std::vector<bool> seen(n, false);
    std::vector<int32_t> touched;
    for (int32_t i = 0; i < m; ++i) {
      touched.clear();
      for (const RowEntry& e : model.row_entries(i)) {
        if (!seen[e.var]) {
          seen[e.var] = true;
          touched.push_back(e.var);
        }
        acc[e.var] += e.coeff;
      }
      std::sort(touched.begin(), touched.end());
      for (int32_t v : touched) {
        if (acc[v] != 0.0) {
          rows[i].push_back({v, acc[v]});
        }
        acc[v] = 0.0;
        seen[v] = false;
      }
    }
  }

  std::vector<bool> var_alive(n, true);
  std::vector<bool> row_alive(m, true);
  fixed_value_.assign(n, 0.0);
  fixed_status_.assign(n, kStAtLower);
  std::vector<int32_t> row_nnz(m, 0);
  // Column view of the working rows; RowEntry is reused as (row, coeff).
  std::vector<std::vector<RowEntry>> cols(n);
  for (int32_t i = 0; i < m; ++i) {
    row_nnz[i] = static_cast<int32_t>(rows[i].size());
    for (const RowEntry& e : rows[i]) {
      cols[e.var].push_back({i, e.coeff});
    }
  }

  // Removes var j from the problem at value v, substituting it into every
  // row it appears in (the row's constant moves into its bounds).
  auto fix_var = [&](int32_t j, double v, uint8_t st) {
    var_alive[j] = false;
    fixed_value_[j] = v;
    fixed_status_[j] = st;
    vlbf_[j] = vubf_[j] = v;
    ++stats_.vars_removed;
    for (const RowEntry& rc : cols[j]) {
      int32_t r = rc.var;  // Row id in the column view.
      if (!row_alive[r]) {
        continue;
      }
      if (std::isfinite(rlb[r])) {
        rlb[r] -= rc.coeff * v;
      }
      if (std::isfinite(rub[r])) {
        rub[r] -= rc.coeff * v;
      }
      --row_nnz[r];
    }
  };

  bool infeasible = false;
  bool changed = true;
  int pass = 0;
  while (changed && !infeasible && pass < kMaxPasses) {
    changed = false;
    ++pass;

    // --- Fixed (and crossed) variables. ---
    for (int32_t j = 0; j < n; ++j) {
      if (!var_alive[j]) {
        continue;
      }
      if (vlbf_[j] > vubf_[j] + kTol) {
        infeasible = true;
        break;
      }
      if (std::isfinite(vlbf_[j]) && std::isfinite(vubf_[j]) && vubf_[j] - vlbf_[j] <= kTol) {
        double v = 0.5 * (vlbf_[j] + vubf_[j]);
        uint8_t st = kStAtLower;
        // Snap to an original bound when possible: the basis import on the
        // full model places the variable exactly there.
        if (std::fabs(v - vlb0_[j]) <= kTol) {
          v = vlb0_[j];
          st = kStAtLower;
        } else if (std::fabs(v - vub0_[j]) <= kTol) {
          v = vub0_[j];
          st = kStAtUpper;
        }
        fix_var(j, v, st);
        changed = true;
      }
    }
    if (infeasible) {
      break;
    }

    // --- Empty rows: constraint collapsed to rlb' <= 0 <= rub'. ---
    for (int32_t i = 0; i < m; ++i) {
      if (!row_alive[i] || row_nnz[i] != 0) {
        continue;
      }
      if (rlb[i] > kFeasMargin || rub[i] < -kFeasMargin) {
        infeasible = true;
        break;
      }
      row_alive[i] = false;
      ++stats_.rows_removed;
      changed = true;
    }
    if (infeasible) {
      break;
    }

    // --- Singleton rows: a * x[j] in [rlb, rub] folds into x[j]'s bounds. ---
    for (int32_t i = 0; i < m; ++i) {
      if (!row_alive[i] || row_nnz[i] != 1) {
        continue;
      }
      int32_t j = -1;
      double a = 0.0;
      for (const RowEntry& e : rows[i]) {
        if (var_alive[e.var]) {
          j = e.var;
          a = e.coeff;
          break;
        }
      }
      if (j < 0) {
        continue;
      }
      double lo, hi;
      if (a > 0) {
        lo = rlb[i] / a;
        hi = rub[i] / a;
      } else {
        lo = rub[i] / a;
        hi = rlb[i] / a;
      }
      folds_.push_back({i, j, a, lo, hi});
      if (lo > vlbf_[j]) {
        vlbf_[j] = lo;
        ++stats_.bounds_tightened;
      }
      if (hi < vubf_[j]) {
        vubf_[j] = hi;
        ++stats_.bounds_tightened;
      }
      row_alive[i] = false;
      ++stats_.rows_removed;
      ++stats_.singleton_rows_folded;
      changed = true;
      if (vlbf_[j] > vubf_[j] + kTol) {
        infeasible = true;
        break;
      }
    }
    if (infeasible) {
      break;
    }

    // --- Activity-based pass: exact reductions only (infeasibility
    // detection, redundant-row removal, and pinning a variable to one of its
    // ORIGINAL bounds). Non-pinning tightened bounds are not adopted: they
    // would make the postsolved basis inexact for no model-size gain. ---
    for (int32_t i = 0; i < m && !infeasible; ++i) {
      if (!row_alive[i] || row_nnz[i] == 0) {
        continue;
      }
      // Activity range with explicit infinity counting so removing one
      // term never produces inf - inf.
      double fin_min = 0.0, fin_max = 0.0;
      int inf_min = 0, inf_max = 0;
      for (const RowEntry& e : rows[i]) {
        if (!var_alive[e.var]) {
          continue;
        }
        double tmin = e.coeff > 0 ? e.coeff * vlbf_[e.var] : e.coeff * vubf_[e.var];
        double tmax = e.coeff > 0 ? e.coeff * vubf_[e.var] : e.coeff * vlbf_[e.var];
        if (std::isfinite(tmin)) {
          fin_min += tmin;
        } else {
          ++inf_min;
        }
        if (std::isfinite(tmax)) {
          fin_max += tmax;
        } else {
          ++inf_max;
        }
      }
      double min_act = inf_min > 0 ? -kInf : fin_min;
      double max_act = inf_max > 0 ? kInf : fin_max;
      if (min_act > rub[i] + kFeasMargin || max_act < rlb[i] - kFeasMargin) {
        infeasible = true;
        break;
      }
      // Redundant row: the variable bounds alone imply both row bounds.
      // Its slack goes basic in postsolve — an exact reduction.
      if (min_act >= rlb[i] - kTol && max_act <= rub[i] + kTol) {
        row_alive[i] = false;
        ++stats_.rows_removed;
        changed = true;
        continue;
      }
      // Pin a variable to one of its ORIGINAL bounds when the other terms
      // force it there; the postsolve status is then exact.
      for (const RowEntry& e : rows[i]) {
        int32_t j = e.var;
        if (!var_alive[j] || std::fabs(e.coeff) < 1e-12) {
          continue;
        }
        double tmin = e.coeff > 0 ? e.coeff * vlbf_[j] : e.coeff * vubf_[j];
        double tmax = e.coeff > 0 ? e.coeff * vubf_[j] : e.coeff * vlbf_[j];
        double omin = std::isfinite(tmin) ? (inf_min > 0 ? -kInf : fin_min - tmin)
                                          : (inf_min > 1 ? -kInf : fin_min);
        double omax = std::isfinite(tmax) ? (inf_max > 0 ? kInf : fin_max - tmax)
                                          : (inf_max > 1 ? kInf : fin_max);
        // rlb - omax <= coeff * x[j] <= rub - omin.
        double blo =
            (std::isfinite(rlb[i]) && std::isfinite(omax)) ? rlb[i] - omax : -kInf;
        double bhi =
            (std::isfinite(rub[i]) && std::isfinite(omin)) ? rub[i] - omin : kInf;
        double ilo = e.coeff > 0 ? blo / e.coeff : bhi / e.coeff;
        double ihi = e.coeff > 0 ? bhi / e.coeff : blo / e.coeff;
        if (std::isfinite(vubf_[j]) && vubf_[j] == vub0_[j]) {
          if (ilo > vubf_[j] + kFeasMargin) {
            infeasible = true;
            break;
          }
          if (ilo >= vubf_[j] - kTol) {
            fix_var(j, vub0_[j], kStAtUpper);
            ++stats_.bounds_tightened;
            changed = true;
            break;  // Row activity is stale now; next pass rescans.
          }
        }
        if (std::isfinite(vlbf_[j]) && vlbf_[j] == vlb0_[j]) {
          if (ihi < vlbf_[j] - kFeasMargin) {
            infeasible = true;
            break;
          }
          if (ihi <= vlbf_[j] + kTol) {
            fix_var(j, vlb0_[j], kStAtLower);
            ++stats_.bounds_tightened;
            changed = true;
            break;
          }
        }
      }
    }
  }

  stats_.infeasible = infeasible;
  if (infeasible) {
    return true;
  }
  if (stats_.rows_removed + stats_.vars_removed < kMinReduction) {
    return false;
  }

  // --- Build the reduced model. ---
  var_map_.assign(n, -1);
  row_map_.assign(m, -1);
  alive_vars_.clear();
  alive_rows_.clear();
  for (int32_t j = 0; j < n; ++j) {
    if (var_alive[j]) {
      var_map_[j] = static_cast<int32_t>(alive_vars_.size());
      alive_vars_.push_back(j);
    }
  }
  for (int32_t i = 0; i < m; ++i) {
    if (row_alive[i]) {
      row_map_[i] = static_cast<int32_t>(alive_rows_.size());
      alive_rows_.push_back(i);
    }
  }
  reduced_n_ = static_cast<int32_t>(alive_vars_.size());
  reduced_m_ = static_cast<int32_t>(alive_rows_.size());
  reduced_ = Model();
  for (int32_t j : alive_vars_) {
    double lo = vlbf_[j];
    double hi = vubf_[j];
    if (lo > hi) {  // Within kTol by the checks above; collapse exactly.
      lo = hi = 0.5 * (lo + hi);
      vlbf_[j] = vubf_[j] = lo;
    }
    reduced_.AddVariable(lo, hi, cost[j], model.variable(j).is_integer);
  }
  for (int32_t i : alive_rows_) {
    RowId r = reduced_.AddRow(rlb[i], rub[i]);
    for (const RowEntry& e : rows[i]) {
      if (var_alive[e.var]) {
        reduced_.AddCoefficient(r, var_map_[e.var], e.coeff);
      }
    }
  }
  reduced_.EnsureCompressedCache();
  return true;
}

std::vector<double> PresolvedLp::RestorePrimal(const std::vector<double>& reduced_x) const {
  std::vector<double> x(n0_, 0.0);
  for (int32_t j = 0; j < n0_; ++j) {
    if (var_map_[j] >= 0) {
      x[j] = static_cast<size_t>(var_map_[j]) < reduced_x.size() ? reduced_x[var_map_[j]] : 0.0;
    } else {
      x[j] = fixed_value_[j];
    }
  }
  return x;
}

SimplexBasis PresolvedLp::RestoreBasis(const SimplexBasis& reduced_basis) const {
  SimplexBasis out;
  if (reduced_basis.basic.size() != static_cast<size_t>(reduced_m_) ||
      reduced_basis.status.size() != static_cast<size_t>(reduced_n_ + reduced_m_)) {
    return out;  // Shape mismatch: empty basis, import fails, caller re-solves.
  }
  const int32_t n = n0_;
  const int32_t m = m0_;
  out.basic.assign(m, 0);
  out.status.assign(static_cast<size_t>(n) + m, kStAtLower);
  for (int32_t j = 0; j < n; ++j) {
    out.status[j] = var_map_[j] >= 0 ? reduced_basis.status[var_map_[j]] : fixed_status_[j];
  }
  for (int32_t i = 0; i < m; ++i) {
    if (row_map_[i] >= 0) {
      out.status[n + i] = reduced_basis.status[reduced_n_ + row_map_[i]];
      int32_t rb = reduced_basis.basic[row_map_[i]];
      out.basic[i] = rb < reduced_n_ ? alive_vars_[rb] : n + alive_rows_[rb - reduced_n_];
    } else {
      // Dropped row (empty, redundant, or folded): its slack goes basic and
      // simply takes whatever activity the other columns give it.
      out.basic[i] = n + i;
      out.status[n + i] = kStBasic;
    }
  }
  // Singleton-fold fix-up: a column resting on a bound that exists only in
  // the folded model pivots into its fold row; the row's slack takes the
  // matching original row bound. The pair swap keeps the basis nonsingular —
  // the fold row's only surviving column is the folded variable itself.
  for (const SingletonFold& f : folds_) {
    int32_t j = f.var;
    uint8_t st = out.status[j];
    if (st != kStAtLower && st != kStAtUpper) {
      continue;
    }
    if (out.basic[f.row] != n + f.row) {
      continue;  // Fold row already consumed by an earlier fix-up.
    }
    double rv, ob, fb;
    if (st == kStAtLower) {
      rv = var_map_[j] >= 0 ? vlbf_[j] : fixed_value_[j];
      ob = vlb0_[j];
      fb = f.lo;
    } else {
      rv = var_map_[j] >= 0 ? vubf_[j] : fixed_value_[j];
      ob = vub0_[j];
      fb = f.hi;
    }
    if (!std::isfinite(rv)) {
      continue;
    }
    double match_tol = 1e-7 * (1.0 + std::fabs(rv));
    if (std::isfinite(ob) && std::fabs(rv - ob) <= match_tol) {
      continue;  // Resting on an original bound: status already exact.
    }
    if (!std::isfinite(fb) || std::fabs(fb - rv) > match_tol) {
      continue;  // This fold is not the one that set the resting bound.
    }
    out.basic[f.row] = j;
    out.status[j] = kStBasic;
    bool slack_low = (st == kStAtLower) == (f.coeff > 0);
    out.status[n + f.row] = slack_low ? kStAtLower : kStAtUpper;
  }
  out.rows = m;
  out.vars = n;
  out.nonzeros = nnz0_;
  return out;
}

}  // namespace ras
