#include "tests/solver/dense_simplex_oracle.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

namespace ras {
namespace {

constexpr double kFeasTol = 1e-7;
constexpr double kOptTol = 1e-7;
constexpr double kPivotTol = 1e-9;
constexpr int kRefactorInterval = 256;
constexpr int kBlandTrigger = 60;

enum class ColStatus { kBasic, kAtLower, kAtUpper, kFree };

class DenseSimplex {
 public:
  DenseSimplex(const Model& model, const std::vector<BoundOverride>& overrides)
      : m_(static_cast<int32_t>(model.num_rows())),
        n_(static_cast<int32_t>(model.num_variables())),
        total_(m_ + n_),
        a_(static_cast<size_t>(m_) * n_, 0.0),
        lb_(total_),
        ub_(total_),
        cost_(total_, 0.0) {
    CscMatrix csc = model.CompressedColumns();
    for (int32_t j = 0; j < n_; ++j) {
      for (int32_t k = csc.col_starts[j]; k < csc.col_starts[j + 1]; ++k) {
        a_[static_cast<size_t>(csc.rows[k]) * n_ + j] = csc.values[k];
      }
      lb_[j] = model.variable(j).lb;
      ub_[j] = model.variable(j).ub;
      cost_[j] = model.variable(j).cost;
    }
    for (const BoundOverride& o : overrides) {
      lb_[o.var] = o.lb;
      ub_[o.var] = o.ub;
    }
    for (int32_t i = 0; i < m_; ++i) {
      lb_[n_ + i] = model.row(i).lb;
      ub_[n_ + i] = model.row(i).ub;
    }
  }

  LpResult Run(const Model& model);

 private:
  // Entry (row, col) of [A | -I].
  double Entry(int32_t row, int32_t col) const {
    if (col >= n_) {
      return col - n_ == row ? -1.0 : 0.0;
    }
    return a_[static_cast<size_t>(row) * n_ + col];
  }
  double& Inv(int32_t pos, int32_t row) { return binv_[static_cast<size_t>(pos) * m_ + row]; }

  bool Invert();
  void ComputeBasicValues();
  double TotalInfeasibility() const;

  int32_t m_;
  int32_t n_;
  int32_t total_;
  std::vector<double> a_;  // Dense m_ x n_ row-major structural matrix.
  std::vector<double> lb_;
  std::vector<double> ub_;
  std::vector<double> cost_;
  std::vector<int32_t> basis_;
  std::vector<ColStatus> status_;
  std::vector<double> value_;
  std::vector<double> binv_;  // Dense m_ x m_ basis inverse, row = basis position.
};

bool DenseSimplex::Invert() {
  // Gauss–Jordan elimination on [B | I] with partial pivoting.
  std::vector<double> mat(static_cast<size_t>(m_) * m_);
  std::vector<double> inv(static_cast<size_t>(m_) * m_, 0.0);
  for (int32_t r = 0; r < m_; ++r) {
    for (int32_t pos = 0; pos < m_; ++pos) {
      mat[static_cast<size_t>(r) * m_ + pos] = Entry(r, basis_[pos]);
    }
    inv[static_cast<size_t>(r) * m_ + r] = 1.0;
  }
  for (int32_t col = 0; col < m_; ++col) {
    int32_t pivot_row = -1;
    double best = 1e-11;
    for (int32_t r = col; r < m_; ++r) {
      double v = std::fabs(mat[static_cast<size_t>(r) * m_ + col]);
      if (v > best) {
        best = v;
        pivot_row = r;
      }
    }
    if (pivot_row < 0) {
      return false;
    }
    for (int32_t c = 0; c < m_; ++c) {
      std::swap(mat[static_cast<size_t>(pivot_row) * m_ + c], mat[static_cast<size_t>(col) * m_ + c]);
      std::swap(inv[static_cast<size_t>(pivot_row) * m_ + c], inv[static_cast<size_t>(col) * m_ + c]);
    }
    double inv_pivot = 1.0 / mat[static_cast<size_t>(col) * m_ + col];
    for (int32_t c = 0; c < m_; ++c) {
      mat[static_cast<size_t>(col) * m_ + c] *= inv_pivot;
      inv[static_cast<size_t>(col) * m_ + c] *= inv_pivot;
    }
    for (int32_t r = 0; r < m_; ++r) {
      double factor = mat[static_cast<size_t>(r) * m_ + col];
      if (r == col || factor == 0.0) {
        continue;
      }
      for (int32_t c = 0; c < m_; ++c) {
        mat[static_cast<size_t>(r) * m_ + c] -= factor * mat[static_cast<size_t>(col) * m_ + c];
        inv[static_cast<size_t>(r) * m_ + c] -= factor * inv[static_cast<size_t>(col) * m_ + c];
      }
    }
  }
  binv_ = std::move(inv);
  return true;
}

void DenseSimplex::ComputeBasicValues() {
  // x_B = B^-1 r with r = -(sum over nonbasic j of A_j x_j).
  std::vector<double> r(m_, 0.0);
  for (int32_t j = 0; j < total_; ++j) {
    if (status_[j] == ColStatus::kBasic || value_[j] == 0.0) {
      continue;
    }
    for (int32_t i = 0; i < m_; ++i) {
      r[i] -= Entry(i, j) * value_[j];
    }
  }
  for (int32_t pos = 0; pos < m_; ++pos) {
    double sum = 0.0;
    for (int32_t i = 0; i < m_; ++i) {
      sum += Inv(pos, i) * r[i];
    }
    value_[basis_[pos]] = sum;
  }
}

double DenseSimplex::TotalInfeasibility() const {
  double total = 0.0;
  for (int32_t col : basis_) {
    total += std::max(0.0, lb_[col] - value_[col]) + std::max(0.0, value_[col] - ub_[col]);
  }
  return total;
}

LpResult DenseSimplex::Run(const Model& model) {
  LpResult result;
  for (int32_t j = 0; j < total_; ++j) {
    if (lb_[j] > ub_[j]) {
      result.status = LpStatus::kInfeasible;
      return result;
    }
  }
  status_.assign(total_, ColStatus::kAtLower);
  value_.assign(total_, 0.0);
  for (int32_t j = 0; j < total_; ++j) {
    if (std::isfinite(lb_[j])) {
      value_[j] = lb_[j];
    } else if (std::isfinite(ub_[j])) {
      status_[j] = ColStatus::kAtUpper;
      value_[j] = ub_[j];
    } else {
      status_[j] = ColStatus::kFree;
    }
  }
  basis_.resize(m_);
  for (int32_t i = 0; i < m_; ++i) {
    basis_[i] = n_ + i;
    status_[n_ + i] = ColStatus::kBasic;
  }
  Invert();  // B = -I.
  ComputeBasicValues();

  const int64_t max_iters = 200 + 40LL * (static_cast<int64_t>(m_) + total_);
  std::vector<double> cb(m_);
  std::vector<double> y(m_);
  std::vector<double> alpha(m_);
  int degenerate_run = 0;
  bool bland = false;
  int pivots = 0;
  int64_t iter = 0;
  for (; iter < max_iters; ++iter) {
    bool phase1 = false;
    for (int32_t col : basis_) {
      phase1 = phase1 || value_[col] < lb_[col] - kFeasTol || value_[col] > ub_[col] + kFeasTol;
    }
    for (int32_t pos = 0; pos < m_; ++pos) {
      int32_t col = basis_[pos];
      if (!phase1) {
        cb[pos] = cost_[col];
      } else if (value_[col] > ub_[col] + kFeasTol) {
        cb[pos] = 1.0;
      } else if (value_[col] < lb_[col] - kFeasTol) {
        cb[pos] = -1.0;
      } else {
        cb[pos] = 0.0;
      }
    }
    for (int32_t i = 0; i < m_; ++i) {
      y[i] = 0.0;
      for (int32_t pos = 0; pos < m_; ++pos) {
        y[i] += cb[pos] * Inv(pos, i);
      }
    }

    // Full Dantzig pricing (Bland: first eligible index).
    int32_t entering = -1;
    int dir = 0;
    double best_violation = kOptTol;
    for (int32_t j = 0; j < total_; ++j) {
      if (status_[j] == ColStatus::kBasic || lb_[j] == ub_[j]) {
        continue;
      }
      double d = phase1 ? 0.0 : cost_[j];
      for (int32_t i = 0; i < m_; ++i) {
        d -= y[i] * Entry(i, j);
      }
      int jdir = 0;
      if ((status_[j] == ColStatus::kAtLower || status_[j] == ColStatus::kFree) && d < -kOptTol) {
        jdir = +1;
      } else if ((status_[j] == ColStatus::kAtUpper || status_[j] == ColStatus::kFree) &&
                 d > kOptTol) {
        jdir = -1;
      }
      if (jdir != 0 && (bland || std::fabs(d) > best_violation)) {
        best_violation = std::fabs(d);
        entering = j;
        dir = jdir;
        if (bland) {
          break;
        }
      }
    }
    if (entering < 0) {
      if (phase1) {
        result.status = LpStatus::kInfeasible;
        result.iterations = iter;
        return result;
      }
      break;
    }

    for (int32_t pos = 0; pos < m_; ++pos) {
      alpha[pos] = 0.0;
      for (int32_t i = 0; i < m_; ++i) {
        alpha[pos] += Inv(pos, i) * Entry(i, entering);
      }
    }

    // Ratio test: in phase 1 an infeasible basic blocks only on reaching the
    // bound it violates; a feasible one blocks at the bound it moves toward.
    double best_step = kInf;
    int32_t leaving_pos = -1;
    double leaving_target = 0.0;
    double best_mag = 0.0;
    for (int32_t pos = 0; pos < m_; ++pos) {
      double a = alpha[pos];
      if (std::fabs(a) < kPivotTol) {
        continue;
      }
      double rate = -dir * a;
      int32_t col = basis_[pos];
      double x = value_[col];
      bool below = x < lb_[col] - kFeasTol;
      bool above = x > ub_[col] + kFeasTol;
      double target;
      if (rate > 0) {
        if (above || (!below && !std::isfinite(ub_[col]))) {
          continue;
        }
        target = below ? lb_[col] : ub_[col];
      } else {
        if (below || (!above && !std::isfinite(lb_[col]))) {
          continue;
        }
        target = above ? ub_[col] : lb_[col];
      }
      double step = std::max((target - x) / rate, 0.0);
      if (step < best_step - 1e-12 || (step < best_step + 1e-12 && std::fabs(a) > best_mag)) {
        best_step = step;
        leaving_pos = pos;
        leaving_target = target;
        best_mag = std::fabs(a);
      }
    }
    double own_range = ub_[entering] - lb_[entering];
    bool own_blocks = std::isfinite(own_range) && own_range < best_step;
    if (own_blocks) {
      best_step = own_range;
    } else if (leaving_pos < 0) {
      result.status = phase1 ? LpStatus::kNumericalFailure : LpStatus::kUnbounded;
      result.iterations = iter;
      return result;
    }
    if (best_step < kFeasTol) {
      bland = ++degenerate_run > kBlandTrigger;
    } else {
      degenerate_run = 0;
      bland = false;
    }

    double delta = dir * best_step;
    for (int32_t pos = 0; pos < m_; ++pos) {
      value_[basis_[pos]] -= alpha[pos] * delta;
    }
    value_[entering] += delta;
    if (own_blocks) {
      status_[entering] = dir > 0 ? ColStatus::kAtUpper : ColStatus::kAtLower;
      value_[entering] = dir > 0 ? ub_[entering] : lb_[entering];
      continue;
    }
    int32_t leaving_col = basis_[leaving_pos];
    value_[leaving_col] = leaving_target;
    status_[leaving_col] =
        leaving_target == lb_[leaving_col] ? ColStatus::kAtLower : ColStatus::kAtUpper;
    basis_[leaving_pos] = entering;
    status_[entering] = ColStatus::kBasic;

    // Product-form row update of the inverse.
    double inv_pivot = 1.0 / alpha[leaving_pos];
    for (int32_t i = 0; i < m_; ++i) {
      Inv(leaving_pos, i) *= inv_pivot;
    }
    for (int32_t pos = 0; pos < m_; ++pos) {
      if (pos == leaving_pos || alpha[pos] == 0.0) {
        continue;
      }
      for (int32_t i = 0; i < m_; ++i) {
        Inv(pos, i) -= alpha[pos] * Inv(leaving_pos, i);
      }
    }
    if (++pivots % kRefactorInterval == 0) {
      if (!Invert()) {
        result.status = LpStatus::kNumericalFailure;
        result.iterations = iter;
        return result;
      }
      ComputeBasicValues();
    }
  }
  result.iterations = iter;
  if (iter >= max_iters) {
    result.status = LpStatus::kIterationLimit;
    return result;
  }
  if (!Invert()) {
    result.status = LpStatus::kNumericalFailure;
    return result;
  }
  ComputeBasicValues();
  if (TotalInfeasibility() > 1e-5) {
    result.status = LpStatus::kNumericalFailure;
    return result;
  }
  result.status = LpStatus::kOptimal;
  result.x.assign(value_.begin(), value_.begin() + n_);
  result.objective = model.Objective(result.x);
  result.duals.assign(m_, 0.0);
  for (int32_t i = 0; i < m_; ++i) {
    for (int32_t pos = 0; pos < m_; ++pos) {
      result.duals[i] += cost_[basis_[pos]] * Inv(pos, i);
    }
  }
  return result;
}

}  // namespace

LpResult SolveDenseReference(const Model& model, const std::vector<BoundOverride>& overrides) {
  return DenseSimplex(model, overrides).Run(model);
}

}  // namespace ras
