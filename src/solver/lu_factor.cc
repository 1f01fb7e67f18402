#include "src/solver/lu_factor.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace ras {
namespace {

// A best pivot at or below this magnitude means the basis is singular.
constexpr double kSingularTol = 1e-11;
// Threshold partial pivoting: any candidate within this factor of the
// column's largest entry is acceptable, and the sparsest row wins.
constexpr double kPivotThreshold = 0.1;

}  // namespace

bool LuFactor::Factor(int32_t m, int32_t n, const std::vector<int32_t>& basis,
                      const std::vector<int32_t>& starts, const std::vector<int32_t>& rows,
                      const std::vector<double>& values) {
  m_ = m;
  step_row_.clear();
  step_pos_.clear();
  u_diag_.clear();
  u_start_.assign(1, 0);
  u_index_.clear();
  u_value_.clear();
  l_row_.clear();
  l_start_.assign(1, 0);
  l_index_.clear();
  l_value_.clear();
  eta_pos_.clear();
  eta_pivot_.clear();
  eta_start_.assign(1, 0);
  eta_index_.clear();
  eta_value_.clear();

  row_step_.assign(m, -1);
  row_lcol_.assign(m, -1);
  row_count_.assign(m, 0);
  work_.assign(m, 0.0);
  visited_.assign(m, -1);
  stack_row_.resize(m);
  stack_next_.resize(m);

  auto add_step = [&](int32_t row, int32_t pos, double diag) {
    row_step_[row] = static_cast<int32_t>(step_row_.size());
    step_row_.push_back(row);
    step_pos_.push_back(pos);
    u_diag_.push_back(diag);
    u_start_.push_back(static_cast<int32_t>(u_index_.size()));
  };

  // Slack singletons first: -e_r pivots on row r with nothing to eliminate.
  // The basis holds each column once, so two slacks never share a row.
  std::vector<std::pair<int32_t, int32_t>> structural;  // (length, position)
  for (int32_t pos = 0; pos < m; ++pos) {
    int32_t col = basis[pos];
    if (col >= n) {
      add_step(col - n, pos, -1.0);
    } else {
      structural.push_back({starts[col + 1] - starts[col], pos});
      for (int32_t k = starts[col]; k < starts[col + 1]; ++k) {
        ++row_count_[rows[k]];
      }
    }
  }
  slack_steps_ = static_cast<int32_t>(step_row_.size());
  std::sort(structural.begin(), structural.end());

  for (size_t s = 0; s < structural.size(); ++s) {
    const int32_t pos = structural[s].second;
    const int32_t col = basis[pos];
    const int32_t stamp = static_cast<int32_t>(s);

    // Symbolic: every row the column reaches through L's column graph, in
    // DFS postorder, so its reverse is a valid elimination order.
    reach_.clear();
    for (int32_t k = starts[col]; k < starts[col + 1]; ++k) {
      int32_t start = rows[k];
      if (visited_[start] == stamp) {
        continue;
      }
      visited_[start] = stamp;
      int32_t top = 0;
      stack_row_[0] = start;
      stack_next_[0] = row_lcol_[start] >= 0 ? l_start_[row_lcol_[start]] : 0;
      while (top >= 0) {
        int32_t r = stack_row_[top];
        int32_t c = row_lcol_[r];
        if (c >= 0) {
          int32_t p = stack_next_[top];
          int32_t end = l_start_[c + 1];
          while (p < end && visited_[l_index_[p]] == stamp) {
            ++p;
          }
          if (p < end) {
            stack_next_[top] = p + 1;
            int32_t child = l_index_[p];
            visited_[child] = stamp;
            ++top;
            stack_row_[top] = child;
            stack_next_[top] = row_lcol_[child] >= 0 ? l_start_[row_lcol_[child]] : 0;
            continue;
          }
        }
        reach_.push_back(r);
        --top;
      }
    }

    // Numeric: x = L^-1 a over the reach.
    for (int32_t k = starts[col]; k < starts[col + 1]; ++k) {
      work_[rows[k]] += values[k];
    }
    for (size_t i = reach_.size(); i-- > 0;) {
      int32_t c = row_lcol_[reach_[i]];
      double v = work_[reach_[i]];
      if (c < 0 || v == 0.0) {
        continue;
      }
      for (int32_t e = l_start_[c]; e < l_start_[c + 1]; ++e) {
        work_[l_index_[e]] -= l_value_[e] * v;
      }
    }

    // Pivot among the rows not yet eliminated.
    double max_abs = 0.0;
    for (int32_t r : reach_) {
      if (row_step_[r] < 0) {
        max_abs = std::max(max_abs, std::fabs(work_[r]));
      }
    }
    if (max_abs <= kSingularTol) {
      return false;
    }
    int32_t pivot_row = -1;
    for (int32_t r : reach_) {
      double a = std::fabs(work_[r]);
      if (row_step_[r] >= 0 || a < kPivotThreshold * max_abs) {
        continue;
      }
      if (pivot_row < 0 || row_count_[r] < row_count_[pivot_row]) {
        pivot_row = r;
        continue;
      }
      if (row_count_[r] == row_count_[pivot_row]) {
        double best = std::fabs(work_[pivot_row]);
        if (a > best || (a == best && r < pivot_row)) {
          pivot_row = r;
        }
      }
    }
    const double diag = work_[pivot_row];

    for (int32_t r : reach_) {
      if (row_step_[r] >= 0 && work_[r] != 0.0) {
        u_index_.push_back(r);
        u_value_.push_back(work_[r]);
      }
    }
    size_t l_begin = l_index_.size();
    for (int32_t r : reach_) {
      if (row_step_[r] < 0 && r != pivot_row && work_[r] != 0.0) {
        l_index_.push_back(r);
        l_value_.push_back(work_[r] / diag);
      }
    }
    if (l_index_.size() > l_begin) {
      row_lcol_[pivot_row] = static_cast<int32_t>(l_row_.size());
      l_row_.push_back(pivot_row);
      l_start_.push_back(static_cast<int32_t>(l_index_.size()));
    }
    add_step(pivot_row, pos, diag);

    for (int32_t k = starts[col]; k < starts[col + 1]; ++k) {
      --row_count_[rows[k]];
    }
    for (int32_t r : reach_) {
      work_[r] = 0.0;
    }
  }
  return true;
}

void LuFactor::Ftran(std::vector<double>& rhs, std::vector<double>& x) const {
  x.resize(m_);
  for (size_t c = 0; c < l_row_.size(); ++c) {
    double v = rhs[l_row_[c]];
    if (v == 0.0) {
      continue;
    }
    for (int32_t e = l_start_[c]; e < l_start_[c + 1]; ++e) {
      rhs[l_index_[e]] -= l_value_[e] * v;
    }
  }
  for (int32_t k = m_ - 1; k >= slack_steps_; --k) {
    double v = rhs[step_row_[k]];
    if (v != 0.0) {
      v /= u_diag_[k];
      for (int32_t e = u_start_[k]; e < u_start_[k + 1]; ++e) {
        rhs[u_index_[e]] -= u_value_[e] * v;
      }
    }
    x[step_pos_[k]] = v;
  }
  for (int32_t k = slack_steps_ - 1; k >= 0; --k) {
    const double v = rhs[step_row_[k]];
    x[step_pos_[k]] = v != 0.0 ? -v : v;
  }
  for (size_t t = 0; t < eta_pos_.size(); ++t) {
    double v = x[eta_pos_[t]];
    if (v == 0.0) {
      continue;
    }
    v /= eta_pivot_[t];
    x[eta_pos_[t]] = v;
    for (int32_t e = eta_start_[t]; e < eta_start_[t + 1]; ++e) {
      x[eta_index_[e]] -= eta_value_[e] * v;
    }
  }
}

void LuFactor::Btran(std::vector<double>& c, std::vector<double>& y) const {
  y.resize(m_);
  for (size_t t = eta_pos_.size(); t-- > 0;) {
    double s = c[eta_pos_[t]];
    for (int32_t e = eta_start_[t]; e < eta_start_[t + 1]; ++e) {
      s -= eta_value_[e] * c[eta_index_[e]];
    }
    c[eta_pos_[t]] = s / eta_pivot_[t];
  }
  for (int32_t k = 0; k < slack_steps_; ++k) {
    y[step_row_[k]] = -c[step_pos_[k]];
  }
  for (int32_t k = slack_steps_; k < m_; ++k) {
    double s = c[step_pos_[k]];
    for (int32_t e = u_start_[k]; e < u_start_[k + 1]; ++e) {
      s -= u_value_[e] * y[u_index_[e]];
    }
    y[step_row_[k]] = s / u_diag_[k];
  }
  for (size_t l = l_row_.size(); l-- > 0;) {
    double s = 0.0;
    for (int32_t e = l_start_[l]; e < l_start_[l + 1]; ++e) {
      s += l_value_[e] * y[l_index_[e]];
    }
    y[l_row_[l]] -= s;
  }
}

void LuFactor::AddEta(int32_t pos, const std::vector<double>& alpha,
                      const std::vector<int32_t>& nz) {
  eta_pos_.push_back(pos);
  eta_pivot_.push_back(alpha[pos]);
  for (int32_t p : nz) {
    if (p != pos) {
      eta_index_.push_back(p);
      eta_value_.push_back(alpha[p]);
    }
  }
  eta_start_.push_back(static_cast<int32_t>(eta_index_.size()));
}

}  // namespace ras
