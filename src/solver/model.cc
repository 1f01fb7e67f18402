#include "src/solver/model.h"

#include <cassert>
#include <cmath>

namespace ras {

VarId Model::AddVariable(double lb, double ub, double cost, bool is_integer) {
  assert(lb <= ub);
  ModelVariable v;
  v.lb = lb;
  v.ub = ub;
  v.cost = cost;
  v.is_integer = is_integer;
  variables_.push_back(std::move(v));
  if (is_integer) {
    ++num_integers_;
  }
  csc_cache_valid_ = false;
  return static_cast<VarId>(variables_.size() - 1);
}

RowId Model::AddRow(double lb, double ub) {
  assert(lb <= ub);
  ModelRow r;
  r.lb = lb;
  r.ub = ub;
  rows_.push_back(std::move(r));
  entries_.emplace_back();
  csc_cache_valid_ = false;
  return static_cast<RowId>(rows_.size() - 1);
}

void Model::AddCoefficient(RowId row, VarId var, double coeff) {
  assert(row >= 0 && static_cast<size_t>(row) < rows_.size());
  assert(var >= 0 && static_cast<size_t>(var) < variables_.size());
  if (coeff == 0.0) {
    return;
  }
  entries_[row].push_back(RowEntry{var, coeff});
  ++nonzeros_;
  csc_cache_valid_ = false;
}

void Model::SetVariableBounds(VarId var, double lb, double ub) {
  assert(lb <= ub);
  variables_[var].lb = lb;
  variables_[var].ub = ub;
}

void Model::SetRowBounds(RowId row, double lb, double ub) {
  assert(lb <= ub);
  rows_[row].lb = lb;
  rows_[row].ub = ub;
}

void Model::SetObjectiveCost(VarId var, double cost) { variables_[var].cost = cost; }

CscMatrix Model::CompressedColumns() const {
  if (csc_cache_valid_) {
    return csc_cache_;
  }
  return BuildCompressedColumns();
}

void Model::EnsureCompressedCache() {
  if (csc_cache_valid_) {
    return;
  }
  csc_cache_ = BuildCompressedColumns();
  csc_cache_valid_ = true;
}

CscMatrix Model::BuildCompressedColumns() const {
  CscMatrix csc;
  const size_t n = variables_.size();
  const size_t m = rows_.size();
  std::vector<int32_t> counts(n, 0);
  for (size_t r = 0; r < m; ++r) {
    for (const RowEntry& e : entries_[r]) {
      ++counts[static_cast<size_t>(e.var)];
    }
  }
  csc.col_starts.assign(n + 1, 0);
  for (size_t j = 0; j < n; ++j) {
    csc.col_starts[j + 1] = csc.col_starts[j] + counts[j];
  }
  csc.rows.assign(static_cast<size_t>(csc.col_starts[n]), 0);
  csc.values.assign(static_cast<size_t>(csc.col_starts[n]), 0.0);

  // Fill in row order so rows are ascending per column; duplicates within a
  // row land adjacently and are merged in place.
  std::vector<int32_t> cursor(csc.col_starts.begin(), csc.col_starts.end() - 1);
  for (size_t r = 0; r < m; ++r) {
    for (const RowEntry& e : entries_[r]) {
      size_t j = static_cast<size_t>(e.var);
      int32_t& cur = cursor[j];
      if (cur > csc.col_starts[j] &&
          csc.rows[static_cast<size_t>(cur - 1)] == static_cast<int32_t>(r)) {
        csc.values[static_cast<size_t>(cur - 1)] += e.coeff;
      } else {
        csc.rows[static_cast<size_t>(cur)] = static_cast<int32_t>(r);
        csc.values[static_cast<size_t>(cur)] = e.coeff;
        ++cur;
      }
    }
  }

  // Merging left gaps at the tail of columns that had duplicates; compact.
  int32_t write = 0;
  std::vector<int32_t> compact_starts(n + 1, 0);
  for (size_t j = 0; j < n; ++j) {
    compact_starts[j] = write;
    for (int32_t k = csc.col_starts[j]; k < cursor[j]; ++k) {
      csc.rows[static_cast<size_t>(write)] = csc.rows[static_cast<size_t>(k)];
      csc.values[static_cast<size_t>(write)] = csc.values[static_cast<size_t>(k)];
      ++write;
    }
  }
  compact_starts[n] = write;
  csc.col_starts = std::move(compact_starts);
  csc.rows.resize(static_cast<size_t>(write));
  csc.values.resize(static_cast<size_t>(write));
  return csc;
}

double Model::Objective(const std::vector<double>& x) const {
  assert(x.size() == variables_.size());
  double obj = 0.0;
  for (size_t j = 0; j < variables_.size(); ++j) {
    obj += variables_[j].cost * x[j];
  }
  return obj;
}

bool Model::IsFeasible(const std::vector<double>& x, double tol) const {
  if (x.size() != variables_.size()) {
    return false;
  }
  for (size_t j = 0; j < variables_.size(); ++j) {
    const ModelVariable& v = variables_[j];
    if (x[j] < v.lb - tol || x[j] > v.ub + tol) {
      return false;
    }
    if (v.is_integer && std::fabs(x[j] - std::round(x[j])) > tol) {
      return false;
    }
  }
  for (size_t r = 0; r < rows_.size(); ++r) {
    double activity = 0.0;
    for (const RowEntry& e : entries_[r]) {
      activity += e.coeff * x[e.var];
    }
    // Scale the tolerance mildly with activity magnitude for long rows.
    double row_tol = tol * (1.0 + std::fabs(activity));
    if (activity < rows_[r].lb - row_tol || activity > rows_[r].ub + row_tol) {
      return false;
    }
  }
  return true;
}

size_t Model::MemoryBytes() const {
  size_t bytes = variables_.capacity() * sizeof(ModelVariable) +
                 rows_.capacity() * sizeof(ModelRow) +
                 entries_.capacity() * sizeof(std::vector<RowEntry>);
  for (const auto& row : entries_) {
    bytes += row.capacity() * sizeof(RowEntry);
  }
  return bytes;
}

}  // namespace ras
