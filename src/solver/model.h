// Linear / mixed-integer model container.
//
// A model is a set of variables with bounds and objective costs, and a set of
// rows of the form `row_lb <= a.x <= row_ub`. The solver minimizes. Rows are
// built row-wise (the natural order for the RAS model builder) and the
// simplex transposes into column-major form internally.

#ifndef RAS_SRC_SOLVER_MODEL_H_
#define RAS_SRC_SOLVER_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace ras {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

using VarId = int32_t;
using RowId = int32_t;

struct ModelVariable {
  double lb = 0.0;
  double ub = kInf;
  double cost = 0.0;
  bool is_integer = false;
};

struct ModelRow {
  double lb = -kInf;
  double ub = kInf;
};

struct RowEntry {
  VarId var;
  double coeff;
};

// Column-compressed (CSC) copy of the row-wise constraint matrix. Row indices
// are ascending within each column and duplicate (row, var) pairs from
// AddCoefficient are summed into a single entry — the canonical form consumed
// by the simplex's sparse kernels.
struct CscMatrix {
  std::vector<int32_t> col_starts;  // Size num_cols() + 1.
  std::vector<int32_t> rows;
  std::vector<double> values;

  size_t num_cols() const { return col_starts.empty() ? 0 : col_starts.size() - 1; }
  size_t num_nonzeros() const { return rows.size(); }
};

class Model {
 public:
  VarId AddVariable(double lb, double ub, double cost, bool is_integer);
  // Convenience wrappers.
  VarId AddContinuous(double lb, double ub, double cost) {
    return AddVariable(lb, ub, cost, /*is_integer=*/false);
  }
  VarId AddInteger(double lb, double ub, double cost) {
    return AddVariable(lb, ub, cost, /*is_integer=*/true);
  }

  RowId AddRow(double lb, double ub);
  // Appends a coefficient to a row. Duplicate (row, var) pairs are summed
  // when the column-major form is built.
  void AddCoefficient(RowId row, VarId var, double coeff);

  void SetVariableBounds(VarId var, double lb, double ub);
  void SetRowBounds(RowId row, double lb, double ub);
  void SetObjectiveCost(VarId var, double cost);

  // In-place patch mutators for cross-round model reuse. They are the same
  // operations as the Set* calls above but carry an API contract: they never
  // touch the constraint matrix, so the cached column-major form (see
  // EnsureCompressedCache) stays valid across any number of them. The RAS
  // bound pass (SetRoundBounds) uses only these, on a fresh build and between
  // rounds alike. Unlike the Set* calls (which assert), a crossed range
  // (lb > ub) is rejected — the bound is left untouched and false is
  // returned — so a bad patch from corrupted round input is reported, never
  // silently kept. Under the build's -Werror=unused-result, ignoring the
  // result is a compile error.
  [[nodiscard]] bool UpdateVariableBounds(VarId var, double lb, double ub) {
    if (lb > ub) {
      return false;
    }
    variables_[var].lb = lb;
    variables_[var].ub = ub;
    return true;
  }
  [[nodiscard]] bool UpdateRowBounds(RowId row, double lb, double ub) {
    if (lb > ub) {
      return false;
    }
    rows_[row].lb = lb;
    rows_[row].ub = ub;
    return true;
  }

  size_t num_variables() const { return variables_.size(); }
  size_t num_rows() const { return rows_.size(); }
  size_t num_nonzeros() const { return nonzeros_; }
  const ModelVariable& variable(VarId v) const { return variables_[v]; }
  const ModelRow& row(RowId r) const { return rows_[r]; }
  const std::vector<RowEntry>& row_entries(RowId r) const { return entries_[r]; }
  size_t num_integer_variables() const { return num_integers_; }

  // Builds the column-major (CSC) form of the constraint matrix. Duplicate
  // (row, var) pairs are summed; rows are ascending within each column.
  // Returns a copy of the cached form when one is valid (see
  // EnsureCompressedCache); otherwise computes it fresh without caching, so
  // concurrent callers on a shared const Model never race.
  CscMatrix CompressedColumns() const;
  // The cached form itself, or null when there is none. Read-only, so
  // solvers sharing the model read it without a copy; valid until the next
  // structural edit or EnsureCompressedCache call.
  const CscMatrix* compressed_cache() const { return csc_cache_valid_ ? &csc_cache_ : nullptr; }

  // Builds (or rebuilds) the cached CSC form. Structural edits (AddVariable /
  // AddRow / AddCoefficient) drop the cache; the Update* mutators keep it
  // valid. Not thread-safe — call after the model is fully built and before
  // handing it to concurrent solvers.
  void EnsureCompressedCache();
  bool compressed_cache_valid() const { return csc_cache_valid_; }

  // Evaluates the objective at a point.
  double Objective(const std::vector<double>& x) const;

  // Checks that `x` satisfies variable bounds, row bounds, and integrality,
  // within `tol`. Used to validate warm starts and MIP incumbents.
  bool IsFeasible(const std::vector<double>& x, double tol) const;

  // Rough accounting of the model's heap footprint, for the Figure 11 bench.
  size_t MemoryBytes() const;

 private:
  std::vector<ModelVariable> variables_;
  std::vector<ModelRow> rows_;
  std::vector<std::vector<RowEntry>> entries_;
  size_t nonzeros_ = 0;
  size_t num_integers_ = 0;

  CscMatrix BuildCompressedColumns() const;

  CscMatrix csc_cache_;
  bool csc_cache_valid_ = false;
};

}  // namespace ras

#endif  // RAS_SRC_SOLVER_MODEL_H_
