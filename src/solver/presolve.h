// LP presolve / postsolve.
//
// Shrinks a Model before the simplex runs — removing fixed variables and
// empty rows, folding singleton rows into variable bounds, and doing
// conservative activity-based tightening — then maps the reduced solution
// and basis back onto the original model. The reductions are chosen so the
// postsolved basis is exact in the common cases (variables resting on
// original bounds, redundant rows' slacks basic) and merely *good* in the
// rest: SimplexSolver always re-verifies the postsolved basis with a primal
// pass on the full model, so an imperfect postsolve costs pivots, never
// correctness.
//
// The classic reference for this layering is the Andersen & Andersen
// presolve; POP-style model shrinking is what the paper's re-solve loop
// leans on for round-over-round speed.

#ifndef RAS_SRC_SOLVER_PRESOLVE_H_
#define RAS_SRC_SOLVER_PRESOLVE_H_

#include <cstdint>
#include <vector>

#include "src/solver/model.h"
#include "src/solver/simplex.h"

namespace ras {

struct PresolveStats {
  int32_t rows_removed = 0;
  int32_t vars_removed = 0;
  int32_t singleton_rows_folded = 0;
  int32_t bounds_tightened = 0;
  // Proven infeasible by an exact reduction (crossed bounds, empty row with
  // 0 outside its range, conflicting activity bounds) — no pivots needed.
  bool infeasible = false;
};

// One Reduce() call's worth of presolve state: the reduced model plus the
// maps needed to restore full-length primal points and bases.
class PresolvedLp {
 public:
  // Reduces `model` viewed through `overrides`. Returns true when the caller
  // should act on the reduction: either stats().infeasible is set, or
  // reduced() holds a strictly smaller model. Returns false when nothing
  // could be removed.
  bool Reduce(const Model& model, const std::vector<BoundOverride>& overrides);

  const Model& reduced() const { return reduced_; }
  const PresolveStats& stats() const { return stats_; }

  // Full-length primal point: reduced values for surviving variables, the
  // substituted value for removed ones.
  std::vector<double> RestorePrimal(const std::vector<double>& reduced_x) const;

  // Full-model basis from a reduced-model basis: surviving columns copy
  // their status, removed variables rest at their substitution bound,
  // dropped rows' slacks go basic, and singleton folds pivot the folded
  // variable into the fold row when it rests on a bound the original model
  // does not have. Returns an empty basis (import will fail, caller falls
  // back) when the reduced basis does not match the reduction's shape.
  SimplexBasis RestoreBasis(const SimplexBasis& reduced_basis) const;

 private:
  // A singleton row a * x[var] in [row_lb, row_ub], folded into x's bounds
  // as [lo, hi] (the implied interval at fold time, after any earlier
  // fixed-variable substitutions into that row's bounds).
  struct SingletonFold {
    int32_t row;
    int32_t var;
    double coeff;
    double lo;
    double hi;
  };

  Model reduced_;
  PresolveStats stats_;

  int32_t n0_ = 0;  // Full model dimensions (fingerprint for RestoreBasis).
  int32_t m0_ = 0;
  size_t nnz0_ = 0;
  int32_t reduced_n_ = 0;
  int32_t reduced_m_ = 0;

  std::vector<int32_t> var_map_;      // Full var -> reduced var, or -1.
  std::vector<int32_t> row_map_;      // Full row -> reduced row, or -1.
  std::vector<int32_t> alive_vars_;   // Reduced var -> full var.
  std::vector<int32_t> alive_rows_;   // Reduced row -> full row.
  std::vector<double> fixed_value_;   // Removed vars' substituted value.
  std::vector<uint8_t> fixed_status_;  // Removed vars' postsolve status.
  std::vector<double> vlb0_, vub0_;   // Original (override-applied) bounds.
  std::vector<double> vlbf_, vubf_;   // Final bounds after folds/pins.
  std::vector<SingletonFold> folds_;
};

}  // namespace ras

#endif  // RAS_SRC_SOLVER_PRESOLVE_H_
