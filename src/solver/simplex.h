// Bounded-variable primal simplex.
//
// Solves  min c.x  s.t.  row_lb <= Ax <= row_ub,  lb <= x <= ub
// by introducing one slack per row (Ax - s = 0, s in [row_lb, row_ub]) so the
// right-hand side is identically zero and the all-slack basis is trivially
// invertible. Infeasibility is driven out with a composite phase-1 objective
// (unit cost per violated basic bound), then phase 2 minimizes the true
// objective. Pricing is partial over a candidate list, with Dantzig full
// scans to refresh it and to declare optimality, and a Bland fallback
// against cycling.
//
// The basis is held as a sparse LU factorization plus a product-form eta
// file (src/solver/lu_factor.h): every solve with the basis — basic values,
// the entering column's FTRAN, pricing duals, the dual simplex's pivot row —
// is a sparse triangular solve, and each pivot appends one eta. The factor is
// rebuilt on a pivot cadence, when the eta file's fill outgrows the basis, or
// on a drifting pivot. There is no dense-inverse path; the dense reference
// simplex lives in tests/solver/ as the differential oracle.
//
// A cold solve starts from the all-slack basis. Given a start point, a
// structural the point puts at (or past) its finite upper bound starts
// nonbasic at that bound instead of at its lower bound; the basis is still
// all-slack, so the first factorization cannot fail, and phase 1 drives out
// whatever row violations the start leaves. For the RAS model, starting from
// the region's current assignment ("nothing moves": each held class at its
// count X) saves about a fifth of the root LP's pivots.
//
// The solve runs on the model as given: the model arrives already shrunk
// by the equivalence classes it is built over (Section 3.5.3), and generic
// row reductions on top of that find almost nothing. ResolveWithBasis
// re-optimizes the retained basis within one solver's lifetime (the
// branch-and-bound node chain); no basis crosses solver instances.
//
// This is the LP engine underneath the branch-and-bound MIP solver
// (src/solver/mip.h), which together substitute for the commercial MIP
// solver used by the paper (Section 3.5).

#ifndef RAS_SRC_SOLVER_SIMPLEX_H_
#define RAS_SRC_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <vector>

#include "src/solver/lu_factor.h"
#include "src/solver/model.h"

namespace ras {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  // The kernel's own per-solve cap or the solver's pivot budget ran out.
  kIterationLimit,
  kNumericalFailure,
};

const char* LpStatusName(LpStatus status);

// What a caller may tune: the refactor and pricing cadences. Everything else
// (tolerances, the iteration cap, Bland's trigger) is a constant in
// simplex.cc. Tests shrink these to force the refactor and pricing-refresh
// paths on small models.
struct LpOptions {
  // Refactorization cadence: rebuild the LU once the eta file holds
  // refactor_interval etas, or early when its nonzeros exceed
  // eta_growth_limit * m — every FTRAN and BTRAN walks the whole file, so fill
  // makes each solve dearer than a fresh factor.
  int refactor_interval = 256;
  double eta_growth_limit = 8.0;

  // Partial pricing: size of the candidate list kept from each full scan.
  int pricing_candidates = 64;
  // Periodic full Dantzig scan cadence (iterations); keeps the candidate list
  // from going stale. Optimality is only ever declared after a full scan, so
  // this is a quality knob, not a correctness one. <= 0 disables the refresh.
  int pricing_refresh_interval = 100;
};

struct LpResult {
  LpStatus status = LpStatus::kNumericalFailure;
  // Structural variable values (size = model.num_variables()).
  std::vector<double> x;
  double objective = 0.0;
  int64_t iterations = 0;
  // Duals (one per row) from the final pricing pass; valid when optimal.
  std::vector<double> duals;

  // --- Kernel instrumentation (reset every solve) ---
  // Basis refactorizations, total and the subset forced by numerical drift
  // or eta fill-in rather than the fixed pivot cadence.
  int refactorizations = 0;
  int adaptive_refactorizations = 0;
  // Wall seconds spent factoring the basis during this call.
  double refactor_seconds = 0.0;
  // Nonzeros of L, U and the eta file when the call returned: the basis
  // footprint, linear in the factor's fill rather than quadratic in rows.
  int64_t factor_nonzeros = 0;
  // Accumulated nonzeros appended to the eta file.
  int64_t eta_nonzeros = 0;
  // Full Dantzig pricing scans (refresh and optimality-verification scans
  // under partial pricing; every iteration under Bland's rule).
  int64_t full_pricing_scans = 0;
  // Dual simplex warm re-solve (ResolveWithBasis): pivots taken by the dual
  // kernel before the primal verifier ran, and whether it ran at all.
  int64_t dual_iterations = 0;
  bool used_dual_simplex = false;
};

// Overrides for variable bounds, used by branch-and-bound to tighten integer
// variables without copying the whole model. Entries replace the model's
// bounds for that variable.
struct BoundOverride {
  VarId var;
  double lb;
  double ub;
};

class SimplexSolver {
 public:
  // `max_pivots` caps the pivots, primal and dual, over the solver's
  // lifetime; a solve that reaches it returns kIterationLimit. The MIP passes
  // its search's budget, so one count, not a clock, covers every node LP.
  explicit SimplexSolver(const LpOptions& options = LpOptions(), int64_t max_pivots = INT64_MAX)
      : options_(options), pivots_left_(max_pivots) {}

  // Cold solve from the all-slack basis. `start`, if given, holds one value
  // per structural: a column j with finite ub_j > lb_j and start[j] >= ub_j
  // starts nonbasic at ub_j; every other column starts at its lower bound
  // (or its finite upper bound, or free at 0) as without a start.
  LpResult Solve(const Model& model) { return Solve(model, {}); }
  LpResult Solve(const Model& model, const std::vector<BoundOverride>& overrides,
                 const std::vector<double>* start = nullptr);

  // Re-solves the SAME model with different bound overrides, starting from
  // the final basis of the previous call. Bound changes leave the basis
  // matrix (and its factorization) valid; only primal values shift, and the
  // composite phase 1 drives out any new violations in a few pivots. This is
  // what makes branch-and-bound nodes cheap: each child differs from its
  // parent by one integer bound. When the retained basis is still
  // dual-feasible (the costs did not move), the dual simplex restores primal
  // feasibility first and the primal loop then verifies; otherwise the primal
  // loop runs alone. Falls back to a cold solve when no compatible basis is
  // available.
  LpResult ResolveWithBasis(const Model& model, const std::vector<BoundOverride>& overrides);

 private:
  enum class ColStatus : uint8_t { kBasic, kAtLower, kAtUpper, kFree };

  // --- One solve's working state ---
  void BuildColumns(const Model& model, const std::vector<BoundOverride>& overrides);
  // Refreshes lb_/ub_/cost_ from the model + overrides without rebuilding
  // the column structure (warm path).
  void RefreshBounds(const Model& model, const std::vector<BoundOverride>& overrides);
  // All-slack basis with every structural nonbasic, placed per `start` (see
  // Solve).
  void InitializeBasis(const std::vector<double>* start);
  // Factors basis_ from scratch (clearing the eta file); false if singular.
  bool Refactorize();
  void ComputeBasicValues();
  // alpha = B^-1 A_col; `nz` receives the positions of its nonzero entries
  // (the ratio test, value update and eta iterate this list).
  void Ftran(int32_t col, std::vector<double>& alpha, std::vector<int32_t>& nz);
  // y^T = c_B^T B^-1 with the true costs: the duals of the current basis.
  void TrueCostDuals(std::vector<double>& y);
  // Refactor trigger after a pivot on `pivot` whose FTRAN column peaked at
  // `column_max`: the eta file reached refactor_interval etas, or (setting
  // *adaptive) its fill or the pivot's drift calls for an early rebuild.
  bool NeedRefactor(double pivot, double column_max, bool* adaptive) const;
  double TotalInfeasibility() const;
  // Puts every nonbasic column on the bound its status names; a status that
  // points at an infinite bound moves to the other bound, or to free at 0
  // when both are infinite. Basic and free columns are untouched.
  void SnapNonbasic();

  LpResult RunSimplex(const Model& model);

  // True when every nonbasic column's reduced cost, priced with the true
  // objective, has the sign its status requires (within tol): the retained
  // basis can be re-optimized with dual pivots.
  bool DualFeasibleBasis(double tol);
  // Bounded-variable dual simplex from the current (dual-feasible) basis:
  // picks the most-violated basic variable, prices its BTRAN row against all
  // nonbasic columns with the dual ratio test, and pivots until primal
  // feasibility or an iteration budget (its own or the pivots left). Counters
  // accumulate into `accum`. Returns false only when the basis factorization
  // broke down mid-flight (the caller must fall back to a cold solve); early
  // exits for budget/stall reasons return true and leave a valid basis for
  // the primal verifier to finish from (or to report the spent budget).
  bool RunDualSimplex(LpResult* accum);

  LpOptions options_;
  int64_t pivots_left_;  // Of the constructor's `max_pivots`.

  // Problem dimensions: m_ rows, n_ structural columns, total_ = n_ + m_.
  int32_t m_ = 0;
  int32_t n_ = 0;
  int32_t total_ = 0;

  // Structural columns in CSC form (slacks implicit): column j's nonzeros
  // live in csc_rows_/csc_values_[csc_starts_[j] .. csc_starts_[j+1]).
  std::vector<int32_t> csc_starts_;
  std::vector<int32_t> csc_rows_;
  std::vector<double> csc_values_;

  std::vector<double> lb_;             // Per column (structural + slack).
  std::vector<double> ub_;
  std::vector<double> cost_;  // True objective costs (slacks: 0).

  std::vector<int32_t> basis_;      // Column basic in each row position.
  std::vector<ColStatus> status_;   // Per column.
  std::vector<int32_t> basis_pos_;  // Column -> row position (or -1).
  std::vector<double> value_;       // Current value per column.
  // LU of the basis plus the etas appended since it was factored. The eta
  // file persists across calls — a warm resolve inherits the previous
  // solve's updates — and drives the refactor cadence and the clean-pass
  // skip.
  LuFactor factor_;
  // Scratch for FTRAN/BTRAN right-hand sides (indexed by row or position).
  std::vector<double> solve_rhs_;
  // Factorization seconds accumulated since the current public call began.
  double refactor_seconds_ = 0.0;

  // Warm-start validity: set after a successful solve; identifies the model
  // shape the retained basis belongs to.
  bool basis_valid_ = false;
  size_t prepared_rows_ = 0;
  size_t prepared_vars_ = 0;
  size_t prepared_nonzeros_ = 0;
};

}  // namespace ras

#endif  // RAS_SRC_SOLVER_SIMPLEX_H_
