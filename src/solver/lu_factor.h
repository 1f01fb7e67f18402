// Sparse LU factorization of a simplex basis plus a product-form eta file.
//
// The basis B is m x m; its column at basis position p is either a
// structural column of the constraint matrix (CSC storage) or a slack
// column -e_r. Factor() computes row and column permutations with
//
//   B Q = P^T L U
//
// left-looking, one basis column at a time (Gilbert–Peierls): each column
// is solved against the L built so far, with a depth-first search over L's
// column graph giving the sparse topological order, then pivoted. Slack
// columns go first as O(1) singleton steps; structural columns follow,
// shortest first. Pivots use threshold partial pivoting (|x| >= 0.1 max)
// with ties broken toward the row that the fewest remaining basis columns
// touch (a Markowitz-style row count). A best pivot at or below 1e-11
// reports the basis singular.
//
// Each simplex pivot appends one eta (the replaced position, the pivot and
// the nonzeros of the entering column's FTRAN), so after t pivots
//
//   B_t^-1 = E_t ... E_1 B_0^-1.
//
// Ftran applies L, then U, then the etas in order; Btran applies the etas in
// reverse, then U^T, then L^T. Factor() clears the eta file.
//
// Storage is linear in the nonzeros of L, U and the etas; nothing is O(m^2).

#ifndef RAS_SRC_SOLVER_LU_FACTOR_H_
#define RAS_SRC_SOLVER_LU_FACTOR_H_

#include <cstdint>
#include <vector>

namespace ras {

class LuFactor {
 public:
  // Factors the basis whose column at position p is basis[p]: structural
  // column j < n from the CSC arrays (starts/rows/values), or the slack
  // -e_(j - n). Returns false when the basis is singular; the factor is then
  // unusable until the next successful Factor().
  bool Factor(int32_t m, int32_t n, const std::vector<int32_t>& basis,
              const std::vector<int32_t>& starts, const std::vector<int32_t>& rows,
              const std::vector<double>& values);

  // x = B^-1 rhs. `rhs` is indexed by row and is overwritten as scratch;
  // `x` (resized to m) is indexed by basis position.
  void Ftran(std::vector<double>& rhs, std::vector<double>& x) const;

  // y^T = c^T B^-1. `c` is indexed by basis position and is overwritten as
  // scratch; `y` (resized to m) is indexed by row.
  void Btran(std::vector<double>& c, std::vector<double>& y) const;

  // Records the basis change that put a new column at position `pos`, where
  // `alpha` is that column's Ftran (indexed by position) and `nz` lists the
  // positions of its nonzeros.
  void AddEta(int32_t pos, const std::vector<double>& alpha, const std::vector<int32_t>& nz);

  int64_t num_etas() const { return static_cast<int64_t>(eta_pos_.size()); }
  // Nonzeros in the eta file, one per entry plus its pivot.
  int64_t eta_nonzeros() const { return static_cast<int64_t>(eta_index_.size()) + num_etas(); }
  // Nonzeros of L (below the unit diagonal), U (diagonal included) and the
  // eta file: the factorization's memory footprint in entries.
  int64_t nonzeros() const {
    return static_cast<int64_t>(l_index_.size() + u_index_.size() + u_diag_.size()) +
           eta_nonzeros();
  }

 private:
  int32_t m_ = 0;

  // Elimination step k pivoted basis position step_pos_[k] on row
  // step_row_[k] with diagonal u_diag_[k]. U's column k holds the entries
  // u_index_/u_value_[u_start_[k] .. u_start_[k+1]), indexed by the pivot
  // row of the earlier step they belong to.
  std::vector<int32_t> step_row_;
  std::vector<int32_t> step_pos_;
  std::vector<double> u_diag_;
  // Steps [0, slack_steps_) are the basic slacks: diagonal -1, no U entries.
  // The solves negate them instead of dividing, which is the same IEEE
  // result, and skip their empty U columns.
  int32_t slack_steps_ = 0;
  std::vector<int32_t> u_start_;
  std::vector<int32_t> u_index_;
  std::vector<double> u_value_;

  // Nonempty L columns in step order: column c eliminates pivot row
  // l_row_[c] from the rows l_index_[l_start_[c] .. l_start_[c+1]) with
  // multipliers l_value_. Slack steps never have one.
  std::vector<int32_t> l_row_;
  std::vector<int32_t> l_start_;
  std::vector<int32_t> l_index_;
  std::vector<double> l_value_;

  // Eta file: eta t replaced position eta_pos_[t] with pivot eta_pivot_[t];
  // its other nonzeros are eta_index_/eta_value_[eta_start_[t] ..
  // eta_start_[t+1]).
  std::vector<int32_t> eta_pos_;
  std::vector<double> eta_pivot_;
  std::vector<int32_t> eta_start_;
  std::vector<int32_t> eta_index_;
  std::vector<double> eta_value_;

  // Factor() scratch, kept to avoid reallocating per factorization.
  std::vector<int32_t> row_step_;   // Row -> elimination step, or -1.
  std::vector<int32_t> row_lcol_;   // Pivot row -> its L column, or -1.
  std::vector<int32_t> row_count_;  // Row -> unfactored basis columns touching it.
  std::vector<double> work_;
  std::vector<int32_t> visited_;  // DFS stamp per row.
  std::vector<int32_t> stack_row_;
  std::vector<int32_t> stack_next_;
  std::vector<int32_t> reach_;  // DFS postorder of the current column.
};

}  // namespace ras

#endif  // RAS_SRC_SOLVER_LU_FACTOR_H_
