#include "src/solver/simplex.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/solver/lu_factor.h"
#include "src/util/rng.h"

namespace ras {
namespace {

constexpr double kTol = 1e-6;

TEST(SimplexTest, UnconstrainedBoxMinimum) {
  // min 2x - 3y, x in [1,4], y in [0,5]: x=1, y=5, obj=-13.
  Model m;
  m.AddContinuous(1, 4, 2.0);
  m.AddContinuous(0, 5, -3.0);
  LpResult r = SimplexSolver().Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 1.0, kTol);
  EXPECT_NEAR(r.x[1], 5.0, kTol);
  EXPECT_NEAR(r.objective, -13.0, kTol);
}

TEST(SimplexTest, ClassicTwoVariableLp) {
  // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  (Hillier-Lieberman).
  // Optimal: x=2, y=6, obj=36. We minimize the negation.
  Model m;
  VarId x = m.AddContinuous(0, kInf, -3.0);
  VarId y = m.AddContinuous(0, kInf, -5.0);
  RowId r1 = m.AddRow(-kInf, 4);
  m.AddCoefficient(r1, x, 1);
  RowId r2 = m.AddRow(-kInf, 12);
  m.AddCoefficient(r2, y, 2);
  RowId r3 = m.AddRow(-kInf, 18);
  m.AddCoefficient(r3, x, 3);
  m.AddCoefficient(r3, y, 2);
  LpResult r = SimplexSolver().Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0], 2.0, kTol);
  EXPECT_NEAR(r.x[1], 6.0, kTol);
  EXPECT_NEAR(r.objective, -36.0, kTol);
}

TEST(SimplexTest, EqualityConstraint) {
  // min x + y st x + y = 10, x in [0, 4] -> x=4, y=6 not needed: both cost 1,
  // any split is optimal with obj 10.
  Model m;
  VarId x = m.AddContinuous(0, 4, 1.0);
  VarId y = m.AddContinuous(0, kInf, 1.0);
  RowId r1 = m.AddRow(10, 10);
  m.AddCoefficient(r1, x, 1);
  m.AddCoefficient(r1, y, 1);
  LpResult r = SimplexSolver().Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.x[0] + r.x[1], 10.0, kTol);
  EXPECT_NEAR(r.objective, 10.0, kTol);
}

TEST(SimplexTest, GreaterEqualNeedsPhase1) {
  // min x + 2y st x + y >= 5, x - y >= -2, x,y >= 0.
  // Optimum: y as small as possible -> y = 0? x+0>=5, x-0>=-2 -> x=5 obj 5.
  Model m;
  VarId x = m.AddContinuous(0, kInf, 1.0);
  VarId y = m.AddContinuous(0, kInf, 2.0);
  RowId r1 = m.AddRow(5, kInf);
  m.AddCoefficient(r1, x, 1);
  m.AddCoefficient(r1, y, 1);
  RowId r2 = m.AddRow(-2, kInf);
  m.AddCoefficient(r2, x, 1);
  m.AddCoefficient(r2, y, -1);
  LpResult r = SimplexSolver().Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 5.0, kTol);
  EXPECT_NEAR(r.x[0], 5.0, kTol);
  EXPECT_NEAR(r.x[1], 0.0, kTol);
}

TEST(SimplexTest, InfeasibleDetected) {
  // x <= 2 and x >= 5 simultaneously.
  Model m;
  VarId x = m.AddContinuous(0, kInf, 1.0);
  RowId r1 = m.AddRow(-kInf, 2);
  m.AddCoefficient(r1, x, 1);
  RowId r2 = m.AddRow(5, kInf);
  m.AddCoefficient(r2, x, 1);
  LpResult r = SimplexSolver().Solve(m);
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, EmptyBoundRangeInfeasible) {
  Model m;
  (void)m.AddContinuous(0, 10, 1.0);
  SimplexSolver solver;
  LpResult r = solver.Solve(m, {BoundOverride{0, 5, 3}});
  EXPECT_EQ(r.status, LpStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  // min -x with x >= 0 and no upper bound.
  Model m;
  VarId x = m.AddContinuous(0, kInf, -1.0);
  RowId r1 = m.AddRow(0, kInf);  // x >= 0, redundant.
  m.AddCoefficient(r1, x, 1);
  LpResult r = SimplexSolver().Solve(m);
  EXPECT_EQ(r.status, LpStatus::kUnbounded);
}

TEST(SimplexTest, FreeVariable) {
  // min (x - 3)^ via |.|-free proxy: min y st y >= x - 3, y >= 3 - x, x free.
  // Optimal y = 0 at x = 3.
  Model m;
  VarId x = m.AddContinuous(-kInf, kInf, 0.0);
  VarId y = m.AddContinuous(0, kInf, 1.0);
  RowId r1 = m.AddRow(-3, kInf);  // y - x >= -3.
  m.AddCoefficient(r1, y, 1);
  m.AddCoefficient(r1, x, -1);
  RowId r2 = m.AddRow(3, kInf);  // y + x >= 3.
  m.AddCoefficient(r2, y, 1);
  m.AddCoefficient(r2, x, 1);
  LpResult r = SimplexSolver().Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 0.0, kTol);
  EXPECT_NEAR(r.x[0], 3.0, kTol);
}

TEST(SimplexTest, NegativeLowerBounds) {
  // min x + y, x in [-5, 5], y in [-3, 3], x + y >= -6 -> x=-5, y=-1? No:
  // x+y >= -6 binds: minimize x+y means x+y=-6, obj=-6.
  Model m;
  VarId x = m.AddContinuous(-5, 5, 1.0);
  VarId y = m.AddContinuous(-3, 3, 1.0);
  RowId r1 = m.AddRow(-6, kInf);
  m.AddCoefficient(r1, x, 1);
  m.AddCoefficient(r1, y, 1);
  LpResult r = SimplexSolver().Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, -6.0, kTol);
}

TEST(SimplexTest, BoundOverridesRespected) {
  Model m;
  VarId x = m.AddContinuous(0, 10, -1.0);
  RowId r1 = m.AddRow(-kInf, 100);
  m.AddCoefficient(r1, x, 1);
  SimplexSolver solver;
  LpResult base = solver.Solve(m);
  ASSERT_EQ(base.status, LpStatus::kOptimal);
  EXPECT_NEAR(base.x[0], 10.0, kTol);
  LpResult tightened = solver.Solve(m, {BoundOverride{x, 0, 4}});
  ASSERT_EQ(tightened.status, LpStatus::kOptimal);
  EXPECT_NEAR(tightened.x[0], 4.0, kTol);
}

TEST(SimplexTest, DegenerateProblemTerminates) {
  // Many redundant constraints through the same vertex.
  Model m;
  VarId x = m.AddContinuous(0, kInf, -1.0);
  VarId y = m.AddContinuous(0, kInf, -1.0);
  for (int i = 1; i <= 8; ++i) {
    RowId r = m.AddRow(-kInf, 4);
    m.AddCoefficient(r, x, 1.0);
    m.AddCoefficient(r, y, static_cast<double>(i) / 8.0 * 0 + 1.0);
  }
  RowId r = m.AddRow(-kInf, 3);
  m.AddCoefficient(r, x, 1.0);
  LpResult result = SimplexSolver().Solve(m);
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, -4.0, kTol);
}

TEST(SimplexTest, DualsSatisfyStrongDuality) {
  // For the classic LP, primal obj == dual obj: y.b with correct signs.
  Model m;
  VarId x = m.AddContinuous(0, kInf, -3.0);
  VarId y = m.AddContinuous(0, kInf, -5.0);
  RowId r1 = m.AddRow(-kInf, 4);
  m.AddCoefficient(r1, x, 1);
  RowId r2 = m.AddRow(-kInf, 12);
  m.AddCoefficient(r2, y, 2);
  RowId r3 = m.AddRow(-kInf, 18);
  m.AddCoefficient(r3, x, 3);
  m.AddCoefficient(r3, y, 2);
  LpResult r = SimplexSolver().Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  ASSERT_EQ(r.duals.size(), 3u);
  double dual_obj = r.duals[0] * 4 + r.duals[1] * 12 + r.duals[2] * 18;
  EXPECT_NEAR(dual_obj, r.objective, 1e-5);
}

TEST(SimplexTest, TransportationProblem) {
  // 2 suppliers (10, 15) -> 3 consumers (8, 7, 10), unit costs:
  //   c = [[2, 4, 5], [3, 1, 7]]. Supply equals demand (25), so both
  // suppliers ship everything. Optimum: s0 -> C 10 units @5 (=50),
  // s1 -> A 8 @3 (=24), s1 -> B 7 @1 (=7), total 81.
  Model m;
  double cost[2][3] = {{2, 4, 5}, {3, 1, 7}};
  double supply[2] = {10, 15};
  double demand[3] = {8, 7, 10};
  VarId x[2][3];
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      x[i][j] = m.AddContinuous(0, kInf, cost[i][j]);
    }
  }
  for (int i = 0; i < 2; ++i) {
    RowId r = m.AddRow(-kInf, supply[i]);
    for (int j = 0; j < 3; ++j) {
      m.AddCoefficient(r, x[i][j], 1);
    }
  }
  for (int j = 0; j < 3; ++j) {
    RowId r = m.AddRow(demand[j], kInf);
    for (int i = 0; i < 2; ++i) {
      m.AddCoefficient(r, x[i][j], 1);
    }
  }
  LpResult r = SimplexSolver().Solve(m);
  ASSERT_EQ(r.status, LpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 81.0, kTol);
}

// Property sweep: random feasible-by-construction LPs; the simplex solution
// must be feasible and no worse than the construction point.
class RandomLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpTest, FeasibleAndBeatsReferencePoint) {
  Rng rng(1000 + GetParam());
  int n = static_cast<int>(rng.UniformInt(3, 12));
  int rows = static_cast<int>(rng.UniformInt(2, 10));
  Model m;
  std::vector<double> ref(n);
  for (int j = 0; j < n; ++j) {
    double lb = rng.Uniform(-5, 0);
    double ub = lb + rng.Uniform(1, 10);
    ref[j] = rng.Uniform(lb, ub);
    m.AddContinuous(lb, ub, rng.Uniform(-3, 3));
  }
  for (int i = 0; i < rows; ++i) {
    RowId r = m.AddRow(0, 0);  // Placeholder bounds set below.
    double activity = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.6)) {
        double c = rng.Uniform(-2, 2);
        m.AddCoefficient(r, j, c);
        activity += c * ref[j];
      }
    }
    // Bounds that include the reference point's activity.
    double slack_lo = rng.Uniform(0.1, 5);
    double slack_hi = rng.Uniform(0.1, 5);
    m.SetRowBounds(r, activity - slack_lo, activity + slack_hi);
  }
  LpResult result = SimplexSolver().Solve(m);
  ASSERT_EQ(result.status, LpStatus::kOptimal) << "case " << GetParam();
  EXPECT_TRUE(m.IsFeasible(result.x, 1e-5));
  EXPECT_LE(result.objective, m.Objective(ref) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpTest, ::testing::Range(0, 40));

// --- Sparse LU basis factorization (src/solver/lu_factor.h) ---

// An m x n sparse matrix in CSC form whose leading m x m block is column
// diagonally dominant (diagonal 4..6, at most three off-diagonals in
// (-1, 1)). A basis of structural columns J within the first m plus the
// slacks of the rows outside J is therefore nonsingular: eliminating the
// slacks leaves a principal submatrix of that block. Columns past m are
// random sparse entering candidates.
struct CscFixture {
  int32_t m = 0;
  int32_t n = 0;
  std::vector<int32_t> starts{0};
  std::vector<int32_t> rows;
  std::vector<double> values;

  CscFixture(int32_t m_rows, int32_t n_cols, uint64_t seed) : m(m_rows), n(n_cols) {
    Rng rng(seed);
    for (int32_t j = 0; j < n; ++j) {
      std::vector<double> col(m, 0.0);
      if (j < m) {
        col[j] = rng.Uniform(4.0, 6.0);
      }
      for (int k = 0; k < 3; ++k) {
        int32_t r = static_cast<int32_t>(rng.UniformInt(0, m - 1));
        if (r != j) {
          col[r] = rng.Uniform(-1.0, 1.0);
        }
      }
      for (int32_t r = 0; r < m; ++r) {
        if (col[r] != 0.0) {
          rows.push_back(r);
          values.push_back(col[r]);
        }
      }
      starts.push_back(static_cast<int32_t>(rows.size()));
    }
  }

  // B x, for x indexed by basis position (slack columns are -e_r).
  std::vector<double> Multiply(const std::vector<int32_t>& basis,
                               const std::vector<double>& x) const {
    std::vector<double> out(m, 0.0);
    for (int32_t pos = 0; pos < m; ++pos) {
      int32_t col = basis[pos];
      if (col >= n) {
        out[col - n] -= x[pos];
        continue;
      }
      for (int32_t k = starts[col]; k < starts[col + 1]; ++k) {
        out[rows[k]] += values[k] * x[pos];
      }
    }
    return out;
  }

  // y . B[:, pos].
  double Dot(const std::vector<int32_t>& basis, int32_t pos, const std::vector<double>& y) const {
    int32_t col = basis[pos];
    if (col >= n) {
      return -y[col - n];
    }
    double sum = 0.0;
    for (int32_t k = starts[col]; k < starts[col + 1]; ++k) {
      sum += values[k] * y[rows[k]];
    }
    return sum;
  }
};

// FTRAN solves B x = b and BTRAN solves y^T B = c for random b, c.
void ExpectSolvesExact(const LuFactor& lu, const CscFixture& a, const std::vector<int32_t>& basis,
                       Rng& rng) {
  std::vector<double> b(a.m);
  std::vector<double> c(a.m);
  for (int32_t i = 0; i < a.m; ++i) {
    b[i] = rng.Uniform(-3.0, 3.0);
    c[i] = rng.Uniform(-3.0, 3.0);
  }
  std::vector<double> rhs = b;
  std::vector<double> x;
  lu.Ftran(rhs, x);
  std::vector<double> bx = a.Multiply(basis, x);
  for (int32_t i = 0; i < a.m; ++i) {
    EXPECT_NEAR(bx[i], b[i], 1e-9) << "row " << i;
  }
  std::vector<double> cc = c;
  std::vector<double> y;
  lu.Btran(cc, y);
  for (int32_t pos = 0; pos < a.m; ++pos) {
    EXPECT_NEAR(a.Dot(basis, pos, y), c[pos], 1e-9) << "position " << pos;
  }
}

// Replaces the basis column at the position of the entering column's largest
// FTRAN entry, the way a simplex pivot does, and appends the eta.
void PivotIn(LuFactor& lu, const CscFixture& a, std::vector<int32_t>& basis, int32_t col) {
  std::vector<double> rhs(a.m, 0.0);
  for (int32_t k = a.starts[col]; k < a.starts[col + 1]; ++k) {
    rhs[a.rows[k]] = a.values[k];
  }
  std::vector<double> alpha;
  lu.Ftran(rhs, alpha);
  std::vector<int32_t> nz;
  int32_t pos = 0;
  for (int32_t p = 0; p < a.m; ++p) {
    if (alpha[p] != 0.0) {
      nz.push_back(p);
    }
    if (std::fabs(alpha[p]) > std::fabs(alpha[pos])) {
      pos = p;
    }
  }
  ASSERT_GT(std::fabs(alpha[pos]), 1e-6);
  lu.AddEta(pos, alpha, nz);
  basis[pos] = col;
}

TEST(LuFactorTest, AllStructuralBasisFactorsAndSolves) {
  CscFixture a(12, 18, 31);
  // Every position holds a structural column, in scrambled order.
  std::vector<int32_t> basis = {7, 2, 11, 0, 5, 9, 1, 4, 10, 3, 8, 6};
  LuFactor lu;
  ASSERT_TRUE(lu.Factor(a.m, a.n, basis, a.starts, a.rows, a.values));
  EXPECT_EQ(lu.num_etas(), 0);
  EXPECT_GE(lu.nonzeros(), a.m);
  Rng rng(5);
  ExpectSolvesExact(lu, a, basis, rng);
  // Etas over the factor: every solve stays exact against the updated basis.
  for (int32_t col = 12; col < 18; ++col) {
    PivotIn(lu, a, basis, col);
    ExpectSolvesExact(lu, a, basis, rng);
  }
  EXPECT_EQ(lu.num_etas(), 6);
  // Refactoring the updated basis clears the eta file and still solves.
  ASSERT_TRUE(lu.Factor(a.m, a.n, basis, a.starts, a.rows, a.values));
  EXPECT_EQ(lu.num_etas(), 0);
  ExpectSolvesExact(lu, a, basis, rng);
}

TEST(LuFactorTest, MixedSlackStructuralBasisFactorsAndSolves) {
  CscFixture a(10, 14, 47);
  // Even positions: the slack of that row (column n + r); odd positions:
  // structural columns.
  std::vector<int32_t> basis(a.m);
  for (int32_t pos = 0; pos < a.m; ++pos) {
    basis[pos] = pos % 2 == 0 ? a.n + pos : pos;
  }
  LuFactor lu;
  ASSERT_TRUE(lu.Factor(a.m, a.n, basis, a.starts, a.rows, a.values));
  Rng rng(9);
  ExpectSolvesExact(lu, a, basis, rng);
  for (int32_t col = 10; col < 14; ++col) {
    PivotIn(lu, a, basis, col);
    ExpectSolvesExact(lu, a, basis, rng);
  }
}

TEST(LuFactorTest, RankDeficientBasisReportedSingular) {
  // Columns: e0 + e1, e1 + e2, and their sum — a rank-2 structural set.
  std::vector<int32_t> starts = {0, 2, 4, 7};
  std::vector<int32_t> rows = {0, 1, 1, 2, 0, 1, 2};
  std::vector<double> values = {1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0};
  LuFactor lu;
  EXPECT_FALSE(lu.Factor(3, 3, {0, 1, 2}, starts, rows, values));
  // The same columns with one of them swapped for a slack are fine...
  EXPECT_TRUE(lu.Factor(3, 3, {0, 1, 3 + 2}, starts, rows, values));
  // ...but a structural column that lives only in rows the slacks already
  // cover leaves row 2 without a pivot.
  EXPECT_FALSE(lu.Factor(3, 3, {3 + 0, 0, 3 + 1}, starts, rows, values));
}

}  // namespace
}  // namespace ras
