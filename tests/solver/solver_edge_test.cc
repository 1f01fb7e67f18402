// Robustness tests: degenerate and pathological models that a production
// allocation pipeline will eventually feed its solver.

#include <gtest/gtest.h>

#include "src/solver/mip.h"
#include "src/solver/simplex.h"

namespace ras {
namespace {

TEST(SolverEdgeTest, EmptyModel) {
  Model m;
  LpResult lp = SimplexSolver().Solve(m);
  EXPECT_EQ(lp.status, LpStatus::kOptimal);
  EXPECT_EQ(lp.objective, 0.0);
  MipResult mip = MipSolver().Solve(m);
  EXPECT_EQ(mip.status, MipStatus::kOptimal);
}

TEST(SolverEdgeTest, VariablesWithoutRows) {
  Model m;
  m.AddContinuous(1, 5, 2.0);
  m.AddInteger(-3, 3, -1.0);
  MipResult r = MipSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.x[0], 1.0);
  EXPECT_DOUBLE_EQ(r.x[1], 3.0);
}

TEST(SolverEdgeTest, RowsWithoutVariables) {
  Model m;
  m.AddRow(-1, 1);  // 0 in [-1, 1]: trivially satisfied.
  EXPECT_EQ(SimplexSolver().Solve(m).status, LpStatus::kOptimal);
  Model infeasible;
  infeasible.AddRow(1, 2);  // 0 in [1, 2]: never.
  EXPECT_EQ(SimplexSolver().Solve(infeasible).status, LpStatus::kInfeasible);
}

TEST(SolverEdgeTest, FixedVariables) {
  Model m;
  VarId x = m.AddContinuous(4, 4, 1.0);  // Fixed.
  VarId y = m.AddInteger(0, 10, 1.0);
  RowId r = m.AddRow(7, kInf);
  m.AddCoefficient(r, x, 1.0);
  m.AddCoefficient(r, y, 1.0);
  MipResult result = MipSolver().Solve(m);
  ASSERT_EQ(result.status, MipStatus::kOptimal);
  EXPECT_DOUBLE_EQ(result.x[x], 4.0);
  EXPECT_DOUBLE_EQ(result.x[y], 3.0);
}

TEST(SolverEdgeTest, DuplicateCoefficientsMerge) {
  Model m;
  VarId x = m.AddContinuous(0, 10, -1.0);
  RowId r = m.AddRow(-kInf, 9);
  m.AddCoefficient(r, x, 1.0);
  m.AddCoefficient(r, x, 2.0);  // Effective coefficient 3.
  LpResult result = SimplexSolver().Solve(m);
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.x[x], 3.0, 1e-6);
}

TEST(SolverEdgeTest, WideCoefficientRange) {
  // 1e-4 .. 1e4 coefficient spread: tolerances must hold.
  Model m;
  VarId x = m.AddContinuous(0, kInf, 1.0);
  VarId y = m.AddContinuous(0, kInf, 1.0);
  RowId r1 = m.AddRow(1000, kInf);
  m.AddCoefficient(r1, x, 1e4);
  m.AddCoefficient(r1, y, 1e-4);
  LpResult result = SimplexSolver().Solve(m);
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.objective, 0.1, 1e-5);  // x = 0.1, y = 0.
}

TEST(SolverEdgeTest, ManyRedundantRows) {
  Model m;
  VarId x = m.AddContinuous(0, kInf, -1.0);
  for (int i = 0; i < 60; ++i) {
    RowId r = m.AddRow(-kInf, 10 + i);  // Only the first binds.
    m.AddCoefficient(r, x, 1.0);
  }
  LpResult result = SimplexSolver().Solve(m);
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.x[x], 10.0, 1e-6);
}

TEST(SolverEdgeTest, IntegerWithFractionalBounds) {
  Model m;
  VarId x = m.AddInteger(0.4, 3.7, -1.0);  // Integers in {1, 2, 3}.
  MipResult r = MipSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_DOUBLE_EQ(r.x[x], 3.0);
}

TEST(SolverEdgeTest, IntegerBoundsExcludeAllIntegers) {
  Model m;
  (void)m.AddInteger(1.2, 1.8, 1.0);  // No integer in [1.2, 1.8].
  MipResult r = MipSolver().Solve(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
}

TEST(SolverEdgeTest, ZeroWorkLimitStillReturnsWarmStart) {
  Model m;
  VarId x = m.AddInteger(0, 10, -1.0);
  (void)x;
  MipOptions options;
  options.max_lp_work = 0;
  std::vector<double> warm = {4.0};
  MipResult r = MipSolver(options).Solve(m, &warm);
  EXPECT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_TRUE(r.hit_work_limit);
  EXPECT_EQ(r.lp_iterations, 0);
  EXPECT_DOUBLE_EQ(r.objective, -4.0);
}

TEST(SolverEdgeTest, EqualityChain) {
  // x1 = 2, x2 = x1 + 3, x3 = x2 + 3 ... chained equalities.
  Model m;
  std::vector<VarId> xs;
  for (int i = 0; i < 10; ++i) {
    xs.push_back(m.AddContinuous(-kInf, kInf, i == 9 ? 1.0 : 0.0));
  }
  RowId first = m.AddRow(2, 2);
  m.AddCoefficient(first, xs[0], 1.0);
  for (int i = 1; i < 10; ++i) {
    RowId r = m.AddRow(3, 3);
    m.AddCoefficient(r, xs[i], 1.0);
    m.AddCoefficient(r, xs[i - 1], -1.0);
  }
  LpResult result = SimplexSolver().Solve(m);
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  EXPECT_NEAR(result.x[xs[9]], 2.0 + 9 * 3.0, 1e-6);
}

TEST(SolverEdgeTest, NegativeCostFreeVariableUnbounded) {
  Model m;
  (void)m.AddContinuous(-kInf, kInf, 1.0);  // min x, unbounded below.
  EXPECT_EQ(SimplexSolver().Solve(m).status, LpStatus::kUnbounded);
}

}  // namespace
}  // namespace ras
