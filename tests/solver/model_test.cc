#include "src/solver/model.h"

#include <gtest/gtest.h>

#include "src/solver/simplex.h"
#include "tests/solver/dense_simplex_oracle.h"

namespace ras {
namespace {

TEST(ModelTest, AddVariablesAndRows) {
  Model m;
  VarId x = m.AddContinuous(0, 10, 1.5);
  VarId y = m.AddInteger(0, 5, -2.0);
  RowId r = m.AddRow(-kInf, 8);
  m.AddCoefficient(r, x, 1.0);
  m.AddCoefficient(r, y, 2.0);

  EXPECT_EQ(m.num_variables(), 2u);
  EXPECT_EQ(m.num_rows(), 1u);
  EXPECT_EQ(m.num_nonzeros(), 2u);
  EXPECT_EQ(m.num_integer_variables(), 1u);
  EXPECT_FALSE(m.variable(x).is_integer);
  EXPECT_TRUE(m.variable(y).is_integer);
  EXPECT_EQ(m.row(r).ub, 8.0);
}

TEST(ModelTest, ZeroCoefficientsDropped) {
  Model m;
  VarId x = m.AddContinuous(0, 1, 0);
  RowId r = m.AddRow(0, 1);
  m.AddCoefficient(r, x, 0.0);
  EXPECT_EQ(m.num_nonzeros(), 0u);
  EXPECT_TRUE(m.row_entries(r).empty());
}

TEST(ModelTest, ObjectiveEvaluation) {
  Model m;
  m.AddContinuous(0, 10, 2.0);
  m.AddContinuous(0, 10, -1.0);
  EXPECT_DOUBLE_EQ(m.Objective({3.0, 4.0}), 2.0);
}

TEST(ModelTest, SettersUpdate) {
  Model m;
  VarId x = m.AddContinuous(0, 1, 1.0);
  m.SetVariableBounds(x, -2, 3);
  m.SetObjectiveCost(x, 7.0);
  EXPECT_EQ(m.variable(x).lb, -2.0);
  EXPECT_EQ(m.variable(x).ub, 3.0);
  EXPECT_EQ(m.variable(x).cost, 7.0);
}

TEST(ModelTest, FeasibilityChecksBoundsRowsIntegrality) {
  Model m;
  VarId x = m.AddContinuous(0, 10, 0);
  VarId y = m.AddInteger(0, 10, 0);
  RowId r = m.AddRow(2, 6);
  m.AddCoefficient(r, x, 1.0);
  m.AddCoefficient(r, y, 1.0);

  EXPECT_TRUE(m.IsFeasible({1.0, 2.0}, 1e-6));
  EXPECT_FALSE(m.IsFeasible({1.0, 1.5}, 1e-6));   // y fractional.
  EXPECT_FALSE(m.IsFeasible({-1.0, 3.0}, 1e-6));  // x below lb.
  EXPECT_FALSE(m.IsFeasible({0.0, 1.0}, 1e-6));   // Row below lb.
  EXPECT_FALSE(m.IsFeasible({5.0, 5.0}, 1e-6));   // Row above ub.
  EXPECT_FALSE(m.IsFeasible({1.0}, 1e-6));        // Wrong arity.
}

TEST(ModelTest, CompressedColumnsMatchesRowEntries) {
  Model m;
  VarId x = m.AddContinuous(0, 1, 0);
  VarId y = m.AddContinuous(0, 1, 0);
  VarId z = m.AddContinuous(0, 1, 0);
  RowId r0 = m.AddRow(0, 1);
  RowId r1 = m.AddRow(0, 1);
  // Deliberately out of row order within columns: CSC must sort ascending.
  m.AddCoefficient(r1, x, 2.0);
  m.AddCoefficient(r0, x, 1.0);
  m.AddCoefficient(r1, z, 5.0);
  m.AddCoefficient(r0, y, 3.0);

  CscMatrix csc = m.CompressedColumns();
  EXPECT_EQ(csc.num_cols(), 3u);
  EXPECT_EQ(csc.num_nonzeros(), 4u);
  ASSERT_EQ(csc.col_starts.size(), 4u);
  // Column x: rows 0 and 1, ascending.
  ASSERT_EQ(csc.col_starts[x + 1] - csc.col_starts[x], 2);
  EXPECT_EQ(csc.rows[csc.col_starts[x]], r0);
  EXPECT_DOUBLE_EQ(csc.values[csc.col_starts[x]], 1.0);
  EXPECT_EQ(csc.rows[csc.col_starts[x] + 1], r1);
  EXPECT_DOUBLE_EQ(csc.values[csc.col_starts[x] + 1], 2.0);
  // Column y: single entry in row 0.
  ASSERT_EQ(csc.col_starts[y + 1] - csc.col_starts[y], 1);
  EXPECT_EQ(csc.rows[csc.col_starts[y]], r0);
  EXPECT_DOUBLE_EQ(csc.values[csc.col_starts[y]], 3.0);
  // Column z: single entry in row 1.
  ASSERT_EQ(csc.col_starts[z + 1] - csc.col_starts[z], 1);
  EXPECT_EQ(csc.rows[csc.col_starts[z]], r1);
  EXPECT_DOUBLE_EQ(csc.values[csc.col_starts[z]], 5.0);
}

TEST(ModelTest, CompressedColumnsSumsDuplicatePairs) {
  Model m;
  VarId x = m.AddContinuous(0, 1, 0);
  VarId y = m.AddContinuous(0, 1, 0);
  RowId r = m.AddRow(0, 10);
  m.AddCoefficient(r, x, 1.0);
  m.AddCoefficient(r, y, 4.0);
  m.AddCoefficient(r, x, 2.5);  // Duplicate (r, x): must merge to 3.5.
  m.AddCoefficient(r, x, -0.5);

  CscMatrix csc = m.CompressedColumns();
  ASSERT_EQ(csc.num_nonzeros(), 2u);
  ASSERT_EQ(csc.col_starts[x + 1] - csc.col_starts[x], 1);
  EXPECT_DOUBLE_EQ(csc.values[csc.col_starts[x]], 3.0);
  EXPECT_DOUBLE_EQ(csc.values[csc.col_starts[y]], 4.0);
}

TEST(ModelTest, DuplicateCoefficientsSolveIdenticallyDenseAndSparse) {
  // min -x - y  s.t.  (1+1)x + y <= 4, y <= 2, with the x coefficient split
  // across two AddCoefficient calls. The dense reference and the sparse LU
  // kernel must both see the merged coefficient: optimum at x = 1, y = 2.
  auto build = [] {
    Model m;
    VarId x = m.AddContinuous(0, 10, -1.0);
    VarId y = m.AddContinuous(0, 2, -1.0);
    RowId r = m.AddRow(-kInf, 4);
    m.AddCoefficient(r, x, 1.0);
    m.AddCoefficient(r, y, 1.0);
    m.AddCoefficient(r, x, 1.0);  // Duplicate pair; row reads 2x + y <= 4.
    return m;
  };
  Model m = build();
  for (bool sparse : {false, true}) {
    LpResult result = sparse ? SimplexSolver().Solve(m) : SolveDenseReference(m);
    ASSERT_EQ(result.status, LpStatus::kOptimal) << "sparse=" << sparse;
    EXPECT_NEAR(result.x[0], 1.0, 1e-9) << "sparse=" << sparse;
    EXPECT_NEAR(result.x[1], 2.0, 1e-9) << "sparse=" << sparse;
    EXPECT_NEAR(result.objective, -3.0, 1e-9) << "sparse=" << sparse;
  }
}

TEST(ModelTest, MemoryBytesGrowsWithSize) {
  Model small;
  small.AddContinuous(0, 1, 0);
  Model big;
  for (int i = 0; i < 1000; ++i) {
    big.AddContinuous(0, 1, 0);
  }
  RowId r = big.AddRow(0, 1);
  for (int i = 0; i < 1000; ++i) {
    big.AddCoefficient(r, i, 1.0);
  }
  EXPECT_GT(big.MemoryBytes(), small.MemoryBytes() + 1000 * sizeof(RowEntry));
}

TEST(ModelTest, UpdateBoundsAfterCompressedCacheKeepsCacheAndSolverCurrent) {
  // SetRoundBounds mutates bounds on a model whose CSC cache was already
  // built by a previous solve. The cache covers coefficients only, so it
  // must stay valid, and a fresh solve must see the new bounds.
  Model m;
  m.AddContinuous(0, 10, -1.0);
  m.AddContinuous(0, 10, -1.0);
  RowId r = m.AddRow(-kInf, 20);
  m.AddCoefficient(r, 0, 1.0);
  m.AddCoefficient(r, 1, 1.0);
  m.EnsureCompressedCache();
  ASSERT_TRUE(m.compressed_cache_valid());

  EXPECT_TRUE(m.UpdateVariableBounds(0, 0, 3));
  EXPECT_TRUE(m.UpdateRowBounds(r, -kInf, 5));
  EXPECT_TRUE(m.compressed_cache_valid());

  LpResult result = SimplexSolver().Solve(m);
  ASSERT_EQ(result.status, LpStatus::kOptimal);
  // x0 <= 3 (variable bound), x0 + x1 <= 5 (row bound): optimum 3 + 2.
  EXPECT_NEAR(result.x[0], 3.0, 1e-7);
  EXPECT_NEAR(result.x[1], 2.0, 1e-7);
}

TEST(ModelTest, UpdateBoundsRejectsCrossedRangeWithoutMutating) {
  Model m;
  m.AddContinuous(1, 4, -1.0);
  RowId r = m.AddRow(2, 8);
  m.AddCoefficient(r, 0, 1.0);

  EXPECT_FALSE(m.UpdateVariableBounds(0, 5, 3));
  EXPECT_EQ(m.variable(0).lb, 1);
  EXPECT_EQ(m.variable(0).ub, 4);

  EXPECT_FALSE(m.UpdateRowBounds(r, 9, 2));
  EXPECT_EQ(m.row(r).lb, 2);
  EXPECT_EQ(m.row(r).ub, 8);
}

}  // namespace
}  // namespace ras
