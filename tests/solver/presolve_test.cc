// Tests for the LP presolve/postsolve layer (src/solver/presolve): the exact
// unit reductions, the infeasibility proofs, and a randomized differential
// suite pitting presolve-on solves against the unreduced dense oracle.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/solver/model.h"
#include "src/solver/presolve.h"
#include "src/solver/simplex.h"
#include "src/util/rng.h"
#include "tests/solver/dense_simplex_oracle.h"

namespace ras {
namespace {

constexpr double kTol = 1e-6;

TEST(PresolveTest, FixedVariableSubstitutedIntoRows) {
  // min -x0 - x1 with x1 fixed at 2; row: x0 + x1 <= 5 => x0 <= 3.
  Model m;
  m.AddContinuous(0, 10, -1.0);
  m.AddContinuous(2, 2, -1.0);  // Fixed.
  RowId r = m.AddRow(-kInf, 5);
  m.AddCoefficient(r, 0, 1.0);
  m.AddCoefficient(r, 1, 1.0);

  PresolvedLp pre;
  ASSERT_TRUE(pre.Reduce(m, {}));
  EXPECT_FALSE(pre.stats().infeasible);
  EXPECT_EQ(pre.stats().vars_removed, 1);
  ASSERT_EQ(pre.reduced().num_variables(), 1u);

  SimplexSolver solver;
  LpResult reduced = solver.Solve(pre.reduced());
  ASSERT_EQ(reduced.status, LpStatus::kOptimal);
  std::vector<double> full = pre.RestorePrimal(reduced.x);
  ASSERT_EQ(full.size(), 2u);
  EXPECT_NEAR(full[0], 3.0, kTol);
  EXPECT_NEAR(full[1], 2.0, kTol);
  EXPECT_TRUE(m.IsFeasible(full, kTol));
}

TEST(PresolveTest, EmptyRowDroppedWhenSlackCoversZero) {
  Model m;
  m.AddContinuous(0, 1, -1.0);
  m.AddRow(-1, 1);  // No entries; 0 lies inside the range: redundant.
  RowId r = m.AddRow(-kInf, 1);
  m.AddCoefficient(r, 0, 1.0);

  PresolvedLp pre;
  ASSERT_TRUE(pre.Reduce(m, {}));
  EXPECT_FALSE(pre.stats().infeasible);
  EXPECT_GE(pre.stats().rows_removed, 1);
}

TEST(PresolveTest, EmptyRowProvesInfeasibility) {
  Model m;
  m.AddContinuous(0, 1, -1.0);
  m.AddRow(1, 2);  // No entries; needs 0 in [1,2]: impossible.
  RowId r = m.AddRow(-kInf, 1);
  m.AddCoefficient(r, 0, 1.0);

  PresolvedLp pre;
  ASSERT_TRUE(pre.Reduce(m, {}));
  EXPECT_TRUE(pre.stats().infeasible);

  // The solver-level wrapper takes the same shortcut.
  SimplexSolver solver;
  EXPECT_EQ(solver.Solve(m).status, LpStatus::kInfeasible);
}

TEST(PresolveTest, CrossedVariableBoundsProveInfeasibility) {
  Model m;
  m.AddContinuous(0, 10, -1.0);
  RowId r = m.AddRow(-kInf, 5);
  m.AddCoefficient(r, 0, 1.0);

  // Branching-style override with an empty range.
  std::vector<BoundOverride> overrides = {BoundOverride{0, 3.0, 2.0}};
  PresolvedLp pre;
  ASSERT_TRUE(pre.Reduce(m, overrides));
  EXPECT_TRUE(pre.stats().infeasible);
}

TEST(PresolveTest, SingletonRowFoldsIntoVariableBound) {
  // Row 2*x0 <= 8 is a bound x0 <= 4 in disguise; folding it removes the row.
  // x0 carries the better cost so the folded bound binds at the optimum.
  Model m;
  m.AddContinuous(0, 10, -2.0);
  m.AddContinuous(0, 10, -1.0);
  RowId s = m.AddRow(-kInf, 8);
  m.AddCoefficient(s, 0, 2.0);
  RowId r = m.AddRow(-kInf, 7);
  m.AddCoefficient(r, 0, 1.0);
  m.AddCoefficient(r, 1, 1.0);

  PresolvedLp pre;
  ASSERT_TRUE(pre.Reduce(m, {}));
  EXPECT_GE(pre.stats().singleton_rows_folded, 1);
  EXPECT_GE(pre.stats().rows_removed, 1);

  SimplexSolver solver;
  LpResult reduced = solver.Solve(pre.reduced());
  ASSERT_EQ(reduced.status, LpStatus::kOptimal);
  std::vector<double> full = pre.RestorePrimal(reduced.x);
  EXPECT_TRUE(m.IsFeasible(full, kTol));
  // Optimum: x0 = 4 (folded bound binds), x1 = 3.
  EXPECT_NEAR(full[0], 4.0, kTol);
  EXPECT_NEAR(full[1], 3.0, kTol);
}

TEST(PresolveTest, MinReductionGateRefusesIrreducibleModel) {
  // Nothing fixed, no empty/singleton rows, no redundant activity: the gate
  // must report "no reduction" so the caller solves the original directly.
  Model m;
  m.AddContinuous(0, 10, -1.0);
  m.AddContinuous(0, 10, -1.0);
  RowId r0 = m.AddRow(2, 8);
  m.AddCoefficient(r0, 0, 1.0);
  m.AddCoefficient(r0, 1, 1.0);
  RowId r1 = m.AddRow(-4, 4);
  m.AddCoefficient(r1, 0, 1.0);
  m.AddCoefficient(r1, 1, -1.0);

  PresolvedLp pre;
  EXPECT_FALSE(pre.Reduce(m, {}));
}

TEST(PresolveTest, RestoredBasisImportsAndVerifiesInFewPivots) {
  // Presolve -> solve reduced -> postsolve basis -> import on the full model:
  // the restored basis must be accepted and already (near) optimal, so the
  // verifying resolve takes almost no iterations.
  Model m;
  m.AddContinuous(0, 10, -1.0);
  m.AddContinuous(3, 3, -5.0);  // Fixed: removed by presolve.
  m.AddContinuous(0, 10, -2.0);
  RowId s = m.AddRow(-kInf, 12);  // Singleton: folds into x2 <= 6.
  m.AddCoefficient(s, 2, 2.0);
  RowId r = m.AddRow(-kInf, 9);
  m.AddCoefficient(r, 0, 1.0);
  m.AddCoefficient(r, 1, 1.0);
  m.AddCoefficient(r, 2, 1.0);

  PresolvedLp pre;
  ASSERT_TRUE(pre.Reduce(m, {}));
  ASSERT_FALSE(pre.stats().infeasible);

  LpOptions no_presolve;
  no_presolve.presolve = false;
  SimplexSolver reduced_solver(no_presolve);
  LpResult reduced = reduced_solver.Solve(pre.reduced());
  ASSERT_EQ(reduced.status, LpStatus::kOptimal);

  SimplexBasis full_basis = pre.RestoreBasis(reduced_solver.ExportBasis());
  ASSERT_FALSE(full_basis.empty());
  SimplexSolver full_solver(no_presolve);
  ASSERT_TRUE(full_solver.ImportBasis(m, full_basis));
  LpResult verified = full_solver.ResolveWithBasis(m, {});
  ASSERT_EQ(verified.status, LpStatus::kOptimal);

  SimplexSolver oracle(no_presolve);
  LpResult cold = oracle.Solve(m);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  EXPECT_NEAR(verified.objective, cold.objective, kTol);
  EXPECT_LE(verified.iterations, 2);
}

TEST(PresolveTest, RestoreBasisRejectsShapeMismatch) {
  Model m;
  m.AddContinuous(0, 1, -1.0);
  m.AddContinuous(2, 2, 0.0);
  RowId r = m.AddRow(-kInf, 1);
  m.AddCoefficient(r, 0, 1.0);

  PresolvedLp pre;
  ASSERT_TRUE(pre.Reduce(m, {}));

  SimplexBasis wrong;  // Not a basis of the reduced model at all.
  wrong.basic = {0, 1, 2};
  wrong.status = {0, 0, 0, 0, 0, 0};
  wrong.rows = 3;
  wrong.vars = 3;
  wrong.nonzeros = 9;
  EXPECT_TRUE(pre.RestoreBasis(wrong).empty());
}

// Random LP with presolve-friendly structure: a mix of fixed variables,
// singleton rows, empty rows, and ordinary dense-ish constraints.
Model RandomReducibleLp(Rng& rng) {
  Model m;
  const int num_vars = 4 + static_cast<int>(rng.UniformInt(0, 10));
  for (int j = 0; j < num_vars; ++j) {
    double lb = rng.Uniform(-4.0, 0.0);
    if (rng.NextDouble() < 0.2) {
      double v = rng.Uniform(lb, lb + 3.0);
      m.AddContinuous(v, v, rng.Uniform(-5.0, 5.0));  // Fixed variable.
    } else {
      m.AddContinuous(lb, lb + rng.Uniform(1.0, 9.0), rng.Uniform(-5.0, 5.0));
    }
  }
  const int num_rows = 3 + static_cast<int>(rng.UniformInt(0, 8));
  for (int r = 0; r < num_rows; ++r) {
    double roll = rng.NextDouble();
    if (roll < 0.15) {
      m.AddRow(-rng.Uniform(0.0, 2.0), rng.Uniform(0.0, 2.0));  // Empty row.
      continue;
    }
    double a = rng.Uniform(-8.0, 8.0);
    double b = rng.Uniform(-8.0, 12.0);
    RowId row = m.AddRow(std::min(a, b), std::max(a, b) + 4.0);
    if (roll < 0.4) {
      // Singleton row (possibly negative coefficient).
      m.AddCoefficient(row, static_cast<VarId>(rng.UniformInt(0, num_vars - 1)),
                       rng.NextDouble() < 0.5 ? rng.Uniform(0.5, 3.0)
                                              : rng.Uniform(-3.0, -0.5));
      continue;
    }
    int entries = 0;
    for (int j = 0; j < num_vars; ++j) {
      if (rng.NextDouble() < 0.4) {
        m.AddCoefficient(row, j, rng.Uniform(-3.0, 3.0));
        ++entries;
      }
    }
    if (entries == 0) {
      m.AddCoefficient(row, static_cast<VarId>(rng.UniformInt(0, num_vars - 1)),
                       rng.Uniform(0.5, 2.0));
    }
  }
  return m;
}

TEST(PresolveTest, FuzzPresolveMatchesUnreducedDenseOracle) {
  // >= 100 random LPs: the presolved sparse solve must agree with the
  // unreduced dense reference on status, on the objective, and produce a
  // primal-feasible full-length point.
  Rng rng(20260807);
  int optimal = 0;
  int infeasible = 0;
  int reduced_solves = 0;
  for (int trial = 0; trial < 140; ++trial) {
    Model m = RandomReducibleLp(rng);

    LpResult oracle = SolveDenseReference(m);

    LpOptions pre_options;  // Defaults: presolve on.
    LpResult pre = SimplexSolver(pre_options).Solve(m);

    ASSERT_EQ(oracle.status, pre.status)
        << "trial " << trial << ": oracle=" << LpStatusName(oracle.status)
        << " presolved=" << LpStatusName(pre.status);
    if (oracle.status == LpStatus::kOptimal) {
      ++optimal;
      EXPECT_NEAR(oracle.objective, pre.objective,
                  1e-6 * (1.0 + std::fabs(oracle.objective)))
          << "trial " << trial;
      ASSERT_EQ(pre.x.size(), m.num_variables()) << "trial " << trial;
      EXPECT_TRUE(m.IsFeasible(pre.x, 1e-6)) << "trial " << trial;
    } else if (oracle.status == LpStatus::kInfeasible) {
      ++infeasible;
    }
    if (pre.presolve_rows_removed > 0 || pre.presolve_vars_removed > 0) {
      ++reduced_solves;
    }
  }
  // The generator must exercise both outcomes and actually trigger presolve,
  // otherwise the differential is vacuous.
  EXPECT_GE(optimal, 40);
  EXPECT_GE(infeasible, 5);
  EXPECT_GE(reduced_solves, 60);
}

TEST(PresolveTest, FuzzRestorePrimalAndBasisRoundTrip) {
  // Direct PresolvedLp round trip on random instances: solve the reduction,
  // restore primal + basis, and verify on the full model.
  // 200 trials: roughly a third of the random instances survive the gate
  // (reducible, feasible, reduced solve optimal), so this clears the floor.
  Rng rng(991);
  int exercised = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Model m = RandomReducibleLp(rng);
    PresolvedLp pre;
    if (!pre.Reduce(m, {}) || pre.stats().infeasible) {
      continue;
    }
    LpOptions no_presolve;
    no_presolve.presolve = false;
    SimplexSolver reduced_solver(no_presolve);
    LpResult reduced = reduced_solver.Solve(pre.reduced());
    if (reduced.status != LpStatus::kOptimal) {
      continue;
    }
    ++exercised;

    std::vector<double> full = pre.RestorePrimal(reduced.x);
    ASSERT_EQ(full.size(), m.num_variables()) << "trial " << trial;
    EXPECT_TRUE(m.IsFeasible(full, 1e-6)) << "trial " << trial;

    SimplexBasis full_basis = pre.RestoreBasis(reduced_solver.ExportBasis());
    ASSERT_FALSE(full_basis.empty()) << "trial " << trial;
    SimplexSolver full_solver(no_presolve);
    ASSERT_TRUE(full_solver.ImportBasis(m, full_basis)) << "trial " << trial;
    LpResult verified = full_solver.ResolveWithBasis(m, {});
    ASSERT_EQ(verified.status, LpStatus::kOptimal) << "trial " << trial;

    SimplexSolver oracle(no_presolve);
    LpResult cold = oracle.Solve(m);
    ASSERT_EQ(cold.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(verified.objective, cold.objective,
                1e-6 * (1.0 + std::fabs(cold.objective)))
        << "trial " << trial;
  }
  EXPECT_GE(exercised, 50);
}

}  // namespace
}  // namespace ras
