// Randomized differential test: the production kernel (sparse LU basis
// factorization with an eta file, partial pricing, adaptive refactorization)
// against the dense reference simplex in tests/solver/dense_simplex_oracle.h.
// Both are exact algorithms over the same model, so on every instance they
// must agree on status, and on optimal instances on the objective to within
// numerical tolerance (the optimal vertex itself may differ under degeneracy).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/solver/model.h"
#include "src/solver/simplex.h"
#include "src/util/rng.h"
#include "tests/solver/dense_simplex_oracle.h"

namespace ras {
namespace {

Model RandomLp(Rng& rng) {
  Model m;
  const int num_vars = 4 + static_cast<int>(rng.UniformInt(0, 12));
  const int num_rows = 3 + static_cast<int>(rng.UniformInt(0, 9));
  for (int j = 0; j < num_vars; ++j) {
    double ub = rng.Uniform(0.5, 10.0);
    double cost = rng.Uniform(-5.0, 5.0);
    m.AddContinuous(0.0, ub, cost);
  }
  for (int r = 0; r < num_rows; ++r) {
    // Row types: <= ub, >= lb, two-sided range, equality.
    double a = rng.Uniform(-8.0, 8.0);
    double b = rng.Uniform(-8.0, 12.0);
    RowId row;
    switch (rng.UniformInt(0, 3)) {
      case 0:
        row = m.AddRow(-kInf, std::max(a, b));
        break;
      case 1:
        row = m.AddRow(std::min(a, b), kInf);
        break;
      case 2:
        row = m.AddRow(std::min(a, b), std::max(a, b));
        break;
      default:
        row = m.AddRow(a, a);
        break;
    }
    int entries = 0;
    for (int j = 0; j < num_vars; ++j) {
      if (rng.NextDouble() < 0.4) {
        m.AddCoefficient(row, j, rng.Uniform(-3.0, 3.0));
        ++entries;
      }
    }
    if (entries == 0) {
      // An empty row with lb > 0 would be trivially infeasible noise; give
      // every row at least one entry so infeasibility, when it happens, comes
      // from real constraint interaction.
      m.AddCoefficient(row, static_cast<VarId>(rng.UniformInt(0, num_vars - 1)),
                       rng.Uniform(0.5, 2.0));
    }
  }
  // Occasional duplicate (row, var) pairs: both paths must merge identically.
  if (m.num_rows() > 0 && rng.NextDouble() < 0.5) {
    m.AddCoefficient(0, 0, rng.Uniform(-1.0, 1.0));
    m.AddCoefficient(0, 0, rng.Uniform(-1.0, 1.0));
  }
  return m;
}

// Random LP in the shapes a generic presolve would reduce: fixed variables,
// empty rows (some with 0 outside their range, so infeasible before a single
// pivot), singleton rows with negative as well as positive coefficients, and
// negative lower bounds. The kernel solves them as given; the oracle pins
// that the slack-augmented formulation handles every one of them.
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

TEST(SparseDenseFuzzTest, SparseKernelsMatchDenseReference) {
  Rng rng(20260806);
  int optimal = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 120; ++trial) {
    Model m = RandomLp(rng);

    LpResult dense = SolveDenseReference(m);

    LpOptions sparse_options;
    // Tiny candidate list and frequent refresh: maximize partial-pricing
    // churn (stale candidates, forced full-scan fallbacks).
    sparse_options.pricing_candidates = 4;
    sparse_options.pricing_refresh_interval = 7;
    LpResult sparse = SimplexSolver(sparse_options).Solve(m);

    ASSERT_EQ(dense.status, sparse.status)
        << "trial " << trial << ": dense=" << LpStatusName(dense.status)
        << " sparse=" << LpStatusName(sparse.status);
    if (dense.status == LpStatus::kOptimal) {
      ++optimal;
      EXPECT_NEAR(dense.objective, sparse.objective, 1e-6 * (1.0 + std::fabs(dense.objective)))
          << "trial " << trial;
      // The sparse solution must satisfy the model exactly like the dense one.
      EXPECT_TRUE(m.IsFeasible(sparse.x, 1e-6)) << "trial " << trial;
      // Optimality is only ever declared after a full pricing scan.
      EXPECT_GE(sparse.full_pricing_scans, 1) << "trial " << trial;
    } else if (dense.status == LpStatus::kInfeasible) {
      ++infeasible;
    }
  }
  // The generator should produce a healthy mix; if not, the test is vacuous.
  EXPECT_GE(optimal, 30);
  EXPECT_GE(infeasible, 5);
}

TEST(SparseDenseFuzzTest, ReducibleShapesMatchDenseReference) {
  Rng rng(20260807);
  int optimal = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 140; ++trial) {
    Model m = RandomReducibleLp(rng);

    LpResult dense = SolveDenseReference(m);
    LpResult sparse = SimplexSolver().Solve(m);

    ASSERT_EQ(dense.status, sparse.status)
        << "trial " << trial << ": dense=" << LpStatusName(dense.status)
        << " sparse=" << LpStatusName(sparse.status);
    if (dense.status == LpStatus::kOptimal) {
      ++optimal;
      EXPECT_NEAR(dense.objective, sparse.objective, 1e-6 * (1.0 + std::fabs(dense.objective)))
          << "trial " << trial;
      ASSERT_EQ(sparse.x.size(), m.num_variables()) << "trial " << trial;
      EXPECT_TRUE(m.IsFeasible(sparse.x, 1e-6)) << "trial " << trial;
    } else if (dense.status == LpStatus::kInfeasible) {
      ++infeasible;
    }
  }
  // Both outcomes must occur, or the differential is vacuous.
  EXPECT_GE(optimal, 40);
  EXPECT_GE(infeasible, 5);
}

// A random start point for `m`: each structural at its lower bound, at its
// upper bound, strictly inside, or above its upper bound. Only the columns
// at or past a finite upper bound change where the solve starts.
std::vector<double> RandomStart(const Model& m, Rng& rng) {
  std::vector<double> start(m.num_variables());
  for (size_t j = 0; j < start.size(); ++j) {
    const ModelVariable& v = m.variable(j);
    switch (rng.UniformInt(0, 3)) {
      case 0:
        start[j] = v.lb;
        break;
      case 1:
        start[j] = v.ub;
        break;
      case 2:
        start[j] = v.lb + rng.Uniform(0.1, 0.9) * (v.ub - v.lb);
        break;
      default:
        start[j] = v.ub + rng.Uniform(0.5, 5.0);
        break;
    }
  }
  return start;
}

// The start point moves only where the primal simplex begins, never what it
// proves: every instance of both generators, solved again from a random
// start, matches the dense reference.
TEST(SparseDenseFuzzTest, StartPointsMatchDenseReference) {
  Rng rng(20261017);
  int optimal = 0;
  int infeasible = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Model m = trial % 2 == 0 ? RandomLp(rng) : RandomReducibleLp(rng);
    const std::vector<double> start = RandomStart(m, rng);

    LpResult dense = SolveDenseReference(m);
    LpResult sparse = SimplexSolver().Solve(m, {}, &start);

    ASSERT_EQ(dense.status, sparse.status)
        << "trial " << trial << ": dense=" << LpStatusName(dense.status)
        << " sparse=" << LpStatusName(sparse.status);
    if (dense.status == LpStatus::kOptimal) {
      ++optimal;
      EXPECT_NEAR(dense.objective, sparse.objective, 1e-6 * (1.0 + std::fabs(dense.objective)))
          << "trial " << trial;
      EXPECT_TRUE(m.IsFeasible(sparse.x, 1e-6)) << "trial " << trial;
    } else if (dense.status == LpStatus::kInfeasible) {
      ++infeasible;
    }
  }
  EXPECT_GE(optimal, 60);
  EXPECT_GE(infeasible, 10);
}

TEST(SparseDenseFuzzTest, AdaptiveRefactorizationTriggersAndStaysCorrect) {
  // Force eta-fill refactorizations with a near-zero growth limit: every
  // pivot's eta exceeds the budget, so each iteration refactorizes. The
  // result must still match the dense reference, and the adaptive counter
  // must show the trigger fired.
  Rng rng(77);
  int64_t adaptive_total = 0;
  for (int trial = 0; trial < 20; ++trial) {
    Model m = RandomLp(rng);

    LpResult dense = SolveDenseReference(m);

    LpOptions tight;
    tight.eta_growth_limit = 0.0;
    LpResult sparse = SimplexSolver(tight).Solve(m);

    ASSERT_EQ(dense.status, sparse.status) << "trial " << trial;
    if (dense.status == LpStatus::kOptimal) {
      EXPECT_NEAR(dense.objective, sparse.objective, 1e-6 * (1.0 + std::fabs(dense.objective)))
          << "trial " << trial;
    }
    adaptive_total += sparse.adaptive_refactorizations;
    EXPECT_GE(sparse.refactorizations, sparse.adaptive_refactorizations);
  }
  EXPECT_GT(adaptive_total, 0);
}

TEST(SparseDenseFuzzTest, InstrumentationCountersPopulated) {
  Rng rng(4242);
  Model m = RandomLp(rng);
  LpResult result = SimplexSolver().Solve(m);
  if (result.status == LpStatus::kOptimal) {
    EXPECT_GE(result.refactorizations, 1);  // The initial factorization counts.
    EXPECT_GE(result.full_pricing_scans, 1);
    EXPECT_GE(result.eta_nonzeros, 0);
    EXPECT_GE(result.refactor_seconds, 0.0);
    // At least the diagonal of U: one entry per row.
    EXPECT_GE(result.factor_nonzeros, static_cast<int64_t>(m.num_rows()));
  }
}

}  // namespace
}  // namespace ras
