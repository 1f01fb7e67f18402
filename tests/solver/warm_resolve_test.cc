// Tests for SimplexSolver::ResolveWithBasis — the cross-node basis reuse
// that makes branch-and-bound children cheap.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/solver/simplex.h"
#include "src/util/rng.h"
#include "tests/solver/dense_simplex_oracle.h"

namespace ras {
namespace {

constexpr double kTol = 1e-6;

// Random feasible-by-construction LP shared by the tests below.
Model RandomLp(uint64_t seed, int n, int rows, std::vector<double>* ref_out) {
  Rng rng(seed);
  Model m;
  std::vector<double> ref(n);
  for (int j = 0; j < n; ++j) {
    double lb = rng.Uniform(-4, 0);
    double ub = lb + rng.Uniform(2, 9);
    ref[j] = rng.Uniform(lb, ub);
    m.AddContinuous(lb, ub, rng.Uniform(-3, 3));
  }
  for (int i = 0; i < rows; ++i) {
    RowId r = m.AddRow(0, 0);
    double activity = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.5)) {
        double c = rng.Uniform(-2, 2);
        m.AddCoefficient(r, j, c);
        activity += c * ref[j];
      }
    }
    m.SetRowBounds(r, activity - rng.Uniform(0.5, 4), activity + rng.Uniform(0.5, 4));
  }
  if (ref_out != nullptr) {
    *ref_out = ref;
  }
  return m;
}

TEST(WarmResolveTest, MatchesColdSolveAfterBoundChange) {
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> ref;
    Model m = RandomLp(7000 + static_cast<uint64_t>(trial), 10, 7, &ref);
    SimplexSolver warm_solver;
    LpResult base = warm_solver.Solve(m);
    ASSERT_EQ(base.status, LpStatus::kOptimal);

    // Tighten one variable's bounds around the reference point (guaranteed
    // to stay feasible) and compare warm vs cold resolves.
    Rng rng(7100 + static_cast<uint64_t>(trial));
    VarId var = static_cast<VarId>(rng.UniformInt(0, 9));
    double lo = std::max(ref[var] - 0.25, m.variable(var).lb);
    double hi = std::min(ref[var] + 0.25, m.variable(var).ub);
    std::vector<BoundOverride> overrides = {BoundOverride{var, lo, hi}};

    LpResult warm = warm_solver.ResolveWithBasis(m, overrides);
    SimplexSolver cold_solver;
    LpResult cold = cold_solver.Solve(m, overrides);
    ASSERT_EQ(warm.status, LpStatus::kOptimal) << "trial " << trial;
    ASSERT_EQ(cold.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-5) << "trial " << trial;
    EXPECT_TRUE(m.IsFeasible(warm.x, 1e-5));
  }
}

TEST(WarmResolveTest, WarmIsCheaperThanCold) {
  std::vector<double> ref;
  Model m = RandomLp(8001, 40, 25, &ref);
  SimplexSolver solver;
  LpResult base = solver.Solve(m);
  ASSERT_EQ(base.status, LpStatus::kOptimal);
  LpResult warm = solver.ResolveWithBasis(m, {BoundOverride{0, ref[0] - 0.1, ref[0] + 0.1}});
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  // The warm resolve should take far fewer pivots than the cold solve.
  EXPECT_LT(warm.iterations, std::max<int64_t>(base.iterations / 2, 6));
}

TEST(WarmResolveTest, DetectsInfeasibleBoundsAndRecovers) {
  std::vector<double> ref;
  Model m = RandomLp(8002, 8, 5, &ref);
  SimplexSolver solver;
  ASSERT_EQ(solver.Solve(m).status, LpStatus::kOptimal);
  // Empty range: infeasible, without destroying the retained basis.
  LpResult bad = solver.ResolveWithBasis(m, {BoundOverride{0, 1.0, 0.5}});
  EXPECT_EQ(bad.status, LpStatus::kInfeasible);
  // The solver still warm-resolves correctly afterwards.
  LpResult good = solver.ResolveWithBasis(m, {});
  ASSERT_EQ(good.status, LpStatus::kOptimal);
  SimplexSolver cold;
  EXPECT_NEAR(good.objective, cold.Solve(m).objective, 1e-5);
}

TEST(WarmResolveTest, FallsBackToColdForDifferentModel) {
  std::vector<double> ref;
  Model a = RandomLp(8003, 6, 4, &ref);
  Model b = RandomLp(8004, 9, 5, &ref);
  SimplexSolver solver;
  ASSERT_EQ(solver.Solve(a).status, LpStatus::kOptimal);
  // Different shape: must not reuse the basis; result must match cold.
  LpResult warm_b = solver.ResolveWithBasis(b, {});
  SimplexSolver cold;
  LpResult cold_b = cold.Solve(b);
  ASSERT_EQ(warm_b.status, cold_b.status);
  if (warm_b.status == LpStatus::kOptimal) {
    EXPECT_NEAR(warm_b.objective, cold_b.objective, 1e-5);
  }
}

TEST(WarmResolveTest, MatchesColdSolveAfterRowBoundChange) {
  // Cross-round model patching changes RHS ranges in place
  // (Model::UpdateRowBounds); the retained basis must survive, because the
  // basis matrix depends only on the coefficients, and the warm resolve must
  // land on the same optimum as a cold solve of the patched model.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> ref;
    Model m = RandomLp(7300 + static_cast<uint64_t>(trial), 10, 7, &ref);
    SimplexSolver warm_solver;
    LpResult base = warm_solver.Solve(m);
    ASSERT_EQ(base.status, LpStatus::kOptimal);

    // Widen or shift each row's range around its reference activity; the
    // reference point stays feasible, so the patched LP stays feasible.
    Rng rng(7400 + static_cast<uint64_t>(trial));
    for (size_t r = 0; r < m.num_rows(); ++r) {
      if (!rng.Bernoulli(0.5)) {
        continue;
      }
      double activity = 0.0;
      for (const RowEntry& e : m.row_entries(r)) {
        activity += e.coeff * ref[static_cast<size_t>(e.var)];
      }
      ASSERT_TRUE(m.UpdateRowBounds(static_cast<RowId>(r), activity - rng.Uniform(0.3, 3),
                                    activity + rng.Uniform(0.3, 3)));
    }

    LpResult warm = warm_solver.ResolveWithBasis(m, {});
    SimplexSolver cold_solver;
    LpResult cold = cold_solver.Solve(m);
    ASSERT_EQ(warm.status, LpStatus::kOptimal) << "trial " << trial;
    ASSERT_EQ(cold.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-5) << "trial " << trial;
    EXPECT_TRUE(m.IsFeasible(warm.x, 1e-5));
  }
}

TEST(WarmResolveTest, MatchesColdSolveAfterObjectiveChange) {
  // A cost change (Model::SetObjectiveCost) keeps the coefficients, so the
  // basis stays primal-feasible; the warm resolve is pure phase-2 pivoting
  // and must match a cold solve.
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> ref;
    Model m = RandomLp(7500 + static_cast<uint64_t>(trial), 10, 7, &ref);
    SimplexSolver warm_solver;
    ASSERT_EQ(warm_solver.Solve(m).status, LpStatus::kOptimal);

    Rng rng(7600 + static_cast<uint64_t>(trial));
    for (size_t j = 0; j < m.num_variables(); ++j) {
      if (rng.Bernoulli(0.4)) {
        m.SetObjectiveCost(static_cast<VarId>(j), rng.Uniform(-3, 3));
      }
    }

    LpResult warm = warm_solver.ResolveWithBasis(m, {});
    SimplexSolver cold_solver;
    LpResult cold = cold_solver.Solve(m);
    ASSERT_EQ(warm.status, LpStatus::kOptimal) << "trial " << trial;
    ASSERT_EQ(cold.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-5) << "trial " << trial;
    EXPECT_TRUE(m.IsFeasible(warm.x, 1e-5));
  }
}

TEST(WarmResolveTest, LongResolveChainCarriesEtaFileAcrossCalls) {
  // A warm chain of ResolveWithBasis calls under random bound overrides,
  // run until it has taken three refactor intervals' worth of pivots: the
  // eta file, and the refactorizations it triggers, carry across calls.
  // Every step must match a cold dense-oracle solve.
  std::vector<double> ref;
  Model m = RandomLp(4711, 40, 30, &ref);
  LpOptions options;
  options.refactor_interval = 16;
  SimplexSolver solver(options);
  ASSERT_EQ(solver.Solve(m).status, LpStatus::kOptimal);
  Rng rng(99);
  int64_t pivots = 0;
  int refactorizations = 0;
  int steps = 0;
  for (; steps < 400 && pivots < 3 * options.refactor_interval; ++steps) {
    // Box a few variables around the reference point, which stays feasible,
    // so the chain never falls back to a cold solve.
    std::vector<BoundOverride> overrides;
    for (int k = 0; k < 4; ++k) {
      VarId var = static_cast<VarId>(rng.UniformInt(0, 39));
      const ModelVariable& v = m.variable(var);
      overrides.push_back(BoundOverride{var, std::max(v.lb, ref[var] - rng.Uniform(0.0, 1.5)),
                                        std::min(v.ub, ref[var] + rng.Uniform(0.0, 1.5))});
    }
    LpResult warm = solver.ResolveWithBasis(m, overrides);
    LpResult cold = SolveDenseReference(m, overrides);
    ASSERT_EQ(warm.status, cold.status) << "step " << steps;
    ASSERT_EQ(warm.status, LpStatus::kOptimal) << "step " << steps;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-6) << "step " << steps;
    pivots += warm.iterations + warm.dual_iterations;
    refactorizations += warm.refactorizations;
  }
  EXPECT_GE(pivots, 3 * options.refactor_interval);
  EXPECT_GT(refactorizations, 0);
}

TEST(WarmResolveTest, ChainOfResolves) {
  // Simulates a B&B dive: a chain of progressively tighter integer bounds.
  std::vector<double> ref;
  Model m = RandomLp(8005, 12, 8, &ref);
  SimplexSolver warm_solver;
  ASSERT_EQ(warm_solver.Solve(m).status, LpStatus::kOptimal);
  std::vector<BoundOverride> overrides;
  for (int step = 0; step < 6; ++step) {
    VarId var = static_cast<VarId>(step * 2 % 12);
    overrides.push_back(BoundOverride{var, ref[var] - 0.5, ref[var] + 0.5});
    LpResult warm = warm_solver.ResolveWithBasis(m, overrides);
    SimplexSolver cold;
    LpResult reference = cold.Solve(m, overrides);
    ASSERT_EQ(warm.status, reference.status) << "step " << step;
    if (warm.status == LpStatus::kOptimal) {
      EXPECT_NEAR(warm.objective, reference.objective, 1e-5) << "step " << step;
    }
  }
}

TEST(WarmResolveTest, DualSimplexResolveMatchesFreshPrimalFieldForField) {
  // The cross-round patch shape (SetRoundBounds): solve, mutate row bounds in place (costs
  // untouched, so the optimal basis stays dual-feasible), warm-resolve. The
  // dual kernel must run, take pivots, and land on exactly the answer a
  // fresh primal solve of the patched model produces — status, objective,
  // every primal value, every dual.
  int dual_ran = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> ref;
    Model m = RandomLp(9100 + static_cast<uint64_t>(trial), 12, 8, &ref);
    SimplexSolver warm_solver;
    ASSERT_EQ(warm_solver.Solve(m).status, LpStatus::kOptimal);

    // Shift every row's range toward a different interior point: enough
    // movement to knock basic slacks out of bounds (forcing actual dual
    // pivots) while keeping the reference point feasible.
    Rng rng(9200 + static_cast<uint64_t>(trial));
    for (size_t r = 0; r < m.num_rows(); ++r) {
      double activity = 0.0;
      for (const RowEntry& e : m.row_entries(r)) {
        activity += e.coeff * ref[static_cast<size_t>(e.var)];
      }
      ASSERT_TRUE(m.UpdateRowBounds(static_cast<RowId>(r), activity - rng.Uniform(0.1, 0.8),
                                    activity + rng.Uniform(0.1, 0.8)));
    }

    LpResult warm = warm_solver.ResolveWithBasis(m, {});
    SimplexSolver fresh_solver;
    LpResult fresh = fresh_solver.Solve(m);
    ASSERT_EQ(warm.status, fresh.status) << "trial " << trial;
    ASSERT_EQ(warm.status, LpStatus::kOptimal) << "trial " << trial;
    EXPECT_NEAR(warm.objective, fresh.objective, 1e-5) << "trial " << trial;
    ASSERT_EQ(warm.x.size(), fresh.x.size());
    for (size_t j = 0; j < warm.x.size(); ++j) {
      EXPECT_NEAR(warm.x[j], fresh.x[j], 1e-5) << "trial " << trial << " x" << j;
    }
    ASSERT_EQ(warm.duals.size(), fresh.duals.size());
    for (size_t i = 0; i < warm.duals.size(); ++i) {
      EXPECT_NEAR(warm.duals[i], fresh.duals[i], 1e-5)
          << "trial " << trial << " dual" << i;
    }
    if (warm.used_dual_simplex) {
      ++dual_ran;
      EXPECT_GT(warm.dual_iterations, 0) << "trial " << trial;
    }
  }
  // The RHS shifts must actually exercise the dual kernel, not just the
  // primal fallback, or this test proves nothing about it.
  EXPECT_GE(dual_ran, 10);
}

TEST(WarmResolveTest, DualSimplexDeclinedAfterCostChangeYetCorrect) {
  // A cost change breaks dual feasibility of the retained basis, so the
  // dual-resolve gate must decline (used_dual_simplex stays false) and the
  // primal path must still produce the right answer.
  std::vector<double> ref;
  Model m = RandomLp(9300, 10, 7, &ref);
  SimplexSolver warm_solver;
  ASSERT_EQ(warm_solver.Solve(m).status, LpStatus::kOptimal);

  Rng rng(9301);
  for (size_t j = 0; j < m.num_variables(); ++j) {
    m.SetObjectiveCost(static_cast<VarId>(j), rng.Uniform(-3, 3));
  }
  // Also perturb one row so the basis is primal-infeasible too — the gate
  // must reject on dual-infeasibility even when a dual start is "needed".
  double activity = 0.0;
  for (const RowEntry& e : m.row_entries(0)) {
    activity += e.coeff * ref[static_cast<size_t>(e.var)];
  }
  ASSERT_TRUE(m.UpdateRowBounds(0, activity - 0.2, activity + 0.2));

  LpResult warm = warm_solver.ResolveWithBasis(m, {});
  EXPECT_FALSE(warm.used_dual_simplex);
  EXPECT_EQ(warm.dual_iterations, 0);
  SimplexSolver fresh;
  LpResult cold = fresh.Solve(m);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-5);
  EXPECT_TRUE(m.IsFeasible(warm.x, 1e-5));
}

}  // namespace
}  // namespace ras
