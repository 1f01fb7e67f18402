#include "src/solver/mip.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/core/assignment_decoder.h"
#include "src/core/async_solver.h"
#include "src/core/buffer_policy.h"
#include "src/core/initial_assignment.h"
#include "src/core/model_builder.h"
#include "src/core/rru.h"
#include "src/core/solve_input.h"
#include "src/fleet/fleet_gen.h"
#include "src/fleet/service_profile.h"
#include "src/util/monotonic_time.h"
#include "src/util/rng.h"

namespace ras {
namespace {

constexpr double kTol = 1e-5;

TEST(MipTest, PureLpPassesThrough) {
  Model m;
  VarId x = m.AddContinuous(0, 4, -1.0);
  (void)x;
  MipResult r = MipSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -4.0, kTol);
}

TEST(MipTest, SimpleIntegerRounding) {
  // max x st 2x <= 7, x integer -> x = 3.
  Model m;
  VarId x = m.AddInteger(0, kInf, -1.0);
  RowId r1 = m.AddRow(-kInf, 7);
  m.AddCoefficient(r1, x, 2);
  MipResult r = MipSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.x[x], 3.0, kTol);
  EXPECT_NEAR(r.objective, -3.0, kTol);
}

TEST(MipTest, KnapsackKnownOptimum) {
  // Classic: capacity 10; items (value, weight): (10,5) (40,4) (30,6) (50,3).
  // Optimum: items 2 and 4 -> value 90, weight 7.
  Model m;
  double values[] = {10, 40, 30, 50};
  double weights[] = {5, 4, 6, 3};
  RowId cap = m.AddRow(-kInf, 10);
  std::vector<VarId> x;
  for (int i = 0; i < 4; ++i) {
    VarId v = m.AddInteger(0, 1, -values[i]);
    m.AddCoefficient(cap, v, weights[i]);
    x.push_back(v);
  }
  MipResult r = MipSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -90.0, kTol);
  EXPECT_NEAR(r.x[x[1]], 1.0, kTol);
  EXPECT_NEAR(r.x[x[3]], 1.0, kTol);
  EXPECT_NEAR(r.x[x[0]], 0.0, kTol);
  EXPECT_NEAR(r.x[x[2]], 0.0, kTol);
}

TEST(MipTest, AssignmentProblemIsIntegralAtRoot) {
  // 3x3 assignment; LP relaxation of assignment is integral, so B&B should
  // finish in one node.
  Model m;
  double cost[3][3] = {{4, 2, 8}, {4, 3, 7}, {3, 1, 6}};
  VarId x[3][3];
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      x[i][j] = m.AddInteger(0, 1, cost[i][j]);
    }
  }
  for (int i = 0; i < 3; ++i) {
    RowId r = m.AddRow(1, 1);
    for (int j = 0; j < 3; ++j) {
      m.AddCoefficient(r, x[i][j], 1);
    }
  }
  for (int j = 0; j < 3; ++j) {
    RowId r = m.AddRow(1, 1);
    for (int i = 0; i < 3; ++i) {
      m.AddCoefficient(r, x[i][j], 1);
    }
  }
  MipResult r = MipSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  // Optimal: (0,1)+(1,2)+(2,0) = 2+7+3 = 12? Alternatives: (0,0)+(1,1)+(2,2)
  // = 4+3+6=13; (0,1)+(1,0)+(2,2)=2+4+6=12. Min is 12.
  EXPECT_NEAR(r.objective, 12.0, kTol);
  EXPECT_LE(r.nodes, 5);
}

TEST(MipTest, InfeasibleIntegerProblem) {
  // 0.4 <= x <= 0.6, x integer: no integer point.
  Model m;
  (void)m.AddInteger(0, 1, 1.0);
  RowId r1 = m.AddRow(0.4, 0.6);
  m.AddCoefficient(r1, 0, 1);
  MipResult r = MipSolver().Solve(m);
  EXPECT_EQ(r.status, MipStatus::kInfeasible);
}

TEST(MipTest, UnboundedProblem) {
  Model m;
  (void)m.AddInteger(0, kInf, -1.0);
  MipResult r = MipSolver().Solve(m);
  // A fully unbounded integer variable: the LP relaxation is unbounded.
  EXPECT_EQ(r.status, MipStatus::kUnbounded);
}

TEST(MipTest, WarmStartSeedsIncumbent) {
  Model m;
  VarId x = m.AddInteger(0, 10, -1.0);
  RowId r1 = m.AddRow(-kInf, 7.5);
  m.AddCoefficient(r1, x, 1);
  std::vector<double> warm = {5.0};
  MipOptions opts;
  opts.max_nodes = 0;  // No search at all; only the warm start survives.
  MipResult r = MipSolver(opts).Solve(m, &warm);
  EXPECT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_NEAR(r.objective, -5.0, kTol);
}

TEST(MipTest, InfeasibleWarmStartIgnored) {
  Model m;
  VarId x = m.AddInteger(0, 10, -1.0);
  RowId r1 = m.AddRow(-kInf, 7.5);
  m.AddCoefficient(r1, x, 1);
  std::vector<double> warm = {9.0};  // Violates the row.
  MipResult r = MipSolver().Solve(m, &warm);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.objective, -7.0, kTol);
}

TEST(MipTest, MixedIntegerContinuous) {
  // min -x - 10y, x continuous in [0, 3.7], y integer, x + 2y <= 6.
  // y = 3 -> x = 0, obj -30; y = 2 -> x = 2 -> -22. Optimal y=3? x+2y<=6 ->
  // y=3 forces x=0 -> -30. Yes.
  Model m;
  VarId x = m.AddContinuous(0, 3.7, -1.0);
  VarId y = m.AddInteger(0, kInf, -10.0);
  RowId r1 = m.AddRow(-kInf, 6);
  m.AddCoefficient(r1, x, 1);
  m.AddCoefficient(r1, y, 2);
  MipResult r = MipSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.x[y], 3.0, kTol);
  EXPECT_NEAR(r.x[x], 0.0, kTol);
  EXPECT_NEAR(r.objective, -30.0, kTol);
}

TEST(MipTest, NodeLimitReportsFeasibleWithGap) {
  // A knapsack big enough to need several nodes; cap nodes at 1.
  Rng rng(99);
  Model m;
  RowId cap = m.AddRow(-kInf, 50);
  for (int i = 0; i < 20; ++i) {
    VarId v = m.AddInteger(0, 1, -rng.Uniform(1, 20));
    m.AddCoefficient(cap, v, rng.Uniform(1, 15));
  }
  MipOptions opts;
  opts.max_nodes = 1;
  MipResult r = MipSolver(opts).Solve(m);
  // One node: either optimal (integral root) or an early stop with a bound.
  if (r.status == MipStatus::kFeasible) {
    EXPECT_LE(r.best_bound, r.objective + kTol);
  } else {
    EXPECT_TRUE(r.status == MipStatus::kOptimal || r.status == MipStatus::kNoSolutionFound);
  }
}

TEST(MipTest, GapIsNonNegativeAndClosesAtOptimality) {
  Model m;
  VarId x = m.AddInteger(0, 10, -3.0);
  RowId r1 = m.AddRow(-kInf, 8.4);
  m.AddCoefficient(r1, x, 1);
  MipResult r = MipSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_NEAR(r.gap(), 0.0, kTol);
}

// Random bounded integer program: min c.x s.t. Ax <= b, x integer in [0, U].
// A >= 0 and b >= 0, so x = 0 is always feasible and the model never
// unbounded — every instance has a provable optimum.
Model RandomIp(Rng& rng) {
  Model m;
  const int num_vars = 3 + static_cast<int>(rng.UniformInt(0, 5));
  const int num_rows = 2 + static_cast<int>(rng.UniformInt(0, 3));
  for (int j = 0; j < num_vars; ++j) {
    m.AddInteger(0.0, 1.0 + static_cast<double>(rng.UniformInt(0, 4)),
                 rng.Uniform(-5.0, -0.5));
  }
  for (int r = 0; r < num_rows; ++r) {
    RowId row = m.AddRow(-kInf, rng.Uniform(3.0, 15.0));
    for (int j = 0; j < num_vars; ++j) {
      if (rng.NextDouble() < 0.6) {
        m.AddCoefficient(row, j, rng.Uniform(0.2, 3.0));
      }
    }
  }
  return m;
}

MipOptions TightOptions() {
  MipOptions options;
  options.absolute_gap = 1e-6;
  options.relative_gap = 1e-9;
  options.max_nodes = 200000;
  return options;
}

TEST(MipTest, RepeatRunsAreBitIdentical) {
  Rng rng(707);
  for (int trial = 0; trial < 5; ++trial) {
    Model m = RandomIp(rng);
    MipResult a = MipSolver(TightOptions()).Solve(m);
    MipResult b = MipSolver(TightOptions()).Solve(m);
    ASSERT_EQ(a.status, b.status) << "trial " << trial;
    EXPECT_EQ(a.x, b.x) << "trial " << trial;  // Bitwise, not approximate.
    EXPECT_EQ(a.nodes, b.nodes) << "trial " << trial;
    EXPECT_EQ(a.lp_iterations, b.lp_iterations) << "trial " << trial;
  }
}

TEST(MipTest, NodeLimitStillReturnsFeasibleIncumbent) {
  Rng rng(808);
  Model m = RandomIp(rng);
  MipOptions options = TightOptions();
  options.max_nodes = 2;  // Trip the limit almost immediately.
  // With no heuristic installed, two nodes may not reach an integer point;
  // the all-zero point (feasible for every RandomIp) seeds the incumbent.
  const std::vector<double> warm(m.num_variables(), 0.0);
  MipResult r = MipSolver(options).Solve(m, &warm);
  ASSERT_TRUE(r.status == MipStatus::kOptimal || r.status == MipStatus::kFeasible);
  ASSERT_FALSE(r.x.empty());
  EXPECT_TRUE(m.IsFeasible(r.x, 1e-6));
  EXPECT_LE(r.best_bound, r.objective + 1e-6);
}

TEST(MipTest, ZeroNodeBudgetReturnsTheWarmStart) {
  // The supervisor's incumbent rung: with no node budget the search never
  // reaches the root, so the feasible warm start ships with no bound.
  Rng rng(808);
  Model m = RandomIp(rng);
  MipOptions options = TightOptions();
  options.max_nodes = 0;
  const std::vector<double> warm(m.num_variables(), 0.0);
  MipResult r = MipSolver(options).Solve(m, &warm);
  EXPECT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_EQ(r.x, warm);
  EXPECT_EQ(r.objective, m.Objective(warm));
  EXPECT_EQ(r.nodes, 0);
  EXPECT_EQ(r.lp_iterations, 0);
  EXPECT_EQ(r.best_bound, -kInf);
}

// A deferred warm start (the Async Solver computes it beside the search) is
// asked for exactly once, with or without a search, and gives the result the
// same start in hand gives.
TEST(MipTest, WarmStartSourceIsAskedExactlyOnce) {
  Rng rng(808);
  Model m = RandomIp(rng);
  const std::vector<double> warm(m.num_variables(), 0.0);
  for (int64_t max_nodes : {int64_t{0}, int64_t{1}, int64_t{200}}) {
    SCOPED_TRACE(max_nodes);
    MipOptions options = TightOptions();
    options.max_nodes = max_nodes;
    int calls = 0;
    const MipResult deferred = MipSolver(options).Solve(
        m,
        [&] {
          ++calls;
          return &warm;
        },
        nullptr);
    const MipResult in_hand = MipSolver(options).Solve(m, &warm);
    EXPECT_EQ(calls, 1);
    EXPECT_EQ(deferred.status, in_hand.status);
    EXPECT_EQ(deferred.x, in_hand.x);
    EXPECT_EQ(deferred.objective, in_hand.objective);
    EXPECT_EQ(deferred.best_bound, in_hand.best_bound);
    EXPECT_EQ(deferred.nodes, in_hand.nodes);
    EXPECT_EQ(deferred.lp_iterations, in_hand.lp_iterations);
  }
}

// The warm start is the search's last incumbent candidate: the search runs
// as if there were none, and the start replaces its incumbent only when
// strictly better. Status and bound follow from the result: proven optimal
// with the bound at the objective, or feasible with the search's open bound
// capped by the objective.
TEST(MipTest, WarmStartIsTheLastCandidate) {
  Rng rng(909);
  for (int trial = 0; trial < 12; ++trial) {
    SCOPED_TRACE(trial);
    const Model m = RandomIp(rng);
    const MipResult optimum = MipSolver(TightOptions()).Solve(m);
    ASSERT_EQ(optimum.status, MipStatus::kOptimal);
    std::vector<double> at_upper(m.num_variables());
    for (size_t j = 0; j < m.num_variables(); ++j) {
      at_upper[j] = m.variable(j).ub;
    }
    // The worst feasible point, the best one, and (almost always) an
    // infeasible one.
    const std::vector<std::vector<double>> starts = {
        std::vector<double>(m.num_variables(), 0.0), optimum.x, at_upper};
    for (int64_t max_nodes : {int64_t{0}, int64_t{1}, int64_t{24}, int64_t{200}}) {
      SCOPED_TRACE(max_nodes);
      MipOptions options = TightOptions();
      options.max_nodes = max_nodes;
      const MipResult alone = MipSolver(options).Solve(m, nullptr);
      for (size_t s = 0; s < starts.size(); ++s) {
        SCOPED_TRACE(s);
        const std::vector<double>& warm = starts[s];
        const MipResult r = MipSolver(options).Solve(m, &warm);
        const bool warm_wins = m.IsFeasible(warm, 1e-5) &&
                               (alone.x.empty() || m.Objective(warm) < alone.objective);
        EXPECT_EQ(r.x, warm_wins ? warm : alone.x);
        EXPECT_EQ(r.nodes, alone.nodes);
        EXPECT_EQ(r.lp_iterations, alone.lp_iterations);
        if (r.x.empty()) {
          EXPECT_EQ(r.status, alone.status);
          EXPECT_EQ(r.best_bound, alone.best_bound);
          continue;
        }
        EXPECT_EQ(r.objective, m.Objective(r.x));
        if (r.status == MipStatus::kOptimal) {
          EXPECT_EQ(r.best_bound, r.objective);
        } else {
          ASSERT_EQ(r.status, MipStatus::kFeasible);
          EXPECT_GT(r.gap(), options.absolute_gap);
          EXPECT_EQ(r.best_bound, std::min(alone.best_bound, r.objective));
        }
        if (alone.status == MipStatus::kOptimal) {
          EXPECT_EQ(r.status, MipStatus::kOptimal);
        }
      }
    }
  }
}

// The Figure 9 workload shape: a real phase-1 RAS model, solved to a proven
// optimum by the generic search alone.
TEST(MipTest, RasPhase1ModelSolvesToProvenOptimum) {
  FleetOptions fleet_options;
  fleet_options.num_datacenters = 2;
  fleet_options.msbs_per_datacenter = 2;
  fleet_options.racks_per_msb = 3;
  fleet_options.servers_per_rack = 6;
  fleet_options.seed = 2026;
  Fleet fleet = GenerateFleet(fleet_options);
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  // Count-based reservations with integer capacities and no shared or
  // correlated buffers: the LP bound is tight (no fractional-coverage
  // rounding gap, no fractional worst-MSB buffer variable), so
  // branch-and-bound can prove optimality. Paper-profile RRU vectors leave an
  // inherent LP-IP gap no search can close (fig09_quality_gap.cpp measures
  // it); they are covered by the bench.
  for (int i = 0; i < 4; ++i) {
    ReservationSpec spec;
    spec.name = "svc-" + std::to_string(i);
    spec.capacity_rru = 6.0 + 2.0 * i;
    spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
    spec.needs_correlated_buffer = false;
    ASSERT_TRUE(registry.Create(spec).ok());
  }

  // Concentrated pre-existing bindings (as in fig09_quality_gap.cpp) so the
  // search actually has to weigh stability against acquisition and branch.
  SolveInput probe = SnapshotSolveInput(broker, registry, fleet.catalog);
  for (size_t r = 0; r < probe.reservations.size() && r < 3; ++r) {
    for (ServerId id = static_cast<ServerId>(r * 12); id < (r + 1) * 12; ++id) {
      broker.SetCurrent(id, probe.reservations[r].id);
    }
  }

  SolverConfig config;
  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built = BuildRasModel(input, classes, config, /*include_rack_spread=*/false);

  // Tight gap and generous budgets. No warm start and no heuristic: the
  // branching alone has to find the optimum that the root bound then proves.
  MipOptions options = TightOptions();
  options.absolute_gap = 1e-4;
  MipResult r = MipSolver(options).Solve(built.model);
  ASSERT_EQ(r.status, MipStatus::kOptimal);
  EXPECT_TRUE(built.model.IsFeasible(r.x, 1e-5));
  EXPECT_EQ(r.best_bound, r.objective);
}

// A 480-server region (2 datacenters x 3 MSBs x 8 racks x 10 servers) with
// the shared buffers, eight paper-profile services asking for 70% of the
// fleet between them, and 60% of the servers already bound round-robin:
// bench/sweep_common.h's SweepRegion(0), rebuilt here so the solver tests do
// not depend on the benches.
struct PhaseOneRegion {
  Fleet fleet;
  SolveInput input;
  std::vector<EquivalenceClass> classes;
  BuiltModel built;

  PhaseOneRegion() {
    FleetOptions options;
    options.num_datacenters = 2;
    options.msbs_per_datacenter = 3;
    options.racks_per_msb = 8;
    options.servers_per_rack = 10;
    options.seed = 5150;
    fleet = GenerateFleet(options);
    ResourceBroker broker(&fleet.topology);
    ReservationRegistry registry;
    EnsureSharedBuffers(registry, fleet.topology, fleet.catalog, 0.02);
    Rng rng(4242);
    std::vector<ServiceProfile> profiles = MakePaperServiceProfiles();
    constexpr int kServices = 8;
    const double budget = static_cast<double>(fleet.topology.num_servers()) * 0.7;
    for (int i = 0; i < kServices; ++i) {
      ReservationSpec spec;
      spec.name = "svc-" + std::to_string(i);
      spec.capacity_rru = rng.Uniform(0.5, 1.5) * budget / kServices;
      spec.rru_per_type = BuildRruVector(fleet.catalog, profiles[i % profiles.size()]);
      EXPECT_TRUE(registry.Create(spec).ok());
    }
    SolveInput probe = SnapshotSolveInput(broker, registry, fleet.catalog);
    for (ServerId id = 0; id < broker.num_servers(); ++id) {
      if (id % 5 < 3) {
        broker.SetCurrent(id, probe.reservations[id % probe.reservations.size()].id);
      }
    }
    input = SnapshotSolveInput(broker, registry, fleet.catalog);
    classes = BuildEquivalenceClasses(input, Scope::kMsb);
    built = BuildRasModel(input, classes, SolverConfig(), /*include_rack_spread=*/false);
  }
};

// The root LP from the current assignment (every held class at its count)
// reaches the cold solve's optimum in fewer pivots.
TEST(MipTest, RootLpFromCurrentAssignmentTakesFewerPivots) {
  PhaseOneRegion region;
  const std::vector<double> start =
      MakeWarmStart(region.input, region.classes, region.built, region.built.initial_counts);

  LpResult cold = SimplexSolver().Solve(region.built.model);
  LpResult warm = SimplexSolver().Solve(region.built.model, {}, &start);
  ASSERT_EQ(cold.status, LpStatus::kOptimal);
  ASSERT_EQ(warm.status, LpStatus::kOptimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-6 * std::fabs(cold.objective));
  EXPECT_LT(warm.iterations, cold.iterations);
}

// With a work limit worth a quarter of the root LP's pivots, the LP stops
// there and the MIP returns its warm start, its bound still the open root's;
// a second run stops at the same pivot with the same result.
TEST(MipTest, RootLpStopsAtTheWorkLimit) {
  PhaseOneRegion region;
  const Model& model = region.built.model;
  const std::vector<double> warm = MakeWarmStart(
      region.input, region.classes, region.built,
      BuildInitialCounts(region.input, region.classes, region.built));
  ASSERT_TRUE(model.IsFeasible(warm, 1e-5));

  const LpResult root = SimplexSolver().Solve(model);
  ASSERT_EQ(root.status, LpStatus::kOptimal);
  const int64_t pivots = root.iterations / 4;
  ASSERT_GT(pivots, 0);
  MipOptions options;
  options.max_lp_work =
      pivots * static_cast<int64_t>(model.num_rows() + model.num_variables());
  const MipResult r = MipSolver(options).Solve(model, &warm);

  EXPECT_EQ(r.status, MipStatus::kFeasible);
  EXPECT_TRUE(r.hit_work_limit);
  EXPECT_EQ(r.nodes, 1);
  EXPECT_EQ(r.lp_iterations, pivots);
  EXPECT_EQ(r.x, warm);
  EXPECT_EQ(r.objective, model.Objective(warm));
  EXPECT_LT(r.best_bound, r.objective);

  const MipResult again = MipSolver(options).Solve(model, &warm);
  EXPECT_EQ(again.status, r.status);
  EXPECT_EQ(again.x, r.x);
  EXPECT_EQ(again.objective, r.objective);
  EXPECT_EQ(again.best_bound, r.best_bound);
  EXPECT_EQ(again.lp_iterations, r.lp_iterations);
}

// The production phase-1 steps, the polished start and the MIP, give the
// same answer with the clock running 1000x fast: every solver loop stops on
// a count of its work, never on the clock.
TEST(MipTest, PhaseOneAnswerIgnoresTheClock) {
  struct Answer {
    std::vector<double> start;
    std::vector<double> root_start;
    MipResult mip;
    DecodedAssignment decoded;
  };
  auto solve = [](const PhaseOneRegion& region) {
    const MipOptions options = SolverConfig().phase1_mip;
    Answer a;
    a.start = MakePhaseStart(region.input, region.classes, region.built);
    a.root_start = MakeRootStart(region.input, region.classes, region.built);
    a.mip = SolvePhaseMip(region.input, region.classes, region.built, options, a.start);
    a.decoded = DecodeAssignment(region.input, region.classes, region.built, a.mip.x);
    return a;
  };
  struct ClockScale {
    explicit ClockScale(double scale) { util::SetClockScaleForTesting(scale); }
    ~ClockScale() { util::SetClockScaleForTesting(1.0); }
  };

  PhaseOneRegion region;
  const Answer normal = solve(region);
  Answer fast;
  {
    ClockScale scale(1000.0);
    fast = solve(region);
  }
  ASSERT_EQ(normal.mip.status, MipStatus::kFeasible);
  EXPECT_EQ(fast.start, normal.start);
  EXPECT_EQ(fast.root_start, normal.root_start);
  EXPECT_EQ(fast.mip.status, normal.mip.status);
  EXPECT_EQ(fast.mip.x, normal.mip.x);
  EXPECT_EQ(fast.mip.objective, normal.mip.objective);
  EXPECT_EQ(fast.mip.best_bound, normal.mip.best_bound);
  EXPECT_EQ(fast.mip.nodes, normal.mip.nodes);
  EXPECT_EQ(fast.mip.lp_iterations, normal.mip.lp_iterations);
  EXPECT_EQ(fast.mip.hit_work_limit, normal.mip.hit_work_limit);
  EXPECT_EQ(fast.decoded.targets, normal.decoded.targets);
}

// Property sweep: random knapsacks cross-checked against brute force.
class RandomKnapsackTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomKnapsackTest, MatchesBruteForce) {
  Rng rng(500 + GetParam());
  int n = static_cast<int>(rng.UniformInt(4, 12));
  std::vector<double> value(n), weight(n);
  double capacity = 0;
  for (int i = 0; i < n; ++i) {
    value[i] = rng.Uniform(1, 30);
    weight[i] = rng.Uniform(1, 10);
    capacity += weight[i];
  }
  capacity *= 0.4;

  Model m;
  RowId cap = m.AddRow(-kInf, capacity);
  for (int i = 0; i < n; ++i) {
    VarId v = m.AddInteger(0, 1, -value[i]);
    m.AddCoefficient(cap, v, weight[i]);
  }
  MipResult r = MipSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal) << "case " << GetParam();

  // Brute force over all subsets.
  double best = 0;
  for (int mask = 0; mask < (1 << n); ++mask) {
    double v = 0, w = 0;
    for (int i = 0; i < n; ++i) {
      if (mask & (1 << i)) {
        v += value[i];
        w += weight[i];
      }
    }
    if (w <= capacity + 1e-9) {
      best = std::max(best, v);
    }
  }
  EXPECT_NEAR(-r.objective, best, 1e-4) << "case " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomKnapsackTest, ::testing::Range(0, 30));

// Property sweep: random bounded integer programs where a feasible integer
// point is planted by construction; solver must find something at least as
// good and integral.
class RandomIntegerLpTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomIntegerLpTest, FindsFeasibleIntegerAtLeastAsGood) {
  Rng rng(9000 + GetParam());
  int n = static_cast<int>(rng.UniformInt(3, 8));
  int rows = static_cast<int>(rng.UniformInt(2, 6));
  Model m;
  std::vector<double> planted(n);
  for (int j = 0; j < n; ++j) {
    int64_t lb = rng.UniformInt(-3, 0);
    int64_t ub = lb + rng.UniformInt(2, 8);
    planted[j] = static_cast<double>(rng.UniformInt(lb, ub));
    m.AddInteger(static_cast<double>(lb), static_cast<double>(ub), rng.Uniform(-3, 3));
  }
  for (int i = 0; i < rows; ++i) {
    RowId r = m.AddRow(0, 0);
    double activity = 0;
    for (int j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.5)) {
        double c = static_cast<double>(rng.UniformInt(-3, 3));
        m.AddCoefficient(r, j, c);
        activity += c * planted[j];
      }
    }
    m.SetRowBounds(r, activity - rng.Uniform(0, 4), activity + rng.Uniform(0, 4));
  }
  MipResult r = MipSolver().Solve(m);
  ASSERT_EQ(r.status, MipStatus::kOptimal) << "case " << GetParam();
  EXPECT_TRUE(m.IsFeasible(r.x, 1e-5));
  EXPECT_LE(r.objective, m.Objective(planted) + 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomIntegerLpTest, ::testing::Range(0, 30));

}  // namespace
}  // namespace ras
