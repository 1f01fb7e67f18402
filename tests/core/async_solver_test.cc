// End-to-end tests of the two-phase Async Solver over synthetic fleets.

#include "src/core/async_solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <thread>

#include "src/core/buffer_policy.h"
#include "src/core/rru.h"
#include "src/fleet/fleet_gen.h"
#include "tests/util/pool_blocker.h"

namespace ras {
namespace {

FleetOptions SmallFleetOptions() {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 3;
  opts.racks_per_msb = 6;
  opts.servers_per_rack = 8;
  opts.seed = 11;
  return opts;  // 2 * 3 * 6 * 8 = 288 servers.
}

// A count-based reservation accepting every hardware type.
ReservationSpec AnyTypeReservation(const HardwareCatalog& catalog, const std::string& name,
                                   double capacity) {
  ReservationSpec spec;
  spec.name = name;
  spec.capacity_rru = capacity;
  spec.rru_per_type.assign(catalog.size(), 1.0);
  return spec;
}

struct TestRegion {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;

  explicit TestRegion(const FleetOptions& opts) : fleet(GenerateFleet(opts)) {
    broker = std::make_unique<ResourceBroker>(&fleet.topology);
  }
};

// Post-solve capacity accounting for one reservation over broker targets.
struct TargetAccounting {
  double total_rru = 0.0;
  double worst_msb_rru = 0.0;
  size_t servers = 0;
};

TargetAccounting AccountTargets(const TestRegion& region, const ReservationSpec& spec) {
  TargetAccounting acc;
  std::map<MsbId, double> per_msb;
  for (ServerId id = 0; id < region.broker->num_servers(); ++id) {
    if (region.broker->record(id).target != spec.id) {
      continue;
    }
    const Server& s = region.fleet.topology.server(id);
    double v = spec.ValueOfType(s.type);
    acc.total_rru += v;
    per_msb[s.msb] += v;
    ++acc.servers;
  }
  for (const auto& [msb, rru] : per_msb) {
    acc.worst_msb_rru = std::max(acc.worst_msb_rru, rru);
  }
  return acc;
}

TEST(AsyncSolverTest, SingleReservationGetsCapacityPlusBuffer) {
  TestRegion region(SmallFleetOptions());
  auto id = region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 60));
  ASSERT_TRUE(id.ok());

  AsyncSolver solver;
  auto stats = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_TRUE(stats->phase1.ran);
  EXPECT_NEAR(stats->total_shortfall_rru, 0.0, 1e-6);

  const ReservationSpec& spec = *region.registry.Find(*id);
  TargetAccounting acc = AccountTargets(region, spec);
  // Expression (6): capacity survives the loss of the worst MSB.
  EXPECT_GE(acc.total_rru - acc.worst_msb_rru, 60.0 - 1e-6);
}

TEST(AsyncSolverTest, BufferIsEmbeddedAcrossMsbs) {
  TestRegion region(SmallFleetOptions());
  auto id = region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 60));
  ASSERT_TRUE(id.ok());
  AsyncSolver solver;
  ASSERT_TRUE(solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog).ok());

  const ReservationSpec& spec = *region.registry.Find(*id);
  TargetAccounting acc = AccountTargets(region, spec);
  // With 6 MSBs the worst-MSB share should be far below 100% — the solver
  // spreads rather than stuffing one fault domain.
  EXPECT_LT(acc.worst_msb_rru / acc.total_rru, 0.4);
}

TEST(AsyncSolverTest, MultipleReservationsAllSatisfied) {
  TestRegion region(SmallFleetOptions());
  std::vector<ReservationId> ids;
  for (int i = 0; i < 4; ++i) {
    auto id = region.registry.Create(
        AnyTypeReservation(region.fleet.catalog, "svc" + std::to_string(i), 30));
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  AsyncSolver solver;
  auto stats = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->total_shortfall_rru, 0.0, 1e-6);
  for (ReservationId id : ids) {
    const ReservationSpec& spec = *region.registry.Find(id);
    TargetAccounting acc = AccountTargets(region, spec);
    EXPECT_GE(acc.total_rru - acc.worst_msb_rru, 30.0 - 1e-6) << spec.name;
  }
}

TEST(AsyncSolverTest, NoServerDoubleAssigned) {
  TestRegion region(SmallFleetOptions());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(region.registry
                    .Create(AnyTypeReservation(region.fleet.catalog, "s" + std::to_string(i), 40))
                    .ok());
  }
  AsyncSolver solver;
  ASSERT_TRUE(solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog).ok());
  // Targets are single-valued by construction of the broker; verify every
  // server has exactly one target and totals are consistent.
  size_t assigned = 0;
  for (ServerId id = 0; id < region.broker->num_servers(); ++id) {
    if (region.broker->record(id).target != kUnassigned) {
      ++assigned;
    }
  }
  EXPECT_GT(assigned, 120u);  // 3 x 40 plus buffers.
  EXPECT_LE(assigned, region.broker->num_servers());
}

TEST(AsyncSolverTest, OversizedRequestReportsShortfall) {
  TestRegion region(SmallFleetOptions());
  // Far more capacity than the region holds.
  ASSERT_TRUE(
      region.registry.Create(AnyTypeReservation(region.fleet.catalog, "huge", 10000)).ok());
  AsyncSolver solver;
  auto stats = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(stats.ok());
  // Softened capacity constraint: the solve completes and reports the gap.
  EXPECT_GT(stats->total_shortfall_rru, 1000.0);
}

TEST(AsyncSolverTest, StabilityAcrossResolves) {
  TestRegion region(SmallFleetOptions());
  auto id = region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 80));
  ASSERT_TRUE(id.ok());
  AsyncSolver solver;
  ASSERT_TRUE(solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog).ok());
  // Materialize bindings (current := target) so the next snapshot sees them.
  for (ServerId s = 0; s < region.broker->num_servers(); ++s) {
    region.broker->SetCurrent(s, region.broker->record(s).target);
  }
  // Re-solve with no input change: Expression (1) should keep moves ~zero.
  auto stats = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats->moves_total, 4u);
}

TEST(AsyncSolverTest, HardwareRestrictedReservation) {
  TestRegion region(SmallFleetOptions());
  const HardwareCatalog& catalog = region.fleet.catalog;
  // Accept only the generation-3 web SKU.
  ReservationSpec spec;
  spec.name = "gen3-only";
  spec.capacity_rru = 10;
  spec.rru_per_type.assign(catalog.size(), 0.0);
  spec.rru_per_type[catalog.FindByName("C3")] = 1.0;
  auto id = region.registry.Create(spec);
  ASSERT_TRUE(id.ok());

  AsyncSolver solver;
  ASSERT_TRUE(solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog).ok());
  for (ServerId s = 0; s < region.broker->num_servers(); ++s) {
    if (region.broker->record(s).target == *id) {
      EXPECT_EQ(catalog.type(region.fleet.topology.server(s).type).name, "C3");
    }
  }
}

TEST(AsyncSolverTest, AffinityConstraintSteersCapacityToDatacenter) {
  TestRegion region(SmallFleetOptions());
  ReservationSpec spec = AnyTypeReservation(region.fleet.catalog, "dc0-bound", 40);
  spec.dc_affinity[0] = 0.9;  // 90% of capacity in DC 0.
  spec.affinity_theta = 0.05;
  auto id = region.registry.Create(spec);
  ASSERT_TRUE(id.ok());

  AsyncSolver solver;
  ASSERT_TRUE(solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog).ok());
  // Expression (7) bounds the DC-0 RRU within theta of A * C_r. RRU == server
  // count here (count-based request).
  double in_dc0 = 0, total = 0;
  for (ServerId s = 0; s < region.broker->num_servers(); ++s) {
    if (region.broker->record(s).target == *id) {
      total += 1.0;
      if (region.fleet.topology.server(s).dc == 0) {
        in_dc0 += 1.0;
      }
    }
  }
  ASSERT_GT(total, 0);
  EXPECT_GE(in_dc0, (0.9 - 0.05) * 40 - 1e-6);
  EXPECT_LE(in_dc0, (0.9 + 0.05) * 40 + 1e-6);
}

TEST(AsyncSolverTest, UnavailableServersNeverTargeted) {
  TestRegion region(SmallFleetOptions());
  ASSERT_TRUE(region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 50)).ok());
  // Fail a third of the fleet.
  for (ServerId s = 0; s < region.broker->num_servers(); s += 3) {
    region.broker->SetUnavailability(s, Unavailability::kUnplannedHardware);
  }
  AsyncSolver solver;
  ASSERT_TRUE(solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog).ok());
  for (ServerId s = 0; s < region.broker->num_servers(); s += 3) {
    // Failed servers keep their old (unassigned) target: the solver never
    // counts them as capacity.
    EXPECT_EQ(region.broker->record(s).target, kUnassigned);
  }
}

TEST(AsyncSolverTest, PlannedMaintenanceCountsAsUsable) {
  TestRegion region(SmallFleetOptions());
  auto id = region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 50));
  ASSERT_TRUE(id.ok());
  for (ServerId s = 0; s < region.broker->num_servers(); s += 4) {
    region.broker->SetUnavailability(s, Unavailability::kPlannedMaintenance);
  }
  AsyncSolver solver;
  auto stats = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->total_shortfall_rru, 0.0, 1e-6);
  // Maintenance servers are assignable (Section 3.5.1).
  bool any_maintenance_assigned = false;
  for (ServerId s = 0; s < region.broker->num_servers(); s += 4) {
    if (region.broker->record(s).target != kUnassigned) {
      any_maintenance_assigned = true;
    }
  }
  EXPECT_TRUE(any_maintenance_assigned);
}

TEST(AsyncSolverTest, SharedBuffersPopulated) {
  TestRegion region(SmallFleetOptions());
  std::vector<ReservationId> buffers =
      EnsureSharedBuffers(region.registry, region.fleet.topology, region.fleet.catalog, 0.02);
  ASSERT_FALSE(buffers.empty());
  ASSERT_TRUE(region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 40)).ok());

  AsyncSolver solver;
  auto stats = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(stats.ok());
  EXPECT_NEAR(stats->total_shortfall_rru, 0.0, 1e-6);
  size_t buffered = 0;
  for (ServerId s = 0; s < region.broker->num_servers(); ++s) {
    ReservationId t = region.broker->record(s).target;
    for (ReservationId b : buffers) {
      if (t == b) {
        ++buffered;
      }
    }
  }
  // ~2% of 288 servers, distributed over the populated types.
  EXPECT_GE(buffered, 4u);
}

TEST(AsyncSolverTest, StorageQuorumCapLimitsEveryMsb) {
  TestRegion region(SmallFleetOptions());
  ReservationSpec spec = AnyTypeReservation(region.fleet.catalog, "storage", 40);
  spec.is_storage = true;
  spec.max_msb_fraction_hard = 0.25;  // No MSB may hold > 10 RRU of C_r = 40.
  auto id = region.registry.Create(spec);
  ASSERT_TRUE(id.ok());

  AsyncSolver solver;
  ASSERT_TRUE(solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog).ok());
  std::map<MsbId, double> per_msb;
  for (ServerId s = 0; s < region.broker->num_servers(); ++s) {
    if (region.broker->record(s).target == *id) {
      per_msb[region.fleet.topology.server(s).msb] += 1.0;
    }
  }
  for (const auto& [msb, rru] : per_msb) {
    EXPECT_LE(rru, 0.25 * 40 + 1e-6) << "MSB " << msb << " exceeds the quorum cap";
  }
}

TEST(AsyncSolverTest, PhaseTwoReducesRackConcentration) {
  TestRegion region(SmallFleetOptions());
  ReservationSpec spec = AnyTypeReservation(region.fleet.catalog, "svc", 40);
  spec.rack_spread_alpha = 0.06;  // At most ~2.4 RRU per rack.
  auto id = region.registry.Create(spec);
  ASSERT_TRUE(id.ok());
  // Concentrate the reservation into whole racks so phase 1 (rack-blind)
  // leaves rack overflow for phase 2 to fix.
  size_t bound = 0;
  for (RackId rack = 0; rack < region.fleet.topology.num_racks() && bound < 48; ++rack) {
    for (ServerId s : region.fleet.topology.ServersInRack(rack)) {
      region.broker->SetCurrent(s, *id);
      ++bound;
    }
  }

  AsyncSolver solver;
  auto stats = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->phase2.ran);
  EXPECT_GT(stats->phase2.assignment_variables, 0u);

  // Post-solve rack concentration should be below the starting 8-per-rack.
  std::map<RackId, int> per_rack;
  for (ServerId s = 0; s < region.broker->num_servers(); ++s) {
    if (region.broker->record(s).target == *id) {
      per_rack[region.fleet.topology.server(s).rack]++;
    }
  }
  int worst = 0;
  for (auto& [rack, count] : per_rack) {
    worst = std::max(worst, count);
  }
  EXPECT_LT(worst, 8);  // Was 8 (full racks of 8) before the solve.
}

TEST(AsyncSolverTest, SolveStatsTimingsPopulated) {
  TestRegion region(SmallFleetOptions());
  ASSERT_TRUE(region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 30)).ok());
  AsyncSolver solver;
  auto stats = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->phase1.assignment_variables, 0u);
  EXPECT_GT(stats->phase1.model_rows, 0u);
  EXPECT_GT(stats->phase1.memory_bytes, 0u);
  EXPECT_GE(stats->phase1.timings.total(), 0.0);
  EXPECT_GT(stats->total_seconds, 0.0);
}

// A region whose phase starts have work to do: three reservations, the first
// two pre-bound to concentrated servers.
void FillStartRegion(TestRegion& region) {
  const HardwareCatalog& catalog = region.fleet.catalog;
  for (const auto& [name, capacity] :
       std::vector<std::pair<std::string, double>>{{"a", 40}, {"b", 30}, {"c", 20}}) {
    ASSERT_TRUE(region.registry.Create(AnyTypeReservation(catalog, name, capacity)).ok());
  }
  SolveInput probe = SnapshotSolveInput(*region.broker, region.registry, catalog);
  for (size_t r = 0; r < 2; ++r) {
    for (ServerId id = static_cast<ServerId>(r * 24); id < (r + 1) * 24; ++id) {
      region.broker->SetCurrent(id, probe.reservations[r].id);
    }
  }
}

void ExpectSameMip(const MipResult& a, const MipResult& b) {
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.best_bound, b.best_bound);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.lp_iterations, b.lp_iterations);
  EXPECT_EQ(a.hit_work_limit, b.hit_work_limit);
  EXPECT_EQ(a.dual_resolves, b.dual_resolves);
  EXPECT_EQ(a.lp_dual_iterations, b.lp_dual_iterations);
}

// Every PhaseStats field except the step timings, which are wall clock.
void ExpectSamePhase(const PhaseStats& a, const PhaseStats& b) {
  EXPECT_EQ(a.ran, b.ran);
  EXPECT_EQ(a.assignment_variables, b.assignment_variables);
  EXPECT_EQ(a.model_rows, b.model_rows);
  EXPECT_EQ(a.model_variables, b.model_variables);
  EXPECT_EQ(a.memory_bytes, b.memory_bytes);
  EXPECT_EQ(a.mip_status, b.mip_status);
  EXPECT_EQ(a.objective, b.objective);
  EXPECT_EQ(a.best_bound, b.best_bound);
  EXPECT_EQ(a.warm_start_objective, b.warm_start_objective);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.model_patched, b.model_patched);
  EXPECT_EQ(a.solve_skipped, b.solve_skipped);
  EXPECT_EQ(a.delta_servers, b.delta_servers);
  EXPECT_EQ(a.dual_resolves, b.dual_resolves);
  EXPECT_EQ(a.dual_iterations, b.dual_iterations);
}

// Every SolveStats field except total_seconds and the step timings.
void ExpectSameStats(const SolveStats& a, const SolveStats& b) {
  ExpectSamePhase(a.phase1, b.phase1);
  ExpectSamePhase(a.phase2, b.phase2);
  EXPECT_EQ(a.moves_total, b.moves_total);
  EXPECT_EQ(a.moves_in_use, b.moves_in_use);
  EXPECT_EQ(a.moves_idle, b.moves_idle);
  EXPECT_EQ(a.total_shortfall_rru, b.total_shortfall_rru);
  EXPECT_EQ(a.shard_count, b.shard_count);
  EXPECT_EQ(a.failed_shards, b.failed_shards);
  EXPECT_EQ(a.repair_moves, b.repair_moves);
  EXPECT_EQ(a.repair_shortfall_before_rru, b.repair_shortfall_before_rru);
  EXPECT_EQ(a.model_patched, b.model_patched);
  EXPECT_EQ(a.solve_skipped, b.solve_skipped);
  EXPECT_EQ(a.delta_servers, b.delta_servers);
  EXPECT_EQ(a.dual_resolves, b.dual_resolves);
  EXPECT_EQ(a.dual_iterations, b.dual_iterations);
  EXPECT_EQ(a.presolve_rows_removed, b.presolve_rows_removed);
}

// The MIP reads its warm start only after its search, so a start still
// being computed on a worker meanwhile gives the answer a start in hand
// gives.
TEST(AsyncSolverTest, MipIsTheSameWithItsStartOnAWorker) {
  TestRegion region(SmallFleetOptions());
  FillStartRegion(region);
  const SolveInput input = SnapshotSolveInput(*region.broker, region.registry,
                                              region.fleet.catalog);
  const std::vector<EquivalenceClass> classes = BuildEquivalenceClasses(input, Scope::kMsb);
  const SolverConfig config;
  const BuiltModel built = BuildRasModel(input, classes, config, false);

  const std::vector<double> in_hand = MakePhaseStart(input, classes, built);
  const MipResult inline_mip = SolvePhaseMip(input, classes, built, config.phase1_mip, in_hand);

  ThreadPool pool(1);
  std::vector<double> on_worker;
  std::atomic<bool> claimed{false};
  std::thread::id ran_on;
  ThreadPool::JoinHandle start = pool.SubmitClaimable([&] {
    claimed = true;
    ran_on = std::this_thread::get_id();
    on_worker = MakePhaseStart(input, classes, built);
  });
  while (!claimed) {
    std::this_thread::yield();
  }
  const MipResult worker_mip = SolvePhaseMip(input, classes, built, config.phase1_mip, [&] {
    start.Join();
    return &on_worker;
  });
  EXPECT_NE(ran_on, std::this_thread::get_id());
  EXPECT_EQ(on_worker, in_hand);
  ExpectSameMip(worker_mip, inline_mip);
}

// A solve whose pool is free runs its phase starts (and at K = 4 its shards)
// on workers; one whose every worker is held runs all of them inline on the
// solving thread. Targets and every non-timing stat agree bit for bit.
TEST(AsyncSolverTest, SolveIsTheSameWithStartsInlineOrOnWorkers) {
  for (int shards : {1, 4}) {
    SCOPED_TRACE(shards);
    TestRegion region(SmallFleetOptions());
    FillStartRegion(region);
    const SolveInput input = SnapshotSolveInput(*region.broker, region.registry,
                                                region.fleet.catalog);
    SolverConfig config;
    config.shard_count = shards;

    AsyncSolver on_workers(config);
    DecodedAssignment worker_targets;
    Result<SolveStats> worker_stats = on_workers.SolveSnapshot(input, &worker_targets);

    AsyncSolver in_line(config);
    DecodedAssignment inline_targets;
    Result<SolveStats> inline_stats = Status::Internal("not run");
    {
      PoolBlocker held(in_line.pool());
      inline_stats = in_line.SolveSnapshot(input, &inline_targets);
    }

    ASSERT_TRUE(worker_stats.ok());
    ASSERT_TRUE(inline_stats.ok());
    EXPECT_EQ(worker_stats->shard_count, shards);
    EXPECT_TRUE(worker_stats->phase1.mip_status == MipStatus::kOptimal ||
                worker_stats->phase1.mip_status == MipStatus::kFeasible);
    EXPECT_EQ(worker_targets.targets, inline_targets.targets);
    EXPECT_EQ(worker_targets.moves_total, inline_targets.moves_total);
    ExpectSameStats(*worker_stats, *inline_stats);
  }
}

// The solving thread is the last usable CPU: the pool has one worker for
// each of the others, and one even when there are none.
TEST(AsyncSolverTest, PoolHasAWorkerForEveryOtherUsableCpu) {
  AsyncSolver solver;
  EXPECT_EQ(solver.pool().size(), std::max(1, UsableCpus() - 1));
}

}  // namespace
}  // namespace ras
