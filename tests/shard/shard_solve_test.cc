// Sharded solve (AsyncSolver::SolveSharded) + stitch repair.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "src/core/async_solver.h"
#include "src/core/buffer_policy.h"
#include "src/fleet/fleet_gen.h"
#include "src/obs/metrics.h"
#include "src/shard/demand_splitter.h"
#include "src/shard/shard_planner.h"
#include "src/shard/stitch_repair.h"
#include "src/util/rng.h"

namespace ras {
namespace {

FleetOptions SmallFleetOptions() {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 3;
  opts.racks_per_msb = 6;
  opts.servers_per_rack = 8;
  opts.seed = 11;
  return opts;  // 288 servers, 36 racks.
}

ReservationSpec AnyTypeReservation(const HardwareCatalog& catalog, const std::string& name,
                                   double capacity) {
  ReservationSpec spec;
  spec.name = name;
  spec.capacity_rru = capacity;
  spec.rru_per_type.assign(catalog.size(), 1.0);
  return spec;
}

SolverConfig ShardedConfig(int shard_count) {
  SolverConfig config;
  config.shard_count = shard_count;
  return config;
}

struct TestRegion {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;

  explicit TestRegion(const FleetOptions& opts) : fleet(GenerateFleet(opts)) {
    broker = std::make_unique<ResourceBroker>(&fleet.topology);
  }

  SolveInput Snapshot() const {
    return SnapshotSolveInput(*broker, registry, fleet.catalog);
  }
};

TEST(ShardSolveTest, MergedTargetsCoverEveryAvailableServerOnce) {
  TestRegion region(SmallFleetOptions());
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 50));
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "b", 40));
  SolveInput input = region.Snapshot();

  AsyncSolver solver(ShardedConfig(3));
  DecodedAssignment decoded;
  auto stats = solver.SolveSnapshot(input, &decoded);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->shard_count, 3);
  EXPECT_EQ(stats->failed_shards, 0u);

  std::set<ServerId> seen;
  for (const auto& [server, res] : decoded.targets) {
    EXPECT_TRUE(seen.insert(server).second) << "server " << server << " targeted twice";
  }
  size_t available = 0;
  for (const auto& state : input.servers) {
    available += state.available ? 1 : 0;
  }
  EXPECT_EQ(seen.size(), available);
  EXPECT_TRUE(std::is_sorted(decoded.targets.begin(), decoded.targets.end()));
}

TEST(ShardSolveTest, ShardedSolveMeetsDemandAfterRepair) {
  TestRegion region(SmallFleetOptions());
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 60));
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "b", 45));
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "c", 30));
  SolveInput input = region.Snapshot();

  AsyncSolver solver(ShardedConfig(4));
  DecodedAssignment decoded;
  auto stats = solver.SolveSnapshot(input, &decoded);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Plenty of spare capacity: after stitch repair nothing should be short.
  EXPECT_NEAR(stats->total_shortfall_rru, 0.0, 1e-6);
}

TEST(ShardSolveTest, ShardCountOneIsBitIdenticalToMonolithic) {
  TestRegion region(SmallFleetOptions());
  EnsureSharedBuffers(region.registry, region.fleet.topology, region.fleet.catalog, 0.02);
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 50));
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "b", 40));
  SolveInput input = region.Snapshot();

  // The monolithic reference: a solver predating any shard configuration
  // (default config), versus one with shard_count explicitly set to 1.
  AsyncSolver reference;
  DecodedAssignment ref_decoded;
  auto ref_stats = reference.SolveSnapshot(input, &ref_decoded);
  ASSERT_TRUE(ref_stats.ok());

  AsyncSolver sharded(ShardedConfig(1));
  DecodedAssignment decoded;
  auto stats = sharded.SolveSnapshot(input, &decoded);
  ASSERT_TRUE(stats.ok());

  EXPECT_EQ(decoded.targets, ref_decoded.targets) << "shard_count=1 diverged from monolithic";
  EXPECT_EQ(stats->shard_count, 1);
  EXPECT_EQ(stats->repair_moves, 0u);
}

TEST(ShardSolveTest, ShardedSolveIsDeterministic) {
  TestRegion region(SmallFleetOptions());
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 50));
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "b", 40));
  SolveInput input = region.Snapshot();

  auto run = [&input]() {
    AsyncSolver solver(ShardedConfig(4));
    DecodedAssignment decoded;
    auto stats = solver.SolveSnapshot(input, &decoded);
    EXPECT_TRUE(stats.ok());
    return decoded.targets;
  };
  EXPECT_EQ(run(), run()) << "same seed and K produced different assignments";
}

TEST(ShardSolveTest, PerSolveMetricsRecordOncePerTopLevelSolve) {
  // A sharded solve runs K sub-solves; the ras_solver_* per-solve counters
  // must still rise once, by the aggregate's figures, as at K = 1.
  TestRegion region(SmallFleetOptions());
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 50));
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "b", 40));
  SolveInput input = region.Snapshot();

  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  obs::Counter& solves = reg.counter("ras_solver_solves_total", "Completed solves (all modes).");
  obs::Counter& moves =
      reg.counter("ras_solver_moves_total", "Server moves proposed by completed solves.");
  obs::Counter& dual_resolves = reg.counter(
      "ras_solver_dual_resolves_total", "Node LPs re-optimized by the dual simplex kernel.");
  for (int shards : {1, 4}) {
    SCOPED_TRACE("K=" + std::to_string(shards));
    AsyncSolver solver(ShardedConfig(shards));
    const int64_t solves_before = solves.Value();
    const int64_t moves_before = moves.Value();
    const int64_t dual_before = dual_resolves.Value();
    DecodedAssignment decoded;
    auto stats = solver.SolveSnapshot(input, &decoded);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    ASSERT_EQ(stats->shard_count, shards);
    ASSERT_GT(stats->moves_total, 0u);
    EXPECT_EQ(solves.Value() - solves_before, 1);
    EXPECT_EQ(moves.Value() - moves_before, static_cast<int64_t>(stats->moves_total));
    EXPECT_EQ(dual_resolves.Value() - dual_before, stats->dual_resolves);
  }
}

TEST(ShardSolveTest, FrozenServersKeepTheirSnapshotBindings) {
  TestRegion region(SmallFleetOptions());
  const ReservationId small =
      *region.registry.Create(AnyTypeReservation(region.fleet.catalog, "small", 8));
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "b", 40));
  SolveInput input = region.Snapshot();

  // "small" holds one in-use server in every shard, but its demand fits one
  // shard, so its span is a single shard: its servers in every other shard
  // lie outside the span and are frozen out of their shard's sub-solve.
  AsyncSolver solver(ShardedConfig(4));
  ShardPlanOptions plan_opts;  // The solver plans with the default seed.
  plan_opts.shard_count = 4;
  const ShardPlan plan = PlanShards(region.fleet.topology, plan_opts);
  for (const std::vector<ServerId>& members : plan.servers) {
    input.servers[members.front()].current = small;
    input.servers[members.front()].in_use = true;
  }
  const ShardDemand demand = SplitDemand(input, plan);
  const std::vector<int>& span = demand.span[static_cast<size_t>(input.ReservationIndex(small))];
  std::vector<ServerId> frozen;
  for (ServerId id = 0; id < input.servers.size(); ++id) {
    if (input.servers[id].current == small &&
        std::find(span.begin(), span.end(), plan.ShardOf(id)) == span.end()) {
      frozen.push_back(id);
    }
  }
  ASSERT_FALSE(frozen.empty());

  DecodedAssignment decoded;
  auto stats = solver.SolveSnapshot(input, &decoded);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats->shard_count, 4);
  std::map<ServerId, ReservationId> targets;
  for (const auto& [server, res] : decoded.targets) {
    EXPECT_TRUE(targets.emplace(server, res).second) << "server " << server << " targeted twice";
  }
  for (ServerId id = 0; id < input.servers.size(); ++id) {
    EXPECT_EQ(targets.count(id), input.servers[id].available ? 1u : 0u) << "server " << id;
  }
  for (ServerId id : frozen) {
    EXPECT_EQ(targets[id], small) << "frozen server " << id << " lost its snapshot binding";
  }
}

// Warm state across rounds at K = 4: each shard keeps its own resolve cache.
TEST(ShardSolveTest, ShardedRepeatedSnapshotSkipsTheSolve) {
  TestRegion region(SmallFleetOptions());
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 50));
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "b", 40));
  SolveInput input = region.Snapshot();

  AsyncSolver solver(ShardedConfig(4));
  DecodedAssignment first;
  auto first_stats = solver.SolveSnapshot(input, &first);
  ASSERT_TRUE(first_stats.ok()) << first_stats.status().ToString();
  ASSERT_EQ(first_stats->shard_count, 4);
  EXPECT_FALSE(first_stats->solve_skipped);
  EXPECT_EQ(first_stats->delta_servers, -1);

  DecodedAssignment second;
  auto second_stats = solver.SolveSnapshot(input, &second);
  ASSERT_TRUE(second_stats.ok()) << second_stats.status().ToString();
  EXPECT_TRUE(second_stats->solve_skipped);
  EXPECT_EQ(second_stats->delta_servers, 0);
  EXPECT_EQ(second.targets, first.targets) << "a skipped round changed the targets";
}

TEST(ShardSolveTest, ShardedCacheOnMatchesCacheOffUnderChurn) {
  TestRegion region(SmallFleetOptions());
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 60));
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "b", 45));
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "c", 30));

  SolverConfig config;
  config.shard_count = 4;
  AsyncSolver warm(config);
  config.incremental_resolve = false;
  AsyncSolver cold(config);
  Rng rng(7);
  const int64_t last_server = static_cast<int64_t>(region.fleet.topology.num_servers()) - 1;
  int warm_rounds = 0;
  for (int round = 0; round < 10; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Availability churn on two rounds in three; the third is quiet.
    if (round % 3 != 0) {
      for (int k = 0; k < 4; ++k) {
        const ServerId id = static_cast<ServerId>(rng.UniformInt(0, last_server));
        const bool down = region.broker->record(id).unavailability != Unavailability::kNone;
        region.broker->SetUnavailability(
            id, down ? Unavailability::kNone : Unavailability::kUnplannedHardware);
      }
    }
    SolveInput input = region.Snapshot();
    DecodedAssignment warm_decoded;
    DecodedAssignment cold_decoded;
    auto warm_stats = warm.SolveSnapshot(input, &warm_decoded);
    auto cold_stats = cold.SolveSnapshot(input, &cold_decoded);
    ASSERT_TRUE(warm_stats.ok()) << warm_stats.status().ToString();
    ASSERT_TRUE(cold_stats.ok()) << cold_stats.status().ToString();
    EXPECT_EQ(warm_decoded.targets, cold_decoded.targets) << "cache changed the targets";
    EXPECT_EQ(cold_stats->delta_servers, -1);
    warm_rounds += warm_stats->delta_servers >= 0 ? 1 : 0;
  }
  // Every shard's cache diffed against its previous round on most rounds.
  EXPECT_GE(warm_rounds, 5);
}

// The round memo at K = 1 and K = 4: a repeated snapshot replays the cached
// round without running a phase, and the replay is what a cold solver
// computes. A faulted attempt and a degraded solve in between leave every
// shard's warm state as it was.
TEST(ShardSolveTest, RepeatedSnapshotReplaysTheRoundMemo) {
  TestRegion region(SmallFleetOptions());
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 50));
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "b", 40));
  SolveInput input = region.Snapshot();

  obs::Counter& phases =
      obs::MetricRegistry::Default().counter("ras_solver_phases_total", "Phase solves run.");
  for (int shards : {1, 4}) {
    SCOPED_TRACE("K=" + std::to_string(shards));
    SolverConfig config = ShardedConfig(shards);
    AsyncSolver warm(config);
    ASSERT_TRUE(warm.SolveSnapshot(input, nullptr).ok());
    warm.SetFaultHook([](SolveMode) { return Status::Internal("injected: solver crashed"); });
    EXPECT_FALSE(warm.SolveSnapshot(input, nullptr).ok());
    warm.SetFaultHook(nullptr);
    ASSERT_TRUE(warm.SolveSnapshot(input, nullptr, SolveMode::kPhase1Only).ok());
    const int64_t phases_before = phases.Value();
    DecodedAssignment replayed;
    auto stats = warm.SolveSnapshot(input, &replayed);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(stats->solve_skipped);
    EXPECT_EQ(stats->delta_servers, 0);
    EXPECT_EQ(phases.Value(), phases_before) << "the memo ran a phase";

    config.incremental_resolve = false;
    AsyncSolver cold(config);
    DecodedAssignment solved;
    auto cold_stats = cold.SolveSnapshot(input, &solved);
    ASSERT_TRUE(cold_stats.ok()) << cold_stats.status().ToString();
    EXPECT_EQ(replayed.targets, solved.targets);
    EXPECT_EQ(replayed.moves_total, solved.moves_total);
    EXPECT_EQ(replayed.moves_in_use, solved.moves_in_use);
    EXPECT_EQ(replayed.moves_idle, solved.moves_idle);
    EXPECT_EQ(stats->total_shortfall_rru, cold_stats->total_shortfall_rru);
    EXPECT_EQ(stats->repair_moves, cold_stats->repair_moves);
    for (auto [warm_phase, cold_phase] : {std::pair{&stats->phase1, &cold_stats->phase1},
                                          std::pair{&stats->phase2, &cold_stats->phase2}}) {
      EXPECT_EQ(warm_phase->ran, cold_phase->ran);
      EXPECT_EQ(warm_phase->mip_status, cold_phase->mip_status);
      EXPECT_EQ(warm_phase->objective, cold_phase->objective);
      EXPECT_EQ(warm_phase->best_bound, cold_phase->best_bound);
      EXPECT_EQ(warm_phase->model_rows, cold_phase->model_rows);
      EXPECT_EQ(warm_phase->assignment_variables, cold_phase->assignment_variables);
    }
  }
}

TEST(StitchRepairTest, FillsShortReservationFromFreePool) {
  TestRegion region(SmallFleetOptions());
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 24));
  SolveInput input = region.Snapshot();

  // An empty assignment: reservation "a" is fully short.
  std::vector<std::pair<ServerId, ReservationId>> targets;
  for (ServerId id = 0; id < input.servers.size(); ++id) {
    if (input.servers[id].available) {
      targets.emplace_back(id, kUnassigned);
    }
  }
  StitchRepairStats stats = RepairShortfalls(input, targets);
  EXPECT_EQ(stats.reservations_short, 1u);
  EXPECT_GT(stats.shortfall_before_rru, 0.0);
  EXPECT_NEAR(stats.shortfall_after_rru, 0.0, 1e-6);
  // Capacity + correlated buffer: strictly more than 24 servers, and spread
  // so that losing the worst MSB still leaves 24 RRUs.
  size_t assigned = 0;
  for (const auto& [server, res] : targets) {
    assigned += res != kUnassigned ? 1 : 0;
  }
  EXPECT_GT(assigned, 24u);
}

TEST(StitchRepairTest, TakesIdleDonorsButNeverInUseServers) {
  TestRegion region(SmallFleetOptions());
  auto a = *region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 20));
  auto b = *region.registry.Create(AnyTypeReservation(region.fleet.catalog, "b", 20));
  SolveInput input = region.Snapshot();

  // Hand *every* server to "a" (a hoarding donor), half of them in use.
  // "b" is fully short and the free pool is empty, so repair can only be
  // donor moves — and only of idle servers.
  std::vector<std::pair<ServerId, ReservationId>> targets;
  for (ServerId id = 0; id < input.servers.size(); ++id) {
    input.servers[id].current = a;
    input.servers[id].in_use = (id % 2 == 0);
    targets.emplace_back(id, a);
  }
  StitchRepairStats stats = RepairShortfalls(input, targets);
  EXPECT_GT(stats.moves_from_donors, 0u);
  EXPECT_EQ(stats.moves_from_free, 0u);
  EXPECT_NEAR(stats.shortfall_after_rru, 0.0, 1e-6);
  for (const auto& [server, res] : targets) {
    if (input.servers[server].in_use) {
      EXPECT_EQ(res, a) << "repair preempted in-use server " << server;
    }
  }
  size_t b_servers = 0;
  for (const auto& [server, res] : targets) {
    b_servers += res == b ? 1 : 0;
  }
  EXPECT_GT(b_servers, 0u);
}

TEST(StitchRepairTest, MoveBudgetIsRespected) {
  TestRegion region(SmallFleetOptions());
  (void)*region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 100));
  SolveInput input = region.Snapshot();

  std::vector<std::pair<ServerId, ReservationId>> targets;
  for (ServerId id = 0; id < input.servers.size(); ++id) {
    targets.emplace_back(id, kUnassigned);
  }
  StitchRepairOptions opts;
  opts.max_moves = 5;
  StitchRepairStats stats = RepairShortfalls(input, targets, opts);
  EXPECT_EQ(stats.moves(), 5u);
  EXPECT_GT(stats.shortfall_after_rru, 0.0);  // Budget too small to finish.
}

TEST(StitchRepairTest, SpreadRebalanceHonorsReservationAlpha) {
  TestRegion region(SmallFleetOptions());  // 6 MSBs of 48 servers.
  ReservationSpec tight = AnyTypeReservation(region.fleet.catalog, "tight", 24);
  tight.needs_correlated_buffer = false;
  tight.msb_spread_alpha = 0.15;  // 3.6 RRU, floored to 4 per MSB.
  ReservationSpec loose = AnyTypeReservation(region.fleet.catalog, "loose", 24);
  loose.needs_correlated_buffer = false;
  loose.msb_spread_alpha = 0.5;  // 12 RRU per MSB.
  const ReservationId tight_id = *region.registry.Create(tight);
  const ReservationId loose_id = *region.registry.Create(loose);
  SolveInput input = region.Snapshot();
  const RegionTopology& topo = region.fleet.topology;

  // Each reservation freshly acquires 12 servers in each of the first two
  // MSBs. The config default (1.3 / 6 of C_r = 5.2 RRU) is looser than
  // "tight"'s own threshold and tighter than "loose"'s.
  std::vector<std::pair<ServerId, ReservationId>> targets;
  std::map<MsbId, int> taken;
  for (ServerId id = 0; id < input.servers.size(); ++id) {
    const MsbId msb = topo.server(id).msb;
    ReservationId res = kUnassigned;
    if (msb < 2 && taken[msb] < 24) {
      res = taken[msb] % 2 == 0 ? tight_id : loose_id;
      ++taken[msb];
    }
    targets.emplace_back(id, res);
  }
  StitchRepairOptions opts;
  for (const ReservationSpec& spec : input.reservations) {
    opts.msb_spread_thresholds.push_back(MsbSpreadThreshold(spec, SolverConfig(), topo));
  }
  StitchRepairStats stats = RepairShortfalls(input, targets, opts);
  EXPECT_GT(stats.moves_spread, 0u);
  EXPECT_NEAR(stats.spread_over_after_rru, 0.0, 1e-9);
  std::map<ReservationId, std::map<MsbId, double>> per_msb;
  for (const auto& [server, res] : targets) {
    per_msb[res][topo.server(server).msb] += 1.0;
  }
  for (const auto& [msb, rru] : per_msb[tight_id]) {
    EXPECT_LE(rru, 4.0) << "tight over its own threshold in MSB " << msb;
  }
  // Within its own 12-RRU threshold, "loose" is left where it was.
  EXPECT_EQ(per_msb[loose_id].size(), 2u);
  for (const auto& [msb, rru] : per_msb[loose_id]) {
    EXPECT_EQ(rru, 12.0) << "loose rebalanced in MSB " << msb;
  }
}

TEST(StitchRepairTest, SpreadSwapFreesTheFirstFreeServerOfItsCell) {
  // "first" freshly holds six servers of MSB 0 and "second" six of MSB 1,
  // both over a 4-RRU threshold; every other server of those MSBs is out of
  // service, and MSBs 2-5 are free. Shedding "first" frees servers in MSB 0,
  // where nothing was free before: the first freed one becomes its cell's
  // first free server, and "second", which holds nothing there, takes it.
  TestRegion region(SmallFleetOptions());
  ReservationSpec first = AnyTypeReservation(region.fleet.catalog, "first", 6);
  first.needs_correlated_buffer = false;
  ReservationSpec second = AnyTypeReservation(region.fleet.catalog, "second", 6);
  second.needs_correlated_buffer = false;
  const ReservationId a = *region.registry.Create(first);
  const ReservationId b = *region.registry.Create(second);
  SolveInput input = region.Snapshot();
  const RegionTopology& topo = region.fleet.topology;

  std::vector<std::pair<ServerId, ReservationId>> targets;
  std::map<MsbId, int> held;
  for (ServerId id = 0; id < input.servers.size(); ++id) {
    const MsbId msb = topo.server(id).msb;
    if (msb >= 2) {
      targets.emplace_back(id, kUnassigned);
    } else if (held[msb] < 6) {
      ++held[msb];
      targets.emplace_back(id, msb == 0 ? a : b);
    } else {
      input.servers[id].available = false;
    }
  }
  const std::vector<std::pair<ServerId, ReservationId>> before = targets;
  StitchRepairOptions opts;
  opts.msb_spread_thresholds = {4.0, 4.0};
  StitchRepairStats stats = RepairShortfalls(input, targets, opts);
  EXPECT_EQ(stats.moves_spread, 4u);
  EXPECT_NEAR(stats.spread_over_after_rru, 0.0, 1e-9);

  std::map<ServerId, ReservationId> changed;
  for (size_t i = 0; i < targets.size(); ++i) {
    if (targets[i] != before[i]) {
      changed[targets[i].first] = targets[i].second;
    }
  }
  // MSB 0 is servers 0-47, MSB 1 48-95, MSB 2 96-143, MSB 3 144-191.
  const std::map<ServerId, ReservationId> expected = {
      {0, b}, {1, kUnassigned}, {48, kUnassigned}, {49, kUnassigned},
      {96, a}, {97, b}, {144, a}};
  EXPECT_EQ(changed, expected);
}

}  // namespace
}  // namespace ras
