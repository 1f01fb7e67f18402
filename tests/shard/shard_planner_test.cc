// Shard planner: rack-complete, balanced, deterministic partitions.

#include "src/shard/shard_planner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/fleet/fleet_gen.h"

namespace ras {
namespace {

Fleet TestFleet(uint64_t seed = 21) {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 3;
  opts.racks_per_msb = 6;
  opts.servers_per_rack = 8;
  opts.seed = seed;
  return GenerateFleet(opts);  // 288 servers, 36 racks.
}

TEST(ShardPlannerTest, RackCompleteAndCoversEveryServer) {
  Fleet fleet = TestFleet();
  ShardPlanOptions opts;
  opts.shard_count = 4;
  ShardPlan plan = PlanShards(fleet.topology, opts);
  ASSERT_EQ(plan.shard_count, 4);

  // Every rack's servers land in exactly the rack's shard.
  for (RackId rack = 0; rack < fleet.topology.num_racks(); ++rack) {
    for (ServerId id : fleet.topology.ServersInRack(rack)) {
      EXPECT_EQ(plan.shard_of_server[id], plan.shard_of_rack[rack]);
    }
  }

  // The shard server lists partition the fleet: disjoint and complete.
  std::set<ServerId> seen;
  size_t total = 0;
  for (const auto& shard : plan.servers) {
    EXPECT_TRUE(std::is_sorted(shard.begin(), shard.end()));
    for (ServerId id : shard) {
      EXPECT_TRUE(seen.insert(id).second) << "server " << id << " in two shards";
    }
    total += shard.size();
  }
  EXPECT_EQ(total, fleet.topology.num_servers());
}

TEST(ShardPlannerTest, BalancedWithinOneRack) {
  Fleet fleet = TestFleet();
  ShardPlanOptions opts;
  opts.shard_count = 4;
  ShardPlan plan = PlanShards(fleet.topology, opts);
  size_t min_size = fleet.topology.num_servers();
  size_t max_size = 0;
  for (const auto& shard : plan.servers) {
    min_size = std::min(min_size, shard.size());
    max_size = std::max(max_size, shard.size());
  }
  // Homogeneous 8-server racks: shard sizes differ by at most one rack.
  EXPECT_LE(max_size - min_size, 8u);
}

TEST(ShardPlannerTest, EveryShardSamplesEveryMsb) {
  // Stratified dealing: with racks_per_msb >= K, every shard draws at least
  // one rack from every MSB, so per-shard Ψ_F spread and buffer terms see
  // the full fault-domain structure.
  Fleet fleet = TestFleet();
  for (int k : {2, 4, 6}) {
    ShardPlanOptions opts;
    opts.shard_count = k;
    ShardPlan plan = PlanShards(fleet.topology, opts);
    std::vector<std::set<MsbId>> msbs(static_cast<size_t>(k));
    for (RackId rack = 0; rack < fleet.topology.num_racks(); ++rack) {
      msbs[static_cast<size_t>(plan.shard_of_rack[rack])].insert(fleet.topology.rack_msb(rack));
    }
    for (int shard = 0; shard < k; ++shard) {
      EXPECT_EQ(msbs[static_cast<size_t>(shard)].size(), fleet.topology.num_msbs())
          << "K=" << k << " shard " << shard << " missing an MSB";
    }
  }
}

TEST(ShardPlannerTest, DeterministicInSeedAndSensitiveToIt) {
  Fleet fleet = TestFleet();
  ShardPlanOptions opts;
  opts.shard_count = 4;
  opts.seed = 77;
  ShardPlan a = PlanShards(fleet.topology, opts);
  ShardPlan b = PlanShards(fleet.topology, opts);
  EXPECT_EQ(a.shard_of_rack, b.shard_of_rack);
  EXPECT_EQ(a.shard_of_server, b.shard_of_server);

  opts.seed = 78;
  ShardPlan c = PlanShards(fleet.topology, opts);
  EXPECT_NE(a.shard_of_rack, c.shard_of_rack) << "different seeds produced the same partition";
}

TEST(ShardPlannerTest, SingleShardTakesEverything) {
  Fleet fleet = TestFleet();
  ShardPlanOptions opts;
  opts.shard_count = 1;
  ShardPlan plan = PlanShards(fleet.topology, opts);
  ASSERT_EQ(plan.shard_count, 1);
  EXPECT_EQ(plan.servers[0].size(), fleet.topology.num_servers());
}

TEST(ShardPlannerTest, ShardCountClampedToRacks) {
  Fleet fleet = TestFleet();
  ShardPlanOptions opts;
  opts.shard_count = 1000;  // Far more than 36 racks.
  ShardPlan plan = PlanShards(fleet.topology, opts);
  EXPECT_EQ(plan.shard_count, static_cast<int>(fleet.topology.num_racks()));
  for (const auto& shard : plan.servers) {
    EXPECT_FALSE(shard.empty());
  }
}

TEST(ShardPlannerTest, AutoShardCountHeuristic) {
  // Small regions stay monolithic; big ones get ~one shard per target chunk,
  // capped. Usable CPUs pinned to 8 so the parallelism knee (below)
  // never bites here regardless of the host running the test.
  EXPECT_EQ(AutoShardCount(288, 2500, 16, 8), 1);
  EXPECT_EQ(AutoShardCount(4999, 2500, 16, 8), 1);
  EXPECT_EQ(AutoShardCount(5000, 2500, 16, 8), 2);
  EXPECT_EQ(AutoShardCount(10000, 2500, 16, 8), 4);
  EXPECT_EQ(AutoShardCount(1000000, 2500, 16, 8), 16);
  EXPECT_EQ(AutoShardCount(1000000, 2500, 32, 8), 32);
}

TEST(ShardPlannerTest, AutoShardCountClampedByHardwareThreads) {
  // The measured over-decomposition knee (bench_shard_scaling: K=8 regresses
  // to 1.70x where K=4 reaches 2.41x on a 1-thread host): auto-K stops at 4
  // shards per usable CPU, however large the fleet.
  EXPECT_EQ(AutoShardCount(1000000, 2500, 16, 1), 4);
  EXPECT_EQ(AutoShardCount(1000000, 2500, 16, 2), 8);
  EXPECT_EQ(AutoShardCount(1000000, 2500, 16, 4), 16);  // Knee past the cap.
  // Small regions are unaffected: the monolithic floor still wins.
  EXPECT_EQ(AutoShardCount(4999, 2500, 16, 1), 1);
  // Default (0) queries the host; the result respects both cap and knee.
  int k = AutoShardCount(1000000);
  EXPECT_GE(k, 1);
  EXPECT_LE(k, 16);
}

TEST(ShardPlannerTest, EffectiveShardCountResolution) {
  EXPECT_EQ(EffectiveShardCount(1, 100000, 1000), 1);  // Monolithic stays monolithic.
  EXPECT_EQ(EffectiveShardCount(8, 100000, 1000), 8);  // Fixed K: never clamped by threads.
  EXPECT_EQ(EffectiveShardCount(8, 100000, 4), 4);     // Clamped to racks.
  // Auto-K: one shard per 2500 servers, capped at 16 and at the host knee.
  int auto_k = EffectiveShardCount(0, 100000, 1000);
  EXPECT_GE(auto_k, 4);  // Even a 1-thread host allows K=4.
  EXPECT_LE(auto_k, 16);
  EXPECT_EQ(EffectiveShardCount(0, 288, 36), 1);  // Auto-K, small region.
}

TEST(ShardPlannerTest, CachedPlanEqualsAFreshOne) {
  Fleet fleet = TestFleet();
  ShardPlanOptions opts;
  opts.shard_count = 4;
  ShardPlanCache cache;
  const ShardPlan& first = cache.Get(fleet.topology, opts);
  EXPECT_EQ(first, PlanShards(fleet.topology, opts));
  const ShardPlan* cached = &cache.Get(fleet.topology, opts);
  EXPECT_EQ(cached, &first) << "an unchanged key must not re-plan";
  EXPECT_EQ(*cached, PlanShards(fleet.topology, opts));

  // The same layout in another topology object keys the same.
  Fleet twin = TestFleet();
  EXPECT_EQ(cache.Get(twin.topology, opts), PlanShards(twin.topology, opts));

  // A new K, and a new layout, each get their own fresh plan.
  opts.shard_count = 3;
  EXPECT_EQ(cache.Get(fleet.topology, opts), PlanShards(fleet.topology, opts));
  FleetOptions other;
  other.num_datacenters = 2;
  other.msbs_per_datacenter = 2;
  other.racks_per_msb = 7;
  other.servers_per_rack = 6;
  Fleet reshaped = GenerateFleet(other);
  const ShardPlan fresh = PlanShards(reshaped.topology, opts);
  EXPECT_EQ(cache.Get(reshaped.topology, opts), fresh);
  EXPECT_NE(fresh, PlanShards(fleet.topology, opts));
}

}  // namespace
}  // namespace ras
