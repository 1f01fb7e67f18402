// Demand splitting: property tests for exact conservation across shards —
// no RRU lost or duplicated — including heterogeneous-hardware RRU edge
// cases where some shards cannot serve a reservation at all.

#include "src/shard/demand_splitter.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "src/fleet/fleet_gen.h"
#include "src/util/rng.h"

namespace ras {
namespace {

double Sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

TEST(SplitByLargestRemainderTest, IntegralTotalsConserveExactly) {
  Rng rng(4242);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 12));
    const double total = static_cast<double>(rng.LogUniformInt(1, 30000));
    std::vector<double> weights(k);
    for (double& w : weights) {
      // Mix of zero-weight shards (no usable hardware) and skewed positive
      // weights.
      w = rng.Bernoulli(0.25) ? 0.0 : rng.Uniform(0.1, 100.0);
    }
    std::vector<double> shares = SplitByLargestRemainder(total, weights);
    ASSERT_EQ(shares.size(), k);
    // Integral demand: pure integer largest-remainder, so the sum is *exactly*
    // the original — bit-for-bit, no tolerance.
    EXPECT_EQ(Sum(shares), total) << "trial " << trial;
    for (size_t i = 0; i < k; ++i) {
      EXPECT_GE(shares[i], 0.0);
      EXPECT_EQ(std::floor(shares[i]), shares[i]) << "integral demand split fractionally";
      if (weights[i] <= 0.0 && Sum(weights) > 0.0) {
        EXPECT_EQ(shares[i], 0.0) << "zero-weight shard received demand";
      }
    }
  }
}

TEST(SplitByLargestRemainderTest, FractionalTotalsConserveToWithinOneUlp) {
  Rng rng(777);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 12));
    const double total = rng.Uniform(0.0, 20000.0);
    std::vector<double> weights(k);
    for (double& w : weights) {
      w = rng.Bernoulli(0.25) ? 0.0 : rng.Uniform(0.1, 100.0);
    }
    std::vector<double> shares = SplitByLargestRemainder(total, weights);
    EXPECT_NEAR(Sum(shares), total, 1e-9 * std::max(1.0, total)) << "trial " << trial;
  }
}

TEST(SplitByLargestRemainderTest, ProportionalityWithinOneUnit) {
  // Largest remainder never deviates from the exact quota by a full unit.
  std::vector<double> weights = {3.0, 1.0, 1.0, 1.0};
  std::vector<double> shares = SplitByLargestRemainder(600.0, weights);
  EXPECT_EQ(Sum(shares), 600.0);
  EXPECT_NEAR(shares[0], 300.0, 1.0);
  for (size_t i = 1; i < shares.size(); ++i) {
    EXPECT_NEAR(shares[i], 100.0, 1.0);
  }
}

TEST(SplitByLargestRemainderTest, AllZeroWeightsFallBackToShardZero) {
  std::vector<double> shares = SplitByLargestRemainder(42.0, {0.0, 0.0, 0.0});
  EXPECT_EQ(shares[0], 42.0);  // Demand is conserved, not dropped.
  EXPECT_EQ(shares[1], 0.0);
  EXPECT_EQ(shares[2], 0.0);
}

TEST(SplitByLargestRemainderTest, ZeroAndEmptyEdges) {
  EXPECT_TRUE(SplitByLargestRemainder(10.0, {}).empty());
  std::vector<double> shares = SplitByLargestRemainder(0.0, {1.0, 2.0});
  EXPECT_EQ(Sum(shares), 0.0);
}

// --- SplitDemand over real fleets (heterogeneous hardware) ---

SolveInput MakeInput(const Fleet& fleet, std::vector<ReservationSpec> specs) {
  SolveInput input;
  input.topology = &fleet.topology;
  input.catalog = &fleet.catalog;
  for (size_t i = 0; i < specs.size(); ++i) {
    specs[i].id = static_cast<ReservationId>(i + 1);
    input.reservations.push_back(specs[i]);
  }
  input.servers.resize(fleet.topology.num_servers());
  return input;
}

TEST(SplitDemandTest, RandomizedReservationsConserveAcrossShards) {
  FleetOptions fleet_opts;
  fleet_opts.num_datacenters = 2;
  fleet_opts.msbs_per_datacenter = 3;
  fleet_opts.racks_per_msb = 6;
  fleet_opts.servers_per_rack = 8;
  fleet_opts.seed = 5;
  Fleet fleet = GenerateFleet(fleet_opts);

  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<ReservationSpec> specs;
    const int num_res = static_cast<int>(rng.UniformInt(1, 8));
    for (int r = 0; r < num_res; ++r) {
      ReservationSpec spec;
      spec.name = "svc-" + std::to_string(r);
      spec.capacity_rru = static_cast<double>(rng.LogUniformInt(1, 200));
      // Heterogeneous RRU vectors: each type usable with probability 1/2 and
      // a non-unit conversion rate when it is.
      spec.rru_per_type.assign(fleet.catalog.size(), 0.0);
      for (double& v : spec.rru_per_type) {
        v = rng.Bernoulli(0.5) ? rng.Uniform(0.25, 4.0) : 0.0;
      }
      if (Sum(spec.rru_per_type) == 0.0) {
        spec.rru_per_type[0] = 1.0;  // Keep the spec servable somewhere.
      }
      specs.push_back(spec);
    }
    SolveInput input = MakeInput(fleet, specs);

    ShardPlanOptions plan_opts;
    plan_opts.shard_count = static_cast<int>(rng.UniformInt(2, 8));
    plan_opts.seed = 1000 + static_cast<uint64_t>(trial);
    ShardPlan plan = PlanShards(fleet.topology, plan_opts);
    ShardDemand demand = SplitDemand(input, plan);

    for (size_t r = 0; r < input.reservations.size(); ++r) {
      // Exact conservation: the shares sum to the original integral demand.
      EXPECT_EQ(Sum(demand.shares[r]), input.reservations[r].capacity_rru)
          << "trial " << trial << " reservation " << r;
      double from_specs = 0.0;
      for (int k = 0; k < plan.shard_count; ++k) {
        from_specs += demand.reservations[static_cast<size_t>(k)][r].capacity_rru;
        // A shard with no usable hardware for this reservation gets no share
        // of its demand (unless nothing in the region can serve it).
        if (demand.usable_rru[r][static_cast<size_t>(k)] <= 0.0 &&
            Sum(demand.usable_rru[r]) > 0.0) {
          EXPECT_EQ(demand.shares[r][static_cast<size_t>(k)], 0.0);
        }
      }
      EXPECT_EQ(from_specs, input.reservations[r].capacity_rru);
    }
  }
}

TEST(SplitDemandTest, SmallReservationsLandWholeOnOneShard) {
  FleetOptions fleet_opts;
  fleet_opts.num_datacenters = 2;
  fleet_opts.msbs_per_datacenter = 3;
  fleet_opts.racks_per_msb = 6;
  fleet_opts.servers_per_rack = 8;
  fleet_opts.seed = 7;
  Fleet fleet = GenerateFleet(fleet_opts);

  // Each reservation is tiny relative to a shard's capacity, so its span is
  // a single shard and its spread/buffer constraints run at full C_r scale.
  std::vector<ReservationSpec> specs;
  for (int r = 0; r < 6; ++r) {
    ReservationSpec spec;
    spec.name = "svc-" + std::to_string(r);
    spec.capacity_rru = 10.0;
    spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
    specs.push_back(spec);
  }
  SolveInput input = MakeInput(fleet, specs);

  ShardPlanOptions plan_opts;
  plan_opts.shard_count = 4;
  ShardPlan plan = PlanShards(fleet.topology, plan_opts);
  ShardDemand demand = SplitDemand(input, plan);

  std::vector<int> per_shard(4, 0);
  for (size_t r = 0; r < specs.size(); ++r) {
    ASSERT_EQ(demand.span[r].size(), 1u) << "small reservation " << r << " was fragmented";
    EXPECT_EQ(Sum(demand.shares[r]), 10.0);
    ++per_shard[static_cast<size_t>(demand.span[r][0])];
  }
  // Least-loaded placement spreads the six reservations over the four
  // shards instead of stacking them all on one.
  EXPECT_LE(*std::max_element(per_shard.begin(), per_shard.end()), 2);
}

TEST(SplitDemandTest, RegionSizedReservationSpansManyShards) {
  FleetOptions fleet_opts;
  fleet_opts.num_datacenters = 2;
  fleet_opts.msbs_per_datacenter = 3;
  fleet_opts.racks_per_msb = 6;
  fleet_opts.servers_per_rack = 8;
  fleet_opts.seed = 7;
  Fleet fleet = GenerateFleet(fleet_opts);  // 288 servers.

  ReservationSpec spec;
  spec.name = "huge";
  spec.capacity_rru = 200.0;  // ~70% of the region: no single shard can hold it.
  spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
  SolveInput input = MakeInput(fleet, {spec});

  ShardPlanOptions plan_opts;
  plan_opts.shard_count = 4;
  ShardPlan plan = PlanShards(fleet.topology, plan_opts);
  ShardDemand demand = SplitDemand(input, plan);
  EXPECT_EQ(demand.span[0].size(), 4u);
  EXPECT_EQ(Sum(demand.shares[0]), 200.0);
  // Proportional within the span: every member carries a real piece.
  for (double share : demand.shares[0]) {
    EXPECT_GT(share, 20.0);
  }
}

TEST(SplitDemandTest, SingleTypeReservationLandsWhereTheHardwareIs) {
  FleetOptions fleet_opts;
  fleet_opts.seed = 13;
  Fleet fleet = GenerateFleet(fleet_opts);

  // A reservation only the rarest SKU can serve: its demand must concentrate
  // on the shards that actually hold that SKU.
  std::vector<size_t> type_counts(fleet.catalog.size(), 0);
  for (const Server& s : fleet.topology.servers()) {
    ++type_counts[s.type];
  }
  HardwareTypeId rare = 0;
  for (HardwareTypeId t = 0; t < fleet.catalog.size(); ++t) {
    if (type_counts[t] > 0 && type_counts[t] < type_counts[rare]) {
      rare = t;
    }
  }
  ReservationSpec spec;
  spec.name = "rare-only";
  spec.capacity_rru = 10.0;
  spec.rru_per_type.assign(fleet.catalog.size(), 0.0);
  spec.rru_per_type[rare] = 1.0;
  SolveInput input = MakeInput(fleet, {spec});

  ShardPlanOptions plan_opts;
  plan_opts.shard_count = 6;
  ShardPlan plan = PlanShards(fleet.topology, plan_opts);
  ShardDemand demand = SplitDemand(input, plan);
  EXPECT_EQ(Sum(demand.shares[0]), 10.0);
  for (int k = 0; k < plan.shard_count; ++k) {
    if (demand.shares[0][static_cast<size_t>(k)] > 0.0) {
      EXPECT_GT(demand.usable_rru[0][static_cast<size_t>(k)], 0.0)
          << "demand sent to a shard with no rare-SKU servers";
    }
  }
}

TEST(SplitDemandTest, UnavailableServersSupplyNothing) {
  FleetOptions fleet_opts;
  fleet_opts.num_datacenters = 1;
  fleet_opts.msbs_per_datacenter = 2;
  fleet_opts.racks_per_msb = 4;
  fleet_opts.servers_per_rack = 4;
  fleet_opts.seed = 3;
  Fleet fleet = GenerateFleet(fleet_opts);

  ReservationSpec spec;
  spec.name = "svc";
  spec.capacity_rru = 16.0;
  spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
  SolveInput input = MakeInput(fleet, {spec});

  ShardPlanOptions plan_opts;
  plan_opts.shard_count = 2;
  ShardPlan plan = PlanShards(fleet.topology, plan_opts);

  // Kill every server in shard 0: its usable capacity must drop to zero and
  // the entire demand must shift to shard 1.
  for (ServerId id : plan.servers[0]) {
    input.servers[id].available = false;
  }
  ShardDemand demand = SplitDemand(input, plan);
  EXPECT_EQ(demand.usable_rru[0][0], 0.0);
  EXPECT_EQ(demand.shares[0][0], 0.0);
  EXPECT_EQ(demand.shares[0][1], 16.0);
}

}  // namespace
}  // namespace ras
