// Round deltas: the server-state count the resolve cache reports as
// delta_servers. The layout and memo-key cases live in resolve_cache_test.

#include "src/core/round_delta.h"

#include <gtest/gtest.h>

#include "src/fleet/fleet_gen.h"

namespace ras {
namespace {

FleetOptions SmallFleetOptions() {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 2;
  opts.racks_per_msb = 3;
  opts.servers_per_rack = 4;
  opts.seed = 11;
  return opts;  // 48 servers.
}

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

  TestRegion() : fleet(GenerateFleet(SmallFleetOptions())) {
    broker = std::make_unique<ResourceBroker>(&fleet.topology);
  }

  SolveInput Snapshot() const {
    return SnapshotSolveInput(*broker, registry, fleet.catalog);
  }
};

TEST(RoundDeltaTest, IdenticalSnapshotsHaveNoDelta) {
  TestRegion region;
  ASSERT_TRUE(region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 10)).ok());
  EXPECT_EQ(DeltaServers(region.Snapshot(), region.Snapshot()), 0);
}

TEST(RoundDeltaTest, ServerStateFlipsAreCountedPerServer) {
  TestRegion region;
  auto id = region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 10));
  ASSERT_TRUE(id.ok());
  SolveInput prev = region.Snapshot();
  SolveInput next = prev;
  next.servers[3].available = false;       // Health flip.
  next.servers[7].current = *id;           // Binding change.
  next.servers[7].in_use = true;           // Same server: still one change.

  EXPECT_EQ(DeltaServers(prev, next), 2);
}

TEST(RoundDeltaTest, FleetGrowthCountsAddedServers) {
  TestRegion region;
  SolveInput prev = region.Snapshot();
  SolveInput next = prev;
  next.servers.push_back(ServerSolveState{});
  next.servers.push_back(ServerSolveState{});

  EXPECT_EQ(DeltaServers(prev, next), 2);

  // Shrink is the mirror image.
  EXPECT_EQ(DeltaServers(next, prev), 2);
}

}  // namespace
}  // namespace ras
