#include "src/core/solve_input.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "src/fleet/fleet_gen.h"

namespace ras {
namespace {

FleetOptions Options() {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 2;
  opts.racks_per_msb = 3;
  opts.servers_per_rack = 6;
  return opts;  // 72 servers.
}

ReservationSpec AnySpec(const HardwareCatalog& catalog, const std::string& name) {
  ReservationSpec spec;
  spec.name = name;
  spec.capacity_rru = 5;
  spec.rru_per_type.assign(catalog.size(), 1.0);
  return spec;
}

TEST(SnapshotTest, CapturesBindingsAndFlags) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  auto id = registry.Create(AnySpec(fleet.catalog, "svc"));
  ASSERT_TRUE(id.ok());
  broker.SetCurrent(3, *id);
  broker.SetHasContainers(3, true);
  broker.SetUnavailability(9, Unavailability::kUnplannedHardware);

  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  EXPECT_EQ(input.servers[3].current, *id);
  EXPECT_TRUE(input.servers[3].in_use);
  EXPECT_FALSE(input.servers[9].available);
  EXPECT_TRUE(input.servers[0].available);
  EXPECT_EQ(input.reservations.size(), 1u);
  EXPECT_EQ(input.ReservationIndex(*id), 0);
  EXPECT_EQ(input.ReservationIndex(999), -1);
}

TEST(SnapshotTest, ElasticLoansResolveToHome) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  auto home = registry.Create(AnySpec(fleet.catalog, "buffer"));
  ASSERT_TRUE(home.ok());
  broker.SetCurrent(5, 777);  // Bound to some elastic reservation id.
  broker.SetElasticLoan(5, *home, true);
  broker.SetHasContainers(5, true);  // Elastic workload running.

  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  EXPECT_EQ(input.servers[5].current, *home);
  EXPECT_FALSE(input.servers[5].in_use);  // Loans move for free.
}

TEST(SnapshotTest, DanglingBindingsBecomeFree) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  broker.SetCurrent(2, 12345);  // Reservation does not exist.
  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  EXPECT_EQ(input.servers[2].current, kUnassigned);
}

TEST(SnapshotTest, ExcludesElasticReservations) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  ASSERT_TRUE(registry.Create(AnySpec(fleet.catalog, "normal")).ok());
  ReservationSpec elastic = AnySpec(fleet.catalog, "elastic");
  elastic.is_elastic = true;
  ASSERT_TRUE(registry.Create(elastic).ok());
  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  EXPECT_EQ(input.reservations.size(), 1u);
  EXPECT_EQ(input.reservations[0].name, "normal");
}

TEST(SnapshotTest, ExternallyManagedServersInvisible) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  ReservationSpec legacy = AnySpec(fleet.catalog, "legacy");
  legacy.externally_managed = true;
  auto id = registry.Create(legacy);
  ASSERT_TRUE(id.ok());
  broker.SetCurrent(7, *id);

  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  // Not in the solvable reservation list, and its servers are not supply.
  EXPECT_TRUE(input.reservations.empty());
  EXPECT_FALSE(input.servers[7].available);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  for (const auto& cls : classes) {
    for (ServerId sid : cls.servers) {
      EXPECT_NE(sid, 7u);
    }
  }
}

TEST(EquivalenceTest, ClassesPartitionAvailableServers) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  broker.SetUnavailability(0, Unavailability::kUnplannedSoftware);
  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  std::set<ServerId> seen;
  for (const auto& cls : classes) {
    for (ServerId id : cls.servers) {
      EXPECT_TRUE(seen.insert(id).second) << "server in two classes";
    }
  }
  EXPECT_EQ(seen.size(), fleet.topology.num_servers() - 1);  // Minus the failed one.
  EXPECT_EQ(seen.count(0), 0u);
}

// The key is (location, type); bindings are per-reservation tier counts
// that add up the members' snapshot states.
TEST(EquivalenceTest, MembersShareKeyFieldsAndHoldingsCountBindings) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  auto id = registry.Create(AnySpec(fleet.catalog, "svc"));
  ASSERT_TRUE(id.ok());
  broker.SetCurrent(4, *id);
  broker.SetCurrent(5, *id);
  broker.SetHasContainers(5, true);
  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  std::set<std::pair<MsbId, HardwareTypeId>> keys;
  size_t idle = 0, in_use = 0;
  for (const auto& cls : classes) {
    EXPECT_TRUE(keys.insert({cls.msb, cls.type}).second) << "two classes share a key";
    EXPECT_TRUE(std::is_sorted(cls.servers.begin(), cls.servers.end()));
    std::map<ReservationId, EquivalenceClass::Held> expected;
    for (ServerId sid : cls.servers) {
      const Server& s = fleet.topology.server(sid);
      EXPECT_EQ(s.msb, cls.msb);
      EXPECT_EQ(s.type, cls.type);
      const ServerSolveState& state = input.servers[sid];
      if (state.current != kUnassigned) {
        ++(state.in_use ? expected[state.current].in_use : expected[state.current].idle);
      }
    }
    ASSERT_EQ(cls.held.size(), expected.size());
    for (const EquivalenceClass::Held& held : cls.held) {
      EXPECT_EQ(held.idle, expected[held.reservation].idle);
      EXPECT_EQ(held.in_use, expected[held.reservation].in_use);
    }
    idle += cls.HeldBy(*id).idle;
    in_use += cls.HeldBy(*id).in_use;
  }
  EXPECT_EQ(idle, 1u);
  EXPECT_EQ(in_use, 1u);
}

TEST(EquivalenceTest, RackGranularityIsFiner) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  auto msb_classes = BuildEquivalenceClasses(input, Scope::kMsb);
  auto rack_classes = BuildEquivalenceClasses(input, Scope::kRack);
  EXPECT_GE(rack_classes.size(), msb_classes.size());
  // Rack classes never span racks.
  for (const auto& cls : rack_classes) {
    std::set<RackId> racks;
    for (ServerId id : cls.servers) {
      racks.insert(fleet.topology.server(id).rack);
    }
    EXPECT_EQ(racks.size(), 1u);
  }
}

TEST(EquivalenceTest, FilterRestrictsToSubsetPlusFree) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  auto a = registry.Create(AnySpec(fleet.catalog, "a"));
  auto b = registry.Create(AnySpec(fleet.catalog, "b"));
  ASSERT_TRUE(a.ok() && b.ok());
  broker.SetCurrent(1, *a);
  broker.SetCurrent(2, *b);
  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);

  std::unordered_set<ReservationId> only_a = {*a};
  ClassFilter filter;
  filter.reservations = &only_a;
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb, filter);
  bool saw_a = false;
  for (const auto& cls : classes) {
    EXPECT_EQ(cls.HeldBy(*b).count(), 0u);
    saw_a = saw_a || cls.HeldBy(*a).count() > 0;
    for (ServerId id : cls.servers) {
      EXPECT_NE(id, 2u);
    }
  }
  EXPECT_TRUE(saw_a);
}

TEST(EquivalenceTest, SymmetryCompressionIsLarge) {
  // The point of Section 3.5.2: classes are far fewer than servers.
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  EXPECT_LT(classes.size(), fleet.topology.num_servers() / 3);
}

}  // namespace
}  // namespace ras
