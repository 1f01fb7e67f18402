#include "src/core/state_io.h"

#include <gtest/gtest.h>

#include "src/core/async_solver.h"
#include "src/core/buffer_policy.h"
#include "src/fleet/fleet_gen.h"
#include "src/journal/checkpoint.h"
#include "src/journal/digest_tree.h"

namespace ras {
namespace {

FleetOptions Options() {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 2;
  opts.racks_per_msb = 4;
  opts.servers_per_rack = 6;
  return opts;  // 96 servers.
}

TEST(StateIoTest, RoundTripPreservesEverything) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  EnsureSharedBuffers(registry, fleet.topology, fleet.catalog, 0.02);

  ReservationSpec spec;
  spec.name = "svc with spaces | and pipes";
  spec.capacity_rru = 22.5;
  spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
  spec.rru_per_type[2] = 1.75;
  spec.dc_affinity[1] = 0.8;
  spec.affinity_theta = 0.07;
  spec.is_storage = true;
  spec.max_msb_fraction_hard = 0.3;
  spec.host_profile = "kernel-6.1";
  ReservationId id = *registry.Create(spec);

  AsyncSolver solver;
  ASSERT_TRUE(solver.SolveOnce(broker, registry, fleet.catalog).ok());
  broker.SetCurrent(3, id);
  broker.SetElasticLoan(7, id, true);
  broker.SetUnavailability(11, Unavailability::kUnplannedHardware);
  broker.SetHasContainers(3, true);

  std::string text = SerializeRegionState(broker, registry);

  ResourceBroker restored_broker(&fleet.topology);
  ReservationRegistry restored_registry;
  ASSERT_TRUE(DeserializeRegionState(text, restored_broker, restored_registry).ok());

  // Registry round trip.
  ASSERT_EQ(restored_registry.size(), registry.size());
  const ReservationSpec* r = restored_registry.Find(id);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->name, spec.name);
  EXPECT_DOUBLE_EQ(r->capacity_rru, 22.5);
  EXPECT_DOUBLE_EQ(r->rru_per_type[2], 1.75);
  EXPECT_DOUBLE_EQ(r->dc_affinity.at(1), 0.8);
  EXPECT_DOUBLE_EQ(r->affinity_theta, 0.07);
  EXPECT_TRUE(r->is_storage);
  EXPECT_DOUBLE_EQ(r->max_msb_fraction_hard, 0.3);
  EXPECT_EQ(r->host_profile, "kernel-6.1");

  // Broker round trip.
  for (ServerId s = 0; s < broker.num_servers(); ++s) {
    const ServerRecord& a = broker.record(s);
    const ServerRecord& b = restored_broker.record(s);
    EXPECT_EQ(a.current, b.current) << "server " << s;
    EXPECT_EQ(a.target, b.target) << "server " << s;
    EXPECT_EQ(a.home, b.home) << "server " << s;
    EXPECT_EQ(a.elastic_loan, b.elastic_loan) << "server " << s;
    EXPECT_EQ(a.unavailability, b.unavailability) << "server " << s;
    EXPECT_EQ(a.has_containers, b.has_containers) << "server " << s;
  }
  // Membership indexes rebuilt consistently.
  for (const ReservationSpec* restored : restored_registry.All()) {
    EXPECT_EQ(restored_broker.CountInReservation(restored->id),
              broker.CountInReservation(restored->id));
  }
}

TEST(StateIoTest, SerializedBytesArePinned) {
  // Checkpoints, digest records and the state digest are all defined by
  // these bytes: a journal written by an older binary only recovers if the
  // writer still produces them exactly.
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  ReservationSpec spec;
  spec.id = 7;
  spec.name = "svc|a";
  spec.capacity_rru = 22.5;
  spec.rru_per_type = {1.0, 0.75};
  spec.dc_affinity[1] = 0.8;
  ASSERT_TRUE(registry.Restore(spec).ok());
  spec.id = 12345;
  spec.name = "elastic";
  spec.is_elastic = true;
  spec.dc_affinity.clear();
  ASSERT_TRUE(registry.Restore(spec).ok());

  broker.SetCurrent(0, 7);
  broker.SetTarget(0, 7);
  broker.SetHasContainers(0, true);
  broker.SetTarget(1, 12345);
  broker.SetCurrent(2, 12345);
  broker.SetElasticLoan(2, 7, true);
  broker.SetUnavailability(3, Unavailability::kPlannedMaintenance);
  broker.SetUnavailability(4, Unavailability::kUnplannedSoftware);
  broker.SetUnavailability(95, Unavailability::kUnplannedHardware);
  // Every other server is all-default and is skipped.

  EXPECT_EQ(SerializeRegionState(broker, registry),
            "ras-state v1\n"
            "# servers=96\n"
            "reservation|7|svc%7Ca|22.5|1|0|0|0.05|0||1,0.75|1=0.8\n"
            "reservation|12345|elastic|22.5|5|0|0|0.05|0||1,0.75|\n"
            "server|0|7|7|-|0|0|1\n"
            "server|1|-|12345|-|0|0|0\n"
            "server|2|12345|-|7|1|0|0\n"
            "server|3|-|-|-|0|1|0\n"
            "server|4|-|-|-|0|2|0\n"
            "server|95|-|-|-|0|3|0\n");
  EXPECT_EQ(journal::StateDigest(broker, registry), 0x469466c3u);
}

TEST(StateIoTest, MaintainedDigestIsPinned) {
  // The journal's live digest is kept in a tree over server ids; it must
  // land on the from-scratch digest of the pinned bytes above, whether
  // built over the final state or updated one write at a time.
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  journal::StateDigestTree tree;
  tree.Build(broker, registry);
  EXPECT_EQ(tree.Digest(broker, registry), journal::StateDigest(broker, registry));
  broker.Subscribe([&tree](const ServerRecord& record) { tree.MarkDirty(record.server); });

  ReservationSpec spec;
  spec.id = 7;
  spec.name = "svc|a";
  spec.capacity_rru = 22.5;
  spec.rru_per_type = {1.0, 0.75};
  spec.dc_affinity[1] = 0.8;
  ASSERT_TRUE(registry.Restore(spec).ok());
  spec.id = 12345;
  spec.name = "elastic";
  spec.is_elastic = true;
  spec.dc_affinity.clear();
  ASSERT_TRUE(registry.Restore(spec).ok());
  broker.SetCurrent(0, 7);
  broker.SetTarget(0, 7);
  broker.SetHasContainers(0, true);
  broker.SetTarget(1, 12345);
  broker.SetCurrent(2, 12345);
  broker.SetElasticLoan(2, 7, true);
  broker.SetUnavailability(3, Unavailability::kPlannedMaintenance);
  broker.SetUnavailability(4, Unavailability::kUnplannedSoftware);
  broker.SetUnavailability(95, Unavailability::kUnplannedHardware);
  EXPECT_EQ(tree.Digest(broker, registry), 0x469466c3u);

  journal::StateDigestTree rebuilt;
  rebuilt.Build(broker, registry);
  EXPECT_EQ(rebuilt.Digest(broker, registry), 0x469466c3u);
}

TEST(StateIoTest, RestoredRegistryKeepsIdsMonotonic) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  ReservationSpec spec;
  spec.name = "a";
  spec.capacity_rru = 5;
  spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
  ReservationId old_id = *registry.Create(spec);

  std::string text = SerializeRegionState(broker, registry);
  ResourceBroker broker2(&fleet.topology);
  ReservationRegistry registry2;
  ASSERT_TRUE(DeserializeRegionState(text, broker2, registry2).ok());
  // New creations after restore never collide with restored ids.
  spec.name = "b";
  ReservationId new_id = *registry2.Create(spec);
  EXPECT_GT(new_id, old_id);
}

TEST(StateIoTest, RejectsMalformedInput) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  EXPECT_FALSE(DeserializeRegionState("not a snapshot", broker, registry).ok());
  EXPECT_FALSE(DeserializeRegionState("ras-state v1\nbogus|1|2", broker, registry).ok());
  EXPECT_FALSE(
      DeserializeRegionState("ras-state v1\nreservation|1|x", broker, registry).ok());
  // Server id out of range.
  EXPECT_FALSE(DeserializeRegionState("ras-state v1\nserver|99999|-|-|-|0|0|0", broker,
                                      registry)
                   .ok());
  // Malformed flags, unavailability codes and ids: each field is parsed
  // whole, and an id must be "-" or a decimal below kUnassigned.
  const char* kBadServers[] = {
      "server|1|-|-|-|x|0|0",           "server|1|-|-|-|0|2zz|0",
      "server|1|-|-|-|0||0",            "server|1|-|-|-|0|0|yes",
      "server|1|4294967296|-|-|0|0|0",  "server|1|-7|-|-|0|0|0",
      "server|1|4294967295|-|-|0|0|0",  "server|1|-|+3|-|0|0|0",
      "server|1|-|-| 3|0|0|0",          "server|+1|-|-|-|0|0|0",
      "server|1|-|-|-|0|9|0",
  };
  for (const char* line : kBadServers) {
    ServerStateRecord parsed;
    EXPECT_FALSE(ParseServerRecord(line, broker.num_servers(), &parsed).ok()) << line;
    EXPECT_FALSE(
        DeserializeRegionState(std::string("ras-state v1\n") + line, broker, registry).ok())
        << line;
  }
  // All rejections left the broker untouched.
  for (ServerId s = 0; s < broker.num_servers(); ++s) {
    EXPECT_EQ(broker.record(s).current, kUnassigned);
  }
}

TEST(StateIoTest, RejectsDuplicateIdsWithLineNumbers) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  ReservationSpec spec;
  spec.name = "svc";
  spec.capacity_rru = 5;
  spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
  ASSERT_TRUE(registry.Create(spec).ok());
  broker.SetTarget(4, 1);
  std::string good = SerializeRegionState(broker, registry);

  // Duplicate reservation line.
  {
    std::string line = SerializeReservationRecord(*registry.Find(1));
    ResourceBroker b2(&fleet.topology);
    ReservationRegistry r2;
    Status status = DeserializeRegionState(good + line + "\n", b2, r2);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("duplicate reservation id 1"), std::string::npos)
        << status.ToString();
    EXPECT_NE(status.message().find("line "), std::string::npos) << status.ToString();
    EXPECT_EQ(r2.size(), 0u) << "failed load mutated the registry";
  }
  // Duplicate server line.
  {
    std::string line = SerializeServerRecord(broker.record(4));
    ResourceBroker b2(&fleet.topology);
    ReservationRegistry r2;
    Status status = DeserializeRegionState(good + line + "\n", b2, r2);
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("duplicate server id 4"), std::string::npos)
        << status.ToString();
    EXPECT_EQ(b2.record(4).target, kUnassigned) << "failed load mutated the broker";
  }
}

TEST(StateIoTest, RejectsOutOfRangeRruValues) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  const std::string header = "ras-state v1\n";
  // Capacity beyond the corruption bound, negative capacity, non-finite
  // capacity, and a bad per-type RRU — all named by line.
  const char* kBad[] = {
      "reservation|1|svc|1e13|1|0|0|0.05|0|p|1|",
      "reservation|1|svc|-5|1|0|0|0.05|0|p|1|",
      "reservation|1|svc|inf|1|0|0|0.05|0|p|1|",
      "reservation|1|svc|10|1|0|0|0.05|0|p|1e13|",
  };
  for (const char* line : kBad) {
    ReservationRegistry r2;
    Status status = DeserializeRegionState(header + line + "\n", broker, r2);
    ASSERT_FALSE(status.ok()) << line;
    EXPECT_NE(status.message().find("line 2"), std::string::npos) << status.ToString();
    EXPECT_EQ(r2.size(), 0u);
  }
}

TEST(StateIoTest, RequiresEmptyRegistry) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  ReservationSpec spec;
  spec.name = "existing";
  spec.capacity_rru = 5;
  spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
  ASSERT_TRUE(registry.Create(spec).ok());
  Status status = DeserializeRegionState("ras-state v1\n", broker, registry);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
}

TEST(StateIoTest, SolveResumesFromRestoredState) {
  // The operational story: snapshot, restart the control plane, re-solve —
  // stability must keep the restored assignment nearly untouched.
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  ReservationSpec spec;
  spec.name = "svc";
  spec.capacity_rru = 30;
  spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
  ASSERT_TRUE(registry.Create(spec).ok());
  AsyncSolver solver;
  ASSERT_TRUE(solver.SolveOnce(broker, registry, fleet.catalog).ok());
  for (ServerId s = 0; s < broker.num_servers(); ++s) {
    broker.SetCurrent(s, broker.record(s).target);
  }

  std::string text = SerializeRegionState(broker, registry);
  ResourceBroker broker2(&fleet.topology);
  ReservationRegistry registry2;
  ASSERT_TRUE(DeserializeRegionState(text, broker2, registry2).ok());

  auto stats = solver.SolveOnce(broker2, registry2, fleet.catalog);
  ASSERT_TRUE(stats.ok());
  EXPECT_LE(stats->moves_total, 4u);
}

}  // namespace
}  // namespace ras
