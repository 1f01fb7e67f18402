#include "src/core/capacity_portal.h"

#include <gtest/gtest.h>

#include "src/fleet/fleet_gen.h"

namespace ras {
namespace {

struct PortalEnv {
  Fleet fleet;
  ReservationRegistry registry;
  std::unique_ptr<CapacityPortal> portal;

  PortalEnv() : fleet(GenerateFleet(Options())) {
    portal = std::make_unique<CapacityPortal>(&registry, &fleet.topology, &fleet.catalog);
  }

  static FleetOptions Options() {
    FleetOptions opts;
    opts.num_datacenters = 2;
    opts.msbs_per_datacenter = 3;
    opts.racks_per_msb = 5;
    opts.servers_per_rack = 8;
    return opts;  // 240 servers.
  }

  ReservationSpec AnySpec(const std::string& name, double capacity) {
    ReservationSpec spec;
    spec.name = name;
    spec.capacity_rru = capacity;
    spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
    return spec;
  }
};

TEST(CapacityPortalTest, GrantsReasonableRequest) {
  PortalEnv env;
  auto id = env.portal->SubmitRequest(env.AnySpec("svc", 60));
  ASSERT_TRUE(id.ok());
  EXPECT_NE(env.registry.Find(*id), nullptr);
  ASSERT_EQ(env.portal->history().size(), 1u);
  EXPECT_EQ(env.portal->history()[0].kind, PortalEvent::Kind::kCreated);
}

TEST(CapacityPortalTest, RejectsImpossibleRequestWithReason) {
  PortalEnv env;
  auto id = env.portal->SubmitRequest(env.AnySpec("huge", 100000));
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(id.status().message().find("region offers"), std::string::npos);
  EXPECT_EQ(env.registry.size(), 0u);  // Nothing created.
  ASSERT_EQ(env.portal->history().size(), 1u);
  EXPECT_EQ(env.portal->history()[0].kind, PortalEvent::Kind::kRejected);
}

TEST(CapacityPortalTest, ElasticSkipsAdmission) {
  PortalEnv env;
  ReservationSpec spec = env.AnySpec("batch", 0);
  spec.is_elastic = true;
  EXPECT_TRUE(env.portal->SubmitRequest(spec).ok());
}

TEST(CapacityPortalTest, ResizeShrinkAlwaysPasses) {
  PortalEnv env;
  auto id = env.portal->SubmitRequest(env.AnySpec("svc", 80));
  ASSERT_TRUE(id.ok());
  EXPECT_TRUE(env.portal->ResizeRequest(*id, 40).ok());
  EXPECT_EQ(env.registry.Find(*id)->capacity_rru, 40.0);
}

TEST(CapacityPortalTest, ResizeGrowReAdmits) {
  PortalEnv env;
  auto id = env.portal->SubmitRequest(env.AnySpec("svc", 40));
  ASSERT_TRUE(id.ok());
  // A grow beyond the region must be rejected, leaving the old capacity.
  Status status = env.portal->ResizeRequest(*id, 100000);
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(env.registry.Find(*id)->capacity_rru, 40.0);
  // A reasonable grow passes.
  EXPECT_TRUE(env.portal->ResizeRequest(*id, 60).ok());
  EXPECT_EQ(env.registry.Find(*id)->capacity_rru, 60.0);
}

TEST(CapacityPortalTest, ResizeToNegativeCapacityRejected) {
  PortalEnv env;
  ReservationSpec spec = env.AnySpec("aff", 40);
  spec.dc_affinity[0] = 0.5;
  auto id = env.portal->SubmitRequest(spec);
  ASSERT_TRUE(id.ok());
  // A shrink skips admission, so the registry's own check must catch it: a
  // negative C_r would cross the affinity band of every later build.
  EXPECT_EQ(env.portal->ResizeRequest(*id, -5).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(env.registry.Find(*id)->capacity_rru, 40.0);
}

TEST(CapacityPortalTest, DeleteRecordsHistory) {
  PortalEnv env;
  auto id = env.portal->SubmitRequest(env.AnySpec("svc", 30));
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(env.portal->DeleteRequest(*id).ok());
  EXPECT_EQ(env.registry.Find(*id), nullptr);
  EXPECT_FALSE(env.portal->DeleteRequest(*id).ok());  // Already gone.
  ASSERT_EQ(env.portal->history().size(), 2u);
  EXPECT_EQ(env.portal->history()[1].kind, PortalEvent::Kind::kDeleted);
}

TEST(CapacityPortalTest, UpdateReAdmitsSpecChanges) {
  PortalEnv env;
  auto id = env.portal->SubmitRequest(env.AnySpec("svc", 40));
  ASSERT_TRUE(id.ok());
  // Restricting to a single rare SKU with the same capacity should be
  // rejected if that SKU cannot carry 40 RRU + buffer.
  ReservationSpec narrow = *env.registry.Find(*id);
  narrow.rru_per_type.assign(env.fleet.catalog.size(), 0.0);
  narrow.rru_per_type[env.fleet.catalog.FindByName("C7-S1")] = 1.0;  // GPU SKU, rare.
  Status status = env.portal->UpdateRequest(narrow);
  EXPECT_FALSE(status.ok());
  // Registry untouched by the failed update.
  EXPECT_GT(env.registry.Find(*id)->rru_per_type[0], 0.0);
}

TEST(CapacityPortalTest, UnknownIdsRejected) {
  PortalEnv env;
  EXPECT_EQ(env.portal->ResizeRequest(999, 10).code(), StatusCode::kNotFound);
  EXPECT_EQ(env.portal->DeleteRequest(999).code(), StatusCode::kNotFound);
  ReservationSpec ghost = env.AnySpec("ghost", 10);
  ghost.id = 999;
  EXPECT_EQ(env.portal->UpdateRequest(ghost).code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace ras
