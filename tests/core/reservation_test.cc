#include "src/core/reservation.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace ras {
namespace {

ReservationSpec ValidSpec(const std::string& name = "svc") {
  ReservationSpec spec;
  spec.name = name;
  spec.capacity_rru = 10;
  spec.rru_per_type = {1.0, 0.0, 2.0};
  return spec;
}

TEST(ReservationRegistryTest, CreateAssignsIds) {
  ReservationRegistry registry;
  auto a = registry.Create(ValidSpec("a"));
  auto b = registry.Create(ValidSpec("b"));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.Find(*a)->name, "a");
}

TEST(ReservationRegistryTest, RejectsBadSpecs) {
  std::vector<std::pair<std::string, ReservationSpec>> bad;
  bad.emplace_back("no_capacity", ValidSpec());
  bad.back().second.capacity_rru = 0;
  bad.emplace_back("negative_capacity", ValidSpec());
  bad.back().second.capacity_rru = -5;
  bad.emplace_back("infinite_capacity", ValidSpec());
  bad.back().second.capacity_rru = std::numeric_limits<double>::infinity();
  bad.emplace_back("nan_capacity", ValidSpec());
  bad.back().second.capacity_rru = std::numeric_limits<double>::quiet_NaN();
  bad.emplace_back("infinite_elastic_capacity", ValidSpec());
  bad.back().second.is_elastic = true;
  bad.back().second.capacity_rru = std::numeric_limits<double>::infinity();
  bad.emplace_back("no_rru", ValidSpec());
  bad.back().second.rru_per_type.clear();
  bad.emplace_back("all_zero", ValidSpec());
  bad.back().second.rru_per_type = {0.0, 0.0};
  bad.emplace_back("bad_affinity", ValidSpec());
  bad.back().second.dc_affinity[0] = 2.5;
  bad.emplace_back("negative_theta", ValidSpec());
  bad.back().second.dc_affinity[0] = 0.5;
  bad.back().second.affinity_theta = -0.1;

  // Every write path applies the same checks, and a rejected write leaves
  // the registry as it was.
  for (const auto& [name, spec] : bad) {
    SCOPED_TRACE(name);
    ReservationRegistry registry;
    EXPECT_FALSE(registry.Create(spec).ok());
    EXPECT_EQ(registry.size(), 0u);

    ReservationSpec restored = spec;
    restored.id = 7;
    EXPECT_FALSE(registry.Restore(restored).ok());
    EXPECT_EQ(registry.Find(7), nullptr);

    auto id = registry.Create(ValidSpec());
    ASSERT_TRUE(id.ok());
    ReservationSpec updated = spec;
    updated.id = *id;
    EXPECT_FALSE(registry.Update(updated).ok());
    EXPECT_EQ(registry.Find(*id)->capacity_rru, ValidSpec().capacity_rru);
  }

  ReservationRegistry registry;
  ReservationSpec buffer_affinity = ValidSpec("with-buffer-share");
  buffer_affinity.dc_affinity[0] = 1.3;  // Capacity + buffer in one DC: legal.
  EXPECT_TRUE(registry.Create(buffer_affinity).ok());
}

TEST(ReservationRegistryTest, ElasticAllowsZeroCapacity) {
  ReservationRegistry registry;
  ReservationSpec elastic = ValidSpec("elastic");
  elastic.capacity_rru = 0;
  elastic.is_elastic = true;
  EXPECT_TRUE(registry.Create(elastic).ok());
}

TEST(ReservationRegistryTest, UpdateAndRemove) {
  ReservationRegistry registry;
  auto id = registry.Create(ValidSpec());
  ASSERT_TRUE(id.ok());
  ReservationSpec updated = *registry.Find(*id);
  updated.capacity_rru = 99;
  ASSERT_TRUE(registry.Update(updated).ok());
  EXPECT_EQ(registry.Find(*id)->capacity_rru, 99.0);

  ASSERT_TRUE(registry.Remove(*id).ok());
  EXPECT_EQ(registry.Find(*id), nullptr);
  EXPECT_FALSE(registry.Remove(*id).ok());
  ReservationSpec ghost = ValidSpec();
  ghost.id = 424242;
  EXPECT_FALSE(registry.Update(ghost).ok());
}

TEST(ReservationRegistryTest, SolvableExcludesElastic) {
  ReservationRegistry registry;
  ASSERT_TRUE(registry.Create(ValidSpec("normal")).ok());
  ReservationSpec elastic = ValidSpec("elastic");
  elastic.is_elastic = true;
  ASSERT_TRUE(registry.Create(elastic).ok());
  ReservationSpec buffer = ValidSpec("buffer");
  buffer.is_shared_random_buffer = true;
  buffer.needs_correlated_buffer = false;
  ASSERT_TRUE(registry.Create(buffer).ok());

  EXPECT_EQ(registry.All().size(), 3u);
  EXPECT_EQ(registry.AllSolvable().size(), 2u);  // normal + buffer.
  EXPECT_EQ(registry.AllElastic().size(), 1u);
  EXPECT_EQ(registry.AllElastic()[0]->name, "elastic");
}

TEST(ReservationSpecTest, ValueOfTypeBounds) {
  ReservationSpec spec = ValidSpec();
  EXPECT_DOUBLE_EQ(spec.ValueOfType(0), 1.0);
  EXPECT_DOUBLE_EQ(spec.ValueOfType(2), 2.0);
  EXPECT_DOUBLE_EQ(spec.ValueOfType(999), 0.0);  // Out of range.
}

TEST(ReservationRegistryTest, IdsNotReused) {
  ReservationRegistry registry;
  auto a = registry.Create(ValidSpec("a"));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(registry.Remove(*a).ok());
  auto b = registry.Create(ValidSpec("b"));
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
}

}  // namespace
}  // namespace ras
