// Resolve cache: the patch path must reproduce a fresh build field-for-field,
// and cache entries are keyed by (phase, shard).

#include "src/core/resolve_cache.h"

#include <gtest/gtest.h>

#include <cmath>

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

// Field-for-field model comparison: variables (bounds, cost, integrality),
// rows (bounds), and the constraint matrix entries in build order.
void ExpectModelsEqual(const Model& a, const Model& b) {
  ASSERT_EQ(a.num_variables(), b.num_variables());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (VarId v = 0; v < static_cast<VarId>(a.num_variables()); ++v) {
    const ModelVariable& va = a.variable(v);
    const ModelVariable& vb = b.variable(v);
    EXPECT_EQ(va.lb, vb.lb) << "var " << v << " lb";
    EXPECT_EQ(va.ub, vb.ub) << "var " << v << " ub";
    EXPECT_EQ(va.cost, vb.cost) << "var " << v << " cost";
    EXPECT_EQ(va.is_integer, vb.is_integer) << "var " << v;
  }
  for (RowId r = 0; r < static_cast<RowId>(a.num_rows()); ++r) {
    EXPECT_EQ(a.row(r).lb, b.row(r).lb) << "row " << r << " lb";
    EXPECT_EQ(a.row(r).ub, b.row(r).ub) << "row " << r << " ub";
    const auto& ea = a.row_entries(r);
    const auto& eb = b.row_entries(r);
    ASSERT_EQ(ea.size(), eb.size()) << "row " << r << " nonzeros";
    for (size_t k = 0; k < ea.size(); ++k) {
      EXPECT_EQ(ea[k].var, eb[k].var) << "row " << r << " entry " << k;
      EXPECT_EQ(ea[k].coeff, eb[k].coeff) << "row " << r << " entry " << k;
    }
  }
}

void ExpectBuiltModelsEqual(const BuiltModel& a, const BuiltModel& b) {
  ExpectModelsEqual(a.model, b.model);
  ASSERT_EQ(a.assignment_vars.size(), b.assignment_vars.size());
  for (size_t k = 0; k < a.assignment_vars.size(); ++k) {
    EXPECT_EQ(a.assignment_vars[k].var, b.assignment_vars[k].var);
    EXPECT_EQ(a.assignment_vars[k].class_index, b.assignment_vars[k].class_index);
    EXPECT_EQ(a.assignment_vars[k].reservation_index, b.assignment_vars[k].reservation_index);
  }
  EXPECT_EQ(a.initial_counts, b.initial_counts);
  EXPECT_EQ(a.hoard_limits, b.hoard_limits);
  ASSERT_EQ(a.msb_spread_terms.size(), b.msb_spread_terms.size());
  for (size_t k = 0; k < a.msb_spread_terms.size(); ++k) {
    EXPECT_EQ(a.msb_spread_terms[k].threshold, b.msb_spread_terms[k].threshold);
  }
  ASSERT_EQ(a.affinity_terms.size(), b.affinity_terms.size());
  for (size_t k = 0; k < a.affinity_terms.size(); ++k) {
    EXPECT_EQ(a.affinity_terms[k].lo, b.affinity_terms[k].lo);
    EXPECT_EQ(a.affinity_terms[k].hi, b.affinity_terms[k].hi);
  }
}

TEST(ResolveCacheTest, PatchedModelEqualsFreshRebuildAfterResize) {
  TestRegion region;
  auto svc = region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 12));
  ASSERT_TRUE(svc.ok());
  ReservationSpec aff = AnyTypeReservation(region.fleet.catalog, "aff", 8);
  aff.dc_affinity[0] = 0.5;
  aff.dc_affinity[1] = 0.5;
  ASSERT_TRUE(region.registry.Create(aff).ok());

  SolverConfig config;
  SolveInput prev = region.Snapshot();
  std::vector<EquivalenceClass> classes = BuildEquivalenceClasses(prev, Scope::kMsb);
  BuiltModel patched = BuildRasModel(prev, classes, config, /*include_rack_spread=*/false);
  patched.model.EnsureCompressedCache();

  // Resize both reservations and kill one server of a populous class: bound
  // changes only, so the cached model patches forward.
  SolveInput next = prev;
  next.reservations[0].capacity_rru = 18;
  next.reservations[1].capacity_rru = 6;
  ServerId victim = 0;
  for (const EquivalenceClass& cls : classes) {
    if (cls.count() >= 2) {
      victim = cls.servers[0];
      break;
    }
  }
  next.servers[victim].available = false;
  std::vector<EquivalenceClass> next_classes = BuildEquivalenceClasses(next, Scope::kMsb);
  ASSERT_TRUE(ClassStructureEqual(classes, next_classes));

  ASSERT_TRUE(PatchRasModel(patched, next, next_classes, config,
                            /*include_rack_spread=*/false));
  // Patching goes exclusively through the Update* mutators: the CSC cache
  // built before the patch must still be valid.
  EXPECT_TRUE(patched.model.compressed_cache_valid());

  BuiltModel fresh = BuildRasModel(next, next_classes, config, /*include_rack_spread=*/false);
  ExpectBuiltModelsEqual(patched, fresh);
}

TEST(ResolveCacheTest, PatchRefusesStructuralMismatch) {
  TestRegion region;
  ASSERT_TRUE(region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 12)).ok());
  SolverConfig config;
  SolveInput prev = region.Snapshot();
  std::vector<EquivalenceClass> classes = BuildEquivalenceClasses(prev, Scope::kMsb);
  BuiltModel built = BuildRasModel(prev, classes, config, /*include_rack_spread=*/false);

  // A second reservation changes the variable layout: the patch walk must
  // detect the mismatch and refuse.
  ASSERT_TRUE(region.registry.Create(AnyTypeReservation(region.fleet.catalog, "extra", 4)).ok());
  SolveInput next = region.Snapshot();
  std::vector<EquivalenceClass> next_classes = BuildEquivalenceClasses(next, Scope::kMsb);
  EXPECT_FALSE(PatchRasModel(built, next, next_classes, config,
                             /*include_rack_spread=*/false));
}

TEST(ResolveCacheTest, EntriesAreKeyedAndInvalidateDropsAll) {
  ResolveCache cache;
  EXPECT_TRUE(cache.empty());
  cache.entry(1, -1).valid = true;
  cache.entry(2, -1).objective = 7.0;
  cache.entry(1, 3).valid = true;
  EXPECT_EQ(cache.size(), 3u);
  // Same key returns the same entry.
  EXPECT_TRUE(cache.entry(1, -1).valid);
  EXPECT_EQ(cache.entry(2, -1).objective, 7.0);
  cache.Invalidate();
  EXPECT_TRUE(cache.empty());
  // First touch after invalidation is cold.
  EXPECT_FALSE(cache.entry(1, -1).valid);
}

}  // namespace
}  // namespace ras
