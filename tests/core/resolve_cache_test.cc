// Resolve cache: the patch path (SetRoundBounds on a cached model) must
// reproduce a fresh build field-for-field, for size changes and binding
// moves alike; SetRoundBounds must refuse, with the model untouched, every
// round whose model layout differs; and the round memo keys on the whole
// snapshot.

#include "src/core/resolve_cache.h"

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <string>
#include <unordered_set>
#include <utility>

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

bool SameBounds(const Model& a, const Model& b) {
  for (VarId v = 0; v < static_cast<VarId>(a.num_variables()); ++v) {
    if (a.variable(v).lb != b.variable(v).lb || a.variable(v).ub != b.variable(v).ub) {
      return false;
    }
  }
  for (RowId r = 0; r < static_cast<RowId>(a.num_rows()); ++r) {
    if (a.row(r).lb != b.row(r).lb || a.row(r).ub != b.row(r).ub) {
      return false;
    }
  }
  return true;
}

// The full model plus every piece of layout bookkeeping decode, warm start
// and the next patch read.
void ExpectBuiltModelsEqual(const BuiltModel& a, const BuiltModel& b) {
  ExpectModelsEqual(a.model, b.model);
  EXPECT_TRUE(a.layout == b.layout);
  ASSERT_EQ(a.assignment_vars.size(), b.assignment_vars.size());
  for (size_t k = 0; k < a.assignment_vars.size(); ++k) {
    EXPECT_EQ(a.assignment_vars[k].var, b.assignment_vars[k].var);
    EXPECT_EQ(a.assignment_vars[k].class_index, b.assignment_vars[k].class_index);
    EXPECT_EQ(a.assignment_vars[k].reservation_index, b.assignment_vars[k].reservation_index);
  }
  EXPECT_EQ(a.class_to_vars, b.class_to_vars);
  EXPECT_EQ(a.shortfall_vars, b.shortfall_vars);
  EXPECT_EQ(a.buffer_vars, b.buffer_vars);
  EXPECT_EQ(a.hoard_vars, b.hoard_vars);
  EXPECT_EQ(a.initial_counts, b.initial_counts);
  EXPECT_EQ(a.initial_in_use, b.initial_in_use);
  EXPECT_EQ(a.move_idle_vars, b.move_idle_vars);
  EXPECT_EQ(a.move_in_use_vars, b.move_in_use_vars);
  EXPECT_EQ(a.held_var, b.held_var);
  EXPECT_EQ(a.acquire_cost, b.acquire_cost);
  EXPECT_EQ(a.move_cost_idle, b.move_cost_idle);
  EXPECT_EQ(a.move_cost_in_use, b.move_cost_in_use);
  EXPECT_EQ(a.supply_rows, b.supply_rows);
  EXPECT_EQ(a.move_rows, b.move_rows);
  EXPECT_EQ(a.capacity_rows, b.capacity_rows);
  EXPECT_EQ(a.hoard_rows, b.hoard_rows);
  auto spread_eq = [](const std::vector<BuiltModel::SpreadTerm>& x,
                      const std::vector<BuiltModel::SpreadTerm>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (size_t k = 0; k < x.size(); ++k) {
      EXPECT_EQ(x[k].var, y[k].var);
      EXPECT_EQ(x[k].reservation_index, y[k].reservation_index);
      EXPECT_EQ(x[k].group, y[k].group);
      EXPECT_EQ(x[k].row, y[k].row);
    }
  };
  spread_eq(a.msb_spread_terms, b.msb_spread_terms);
  spread_eq(a.rack_spread_terms, b.rack_spread_terms);
  ASSERT_EQ(a.affinity_terms.size(), b.affinity_terms.size());
  for (size_t k = 0; k < a.affinity_terms.size(); ++k) {
    EXPECT_EQ(a.affinity_terms[k].lo_slack, b.affinity_terms[k].lo_slack);
    EXPECT_EQ(a.affinity_terms[k].hi_slack, b.affinity_terms[k].hi_slack);
    EXPECT_EQ(a.affinity_terms[k].reservation_index, b.affinity_terms[k].reservation_index);
    EXPECT_EQ(a.affinity_terms[k].dc, b.affinity_terms[k].dc);
    EXPECT_EQ(a.affinity_terms[k].lo_row, b.affinity_terms[k].lo_row);
    EXPECT_EQ(a.affinity_terms[k].hi_row, b.affinity_terms[k].hi_row);
  }
  ASSERT_EQ(a.quorum_terms.size(), b.quorum_terms.size());
  for (size_t k = 0; k < a.quorum_terms.size(); ++k) {
    EXPECT_EQ(a.quorum_terms[k].slack, b.quorum_terms[k].slack);
    EXPECT_EQ(a.quorum_terms[k].reservation_index, b.quorum_terms[k].reservation_index);
    EXPECT_EQ(a.quorum_terms[k].group, b.quorum_terms[k].group);
    EXPECT_EQ(a.quorum_terms[k].row, b.quorum_terms[k].row);
  }
}

// A region whose three reservations carry every round-dependent term: plain
// capacity ("svc"), a two-datacenter affinity ("aff") and a storage quorum
// cap ("quorum"). Each of the first three MSBs is bound to one of them, in
// use or idle, so move-out rows of both cost tiers exist; the last is free.
struct PatchRegion {
  TestRegion region;
  SolveInput base;

  PatchRegion() {
    const HardwareCatalog& catalog = region.fleet.catalog;
    EXPECT_TRUE(region.registry.Create(AnyTypeReservation(catalog, "svc", 12)).ok());
    ReservationSpec aff = AnyTypeReservation(catalog, "aff", 8);
    aff.dc_affinity[0] = 0.5;
    aff.dc_affinity[1] = 0.5;
    EXPECT_TRUE(region.registry.Create(aff).ok());
    ReservationSpec quorum = AnyTypeReservation(catalog, "quorum", 10);
    quorum.is_storage = true;
    quorum.max_msb_fraction_hard = 0.4;
    EXPECT_TRUE(region.registry.Create(quorum).ok());
    base = region.Snapshot();
    const RegionTopology& topo = region.fleet.topology;
    for (size_t s = 0; s < base.servers.size(); ++s) {
      const size_t msb = topo.server(static_cast<ServerId>(s)).msb;
      if (msb < 3) {
        base.servers[s].current = base.reservations[msb].id;
        base.servers[s].in_use = msb != 1;
      }
    }
  }
};

// Phase 1: MSB classes over every reservation. Phase 2: rack classes and
// rack spread over a two-reservation subset, as AsyncSolver builds them.
struct PhaseShape {
  const char* name;
  bool include_rack_spread;
  std::vector<int> subset;

  std::vector<EquivalenceClass> Classes(const SolveInput& input) const {
    if (!include_rack_spread) {
      return BuildEquivalenceClasses(input, Scope::kMsb);
    }
    std::unordered_set<ReservationId> ids;
    for (int r : subset) {
      ids.insert(input.reservations[static_cast<size_t>(r)].id);
    }
    ClassFilter filter;
    filter.reservations = &ids;
    return BuildEquivalenceClasses(input, Scope::kRack, filter);
  }
};

const std::vector<PhaseShape>& Phases() {
  static const std::vector<PhaseShape> phases = {
      {"phase1", false, {}},
      {"phase2", true, {1, 2}},
  };
  return phases;
}

// Re-bounds a copy of `built` for `next` under `phase`. A refusal must leave
// the copy bitwise the model it was.
bool Patches(const BuiltModel& built, const SolveInput& next, const PhaseShape& phase) {
  BuiltModel copy = built;
  const bool patched = SetRoundBounds(copy, next, phase.Classes(next), SolverConfig(),
                                      phase.include_rack_spread, phase.subset);
  if (!patched) {
    ExpectBuiltModelsEqual(copy, built);
    EXPECT_TRUE(copy.model.compressed_cache_valid());
  }
  return patched;
}

// One round-over-round edit that keeps the model layout. `classes` are the
// previous round's, for edits that pick a server.
struct BoundEdit {
  const char* name;
  std::function<void(SolveInput&, const std::vector<EquivalenceClass>&)> apply;
};

TEST(ResolveCacheTest, PatchedModelEqualsFreshRebuildForEveryBound) {
  const std::vector<BoundEdit> edits = {
      {"capacity",
       [](SolveInput& in, const std::vector<EquivalenceClass>&) {
         in.reservations[0].capacity_rru = 18;
         in.reservations[1].capacity_rru = 6;
         in.reservations[2].capacity_rru = 14;
       }},
      {"spread_alphas",
       [](SolveInput& in, const std::vector<EquivalenceClass>&) {
         for (ReservationSpec& spec : in.reservations) {
           spec.msb_spread_alpha = 0.6;
           spec.rack_spread_alpha = 0.5;
         }
       }},
      {"affinity_share",
       [](SolveInput& in, const std::vector<EquivalenceClass>&) {
         in.reservations[1].dc_affinity[0] = 0.7;
       }},
      {"affinity_theta",
       [](SolveInput& in, const std::vector<EquivalenceClass>&) {
         in.reservations[1].affinity_theta = 0.2;
       }},
      {"quorum_magnitude",
       [](SolveInput& in, const std::vector<EquivalenceClass>&) {
         in.reservations[2].max_msb_fraction_hard = 0.25;
       }},
      {"availability_flip",
       [](SolveInput& in, const std::vector<EquivalenceClass>& classes) {
         // Kill one server of a populous bound class: its supply, n bound,
         // X and move-out bounds all shrink, the class survives.
         for (const EquivalenceClass& cls : classes) {
           if (cls.count() >= 2 && !cls.held.empty() &&
               in.servers[cls.servers[0]].current != kUnassigned) {
             in.servers[cls.servers[0]].available = false;
             return;
           }
         }
         ADD_FAILURE() << "no populous bound class";
       }},
  };

  PatchRegion region;
  SolverConfig config;
  for (const PhaseShape& phase : Phases()) {
    for (const BoundEdit& edit : edits) {
      SCOPED_TRACE(std::string(phase.name) + " / " + edit.name);
      const SolveInput& prev = region.base;
      std::vector<EquivalenceClass> classes = phase.Classes(prev);
      BuiltModel patched =
          BuildRasModel(prev, classes, config, phase.include_rack_spread, phase.subset);
      const BuiltModel before = patched;

      SolveInput next = prev;
      edit.apply(next, classes);
      std::vector<EquivalenceClass> next_classes = phase.Classes(next);

      ASSERT_TRUE(SetRoundBounds(patched, next, next_classes, config, phase.include_rack_spread,
                                 phase.subset));
      // Patching goes exclusively through the Update* mutators: the CSC
      // cache built with the model must still be valid.
      EXPECT_TRUE(patched.model.compressed_cache_valid());

      BuiltModel fresh =
          BuildRasModel(next, next_classes, config, phase.include_rack_spread, phase.subset);
      ExpectBuiltModelsEqual(patched, fresh);
      // The edit must reach the model, or the comparison proves nothing.
      EXPECT_FALSE(SameBounds(before.model, fresh.model));
    }
  }
}

TEST(ResolveCacheTest, PatchRefusesCrossedAffinityBand) {
  PatchRegion region;
  SolverConfig config;
  for (const PhaseShape& phase : Phases()) {
    SCOPED_TRACE(phase.name);
    std::vector<EquivalenceClass> classes = phase.Classes(region.base);
    BuiltModel built =
        BuildRasModel(region.base, classes, config, phase.include_rack_spread, phase.subset);

    // A negative theta crosses "aff"'s band: (0.5 + 0.1) * 8 > (0.5 - 0.1) * 8.
    // It is a size change, so the layout passes and only the bound pass can
    // catch it.
    SolveInput next = region.base;
    next.reservations[1].affinity_theta = -0.1;
    EXPECT_FALSE(SetRoundBounds(built, next, phase.Classes(next), config,
                                phase.include_rack_spread, phase.subset));
  }
}

TEST(ResolveCacheTest, PatchRefusesStructuralMismatch) {
  TestRegion region;
  ASSERT_TRUE(region.registry.Create(AnyTypeReservation(region.fleet.catalog, "svc", 12)).ok());
  SolverConfig config;
  SolveInput prev = region.Snapshot();
  std::vector<EquivalenceClass> classes = BuildEquivalenceClasses(prev, Scope::kMsb);
  BuiltModel built = BuildRasModel(prev, classes, config, /*include_rack_spread=*/false);

  // A second reservation changes the layout: the bound pass must refuse.
  ASSERT_TRUE(region.registry.Create(AnyTypeReservation(region.fleet.catalog, "extra", 4)).ok());
  SolveInput next = region.Snapshot();
  std::vector<EquivalenceClass> next_classes = BuildEquivalenceClasses(next, Scope::kMsb);
  EXPECT_FALSE(SetRoundBounds(built, next, next_classes, config, /*include_rack_spread=*/false));
}

// Bindings and in-use flags are bounds, not layout: every server of the idle
// "aff" MSB goes in use (a tier flip), is rebound to "quorum" (a binding move
// inside phase 2's subset too), or is freed, and the cached model re-bounds
// to exactly a fresh build.
TEST(ResolveCacheTest, PatchAcceptsBindingMoveAndTierFlip) {
  PatchRegion region;
  const RegionTopology& topo = region.region.fleet.topology;
  const std::vector<std::pair<const char*, std::function<void(ServerSolveState&)>>> edits = {
      {"in_use tier", [](ServerSolveState& server) { server.in_use = true; }},
      {"binding", [&region](ServerSolveState& server) {
         server.current = region.base.reservations[2].id;
       }},
      {"release", [](ServerSolveState& server) { server.current = kUnassigned; }},
  };
  const SolverConfig config;
  for (const PhaseShape& phase : Phases()) {
    const std::vector<EquivalenceClass> classes = phase.Classes(region.base);
    const BuiltModel built =
        BuildRasModel(region.base, classes, config, phase.include_rack_spread, phase.subset);
    for (const auto& [name, edit] : edits) {
      SCOPED_TRACE(std::string(phase.name) + " / " + name);
      SolveInput next = region.base;
      for (size_t s = 0; s < next.servers.size(); ++s) {
        if (topo.server(static_cast<ServerId>(s)).msb == 1) {
          edit(next.servers[s]);
        }
      }
      const std::vector<EquivalenceClass> next_classes = phase.Classes(next);
      BuiltModel patched = built;
      ASSERT_TRUE(SetRoundBounds(patched, next, next_classes, config, phase.include_rack_spread,
                                 phase.subset));
      EXPECT_TRUE(patched.model.compressed_cache_valid());
      ExpectBuiltModelsEqual(
          patched,
          BuildRasModel(next, next_classes, config, phase.include_rack_spread, phase.subset));
      EXPECT_FALSE(SameBounds(built.model, patched.model));
    }
  }
}

// Phase-2 shape: the same classes and reservations, another subset of the
// same size. The subset decides which reservations have rows at all.
TEST(ResolveCacheTest, PatchRefusesAnotherSubsetOfEqualSize) {
  PatchRegion region;
  const PhaseShape& phase2 = Phases()[1];
  const std::vector<EquivalenceClass> classes = phase2.Classes(region.base);
  BuiltModel built = BuildRasModel(region.base, classes, SolverConfig(),
                                   phase2.include_rack_spread, phase2.subset);
  const BuiltModel before = built;
  const std::vector<int> other = {0, 2};
  ASSERT_EQ(other.size(), phase2.subset.size());
  EXPECT_FALSE(SetRoundBounds(built, region.base, classes, SolverConfig(),
                              phase2.include_rack_spread, other));
  ExpectBuiltModelsEqual(built, before);
  EXPECT_TRUE(SetRoundBounds(built, region.base, classes, SolverConfig(),
                             phase2.include_rack_spread, phase2.subset));
}

// Unchanged snapshots patch, and they are the only ones the round memo
// replays: its key compares every field, not only those that shape the model.
TEST(ResolveCacheTest, IdenticalSnapshotPatchesAndKeysTheMemo) {
  PatchRegion region;
  for (const PhaseShape& phase : Phases()) {
    SCOPED_TRACE(phase.name);
    const BuiltModel built = BuildRasModel(region.base, phase.Classes(region.base), SolverConfig(),
                                           phase.include_rack_spread, phase.subset);
    EXPECT_TRUE(Patches(built, region.base, phase));
  }
  SolveInput next = region.base;
  EXPECT_TRUE(next == region.base);
  next.reservations[0].name = "renamed";  // Invisible to the model.
  EXPECT_FALSE(next == region.base);
  next = region.base;
  next.servers[0].in_use = !next.servers[0].in_use;
  EXPECT_FALSE(next == region.base);
}

// Sizes patch; a value-table change alters coefficients and is refused.
TEST(ResolveCacheTest, ResizePatchesRestructureIsRefused) {
  PatchRegion region;
  for (const PhaseShape& phase : Phases()) {
    SCOPED_TRACE(phase.name);
    const BuiltModel built = BuildRasModel(region.base, phase.Classes(region.base), SolverConfig(),
                                           phase.include_rack_spread, phase.subset);
    SolveInput resized = region.base;
    resized.reservations[1].capacity_rru = 14;
    EXPECT_TRUE(Patches(built, resized, phase));
    SolveInput restructured = region.base;
    restructured.reservations[1].rru_per_type[0] = 2.0;
    EXPECT_FALSE(Patches(built, restructured, phase));
  }
}

// Adding or removing a reservation changes the layout either way round.
TEST(ResolveCacheTest, ReservationChurnIsRefused) {
  TestRegion region;
  ASSERT_TRUE(region.registry.Create(AnyTypeReservation(region.fleet.catalog, "a", 10)).ok());
  SolveInput fewer = region.Snapshot();
  ASSERT_TRUE(region.registry.Create(AnyTypeReservation(region.fleet.catalog, "b", 5)).ok());
  SolveInput more = region.Snapshot();
  const PhaseShape& phase1 = Phases()[0];
  const SolverConfig config;
  EXPECT_FALSE(Patches(BuildRasModel(fewer, phase1.Classes(fewer), config, false), more, phase1));
  EXPECT_FALSE(Patches(BuildRasModel(more, phase1.Classes(more), config, false), fewer, phase1));
}

// A snapshot of another region object is refused even when its contents are
// identical.
TEST(ResolveCacheTest, DifferentRegionObjectsAreRefused) {
  TestRegion a;
  TestRegion b;
  const SolveInput input_a = a.Snapshot();
  const SolveInput input_b = b.Snapshot();
  EXPECT_FALSE(input_a == input_b);
  const PhaseShape& phase1 = Phases()[0];
  const BuiltModel built = BuildRasModel(input_a, phase1.Classes(input_a), SolverConfig(), false);
  EXPECT_TRUE(Patches(built, input_a, phase1));
  EXPECT_FALSE(Patches(built, input_b, phase1));
}

// Which reservation fields are layout and which are bounds.
TEST(ResolveCacheTest, ReservationStructureSemantics) {
  PatchRegion region;
  const PhaseShape& phase1 = Phases()[0];
  const BuiltModel built = BuildRasModel(region.base, phase1.Classes(region.base), SolverConfig(),
                                         phase1.include_rack_spread, phase1.subset);
  const BoundEdit cases[] = {
      // Size-only changes keep the layout.
      {"capacity_and_theta",
       [](SolveInput& in, const std::vector<EquivalenceClass>&) {
         in.reservations[1].capacity_rru = 20;
         in.reservations[1].affinity_theta = 0.1;
       }},
      {"quorum_magnitude",
       [](SolveInput& in, const std::vector<EquivalenceClass>&) {
         in.reservations[2].max_msb_fraction_hard = 0.5;
       }},
      {"affinity_share",
       [](SolveInput& in, const std::vector<EquivalenceClass>&) {
         in.reservations[1].dc_affinity[0] = 0.4;
       }},
      // Row-adding changes do not.
      {"quorum_cap_appears",
       [](SolveInput& in, const std::vector<EquivalenceClass>&) {
         in.reservations[0].max_msb_fraction_hard = 0.33;
       }},
      {"affinity_key_appears",
       [](SolveInput& in, const std::vector<EquivalenceClass>&) {
         in.reservations[0].dc_affinity[0] = 0.6;
       }},
      {"buffer_flag_flips",
       [](SolveInput& in, const std::vector<EquivalenceClass>&) {
         in.reservations[0].needs_correlated_buffer = false;
       }},
  };
  const bool expected[] = {true, true, true, false, false, false};
  for (size_t k = 0; k < std::size(cases); ++k) {
    SCOPED_TRACE(cases[k].name);
    SolveInput next = region.base;
    cases[k].apply(next, {});
    EXPECT_EQ(Patches(built, next, phase1), expected[k]);
  }
}

// Class membership is bounds: a class that shrinks keeps its key. A class
// that vanishes, or appears, changes the layout.
TEST(ResolveCacheTest, ClassLayoutIgnoresMembership) {
  TestRegion region;
  const SolveInput prev = region.Snapshot();
  const PhaseShape& phase1 = Phases()[0];
  const std::vector<EquivalenceClass> classes = phase1.Classes(prev);
  const BuiltModel built = BuildRasModel(prev, classes, SolverConfig(), false);

  const EquivalenceClass* populous = nullptr;
  const EquivalenceClass* singleton = nullptr;
  for (const EquivalenceClass& cls : classes) {
    (cls.count() >= 2 ? populous : singleton) = &cls;
  }
  ASSERT_NE(populous, nullptr);
  SolveInput shrunk = prev;
  shrunk.servers[populous->servers[0]].available = false;
  EXPECT_TRUE(Patches(built, shrunk, phase1));

  SolveInput vanished = prev;
  for (ServerId id : (singleton != nullptr ? singleton : populous)->servers) {
    vanished.servers[id].available = false;
  }
  EXPECT_FALSE(Patches(built, vanished, phase1));
  const BuiltModel without = BuildRasModel(vanished, phase1.Classes(vanished), SolverConfig(),
                                           false);
  EXPECT_FALSE(Patches(without, prev, phase1));
}

}  // namespace
}  // namespace ras
