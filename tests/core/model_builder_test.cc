#include "src/core/model_builder.h"

#include <gtest/gtest.h>

#include "src/core/initial_assignment.h"
#include "src/fleet/fleet_gen.h"

namespace ras {
namespace {

struct BuilderEnv {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;

  BuilderEnv() : fleet(GenerateFleet(Options())) {
    broker = std::make_unique<ResourceBroker>(&fleet.topology);
  }

  static FleetOptions Options() {
    FleetOptions opts;
    opts.num_datacenters = 2;
    opts.msbs_per_datacenter = 2;
    opts.racks_per_msb = 4;
    opts.servers_per_rack = 6;
    return opts;  // 96 servers.
  }

  ReservationId AddReservation(const std::string& name, double capacity) {
    ReservationSpec spec;
    spec.name = name;
    spec.capacity_rru = capacity;
    spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
    return *registry.Create(spec);
  }

  SolveInput Snapshot() { return SnapshotSolveInput(*broker, registry, fleet.catalog); }
};

TEST(ModelBuilderTest, VariableAndRowCountsSane) {
  BuilderEnv s;
  s.AddReservation("a", 20);
  s.AddReservation("b", 10);
  SolveInput input = s.Snapshot();
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  SolverConfig config;
  BuiltModel built = BuildRasModel(input, classes, config, false);

  // One n-var per (class, compatible reservation): both accept every type.
  EXPECT_EQ(built.num_assignment_variables(), classes.size() * 2);
  EXPECT_EQ(built.shortfall_vars.size(), 2u);
  EXPECT_NE(built.shortfall_vars[0], kNoVar);
  EXPECT_NE(built.buffer_vars[0], kNoVar);  // Guaranteed reservations are buffered.
  EXPECT_GT(built.model.num_rows(), classes.size());  // Supply + capacity + spread...
  EXPECT_GT(built.ModelMemoryBytes(), 0u);
}

TEST(ModelBuilderTest, WarmStartIsFeasible) {
  BuilderEnv s;
  s.AddReservation("a", 25);
  s.AddReservation("b", 15);
  SolveInput input = s.Snapshot();
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  SolverConfig config;
  BuiltModel built = BuildRasModel(input, classes, config, false);
  auto counts = BuildInitialCounts(input, classes, built);
  auto warm = MakeWarmStart(input, classes, built, counts);
  EXPECT_TRUE(built.model.IsFeasible(warm, 1e-6));
}

TEST(ModelBuilderTest, WarmStartCoversCapacityWhenPossible) {
  BuilderEnv s;
  ReservationId id = s.AddReservation("a", 30);
  SolveInput input = s.Snapshot();
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  SolverConfig config;
  BuiltModel built = BuildRasModel(input, classes, config, false);
  auto counts = BuildInitialCounts(input, classes, built);
  auto warm = MakeWarmStart(input, classes, built, counts);
  // Shortfall slack should be zero: the region easily fits 30 + buffer.
  int r = input.ReservationIndex(id);
  ASSERT_GE(r, 0);
  EXPECT_NEAR(warm[built.shortfall_vars[r]], 0.0, 1e-6);
}

TEST(ModelBuilderTest, WarmStartReportsShortfallWhenImpossible) {
  BuilderEnv s;
  ReservationId id = s.AddReservation("huge", 100000);
  SolveInput input = s.Snapshot();
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  SolverConfig config;
  BuiltModel built = BuildRasModel(input, classes, config, false);
  auto counts = BuildInitialCounts(input, classes, built);
  auto warm = MakeWarmStart(input, classes, built, counts);
  int r = input.ReservationIndex(id);
  EXPECT_GT(warm[built.shortfall_vars[r]], 1000.0);
  EXPECT_TRUE(built.model.IsFeasible(warm, 1e-6));  // Still feasible: softened.
}

TEST(ModelBuilderTest, StabilityTermPenalizesMoveOut) {
  BuilderEnv s;
  ReservationId id = s.AddReservation("a", 10);
  // Bind 20 servers with containers, spread across the 4 MSBs (24 servers
  // each) so the embedded-buffer term does not swallow the capacity.
  for (int i = 0; i < 20; ++i) {
    ServerId sid = static_cast<ServerId>((i % 4) * 24 + i / 4);
    s.broker->SetCurrent(sid, id);
    s.broker->SetHasContainers(sid, true);
  }
  SolveInput input = s.Snapshot();
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  SolverConfig config;
  BuiltModel built = BuildRasModel(input, classes, config, false);

  // Zero assignment: every held server "moves out".
  std::vector<double> zero(built.assignment_vars.size(), 0.0);
  auto warm_zero = MakeWarmStart(input, classes, built, zero);
  // Keep-everything assignment.
  auto keep = built.initial_counts;
  auto warm_keep = MakeWarmStart(input, classes, built, keep);
  double obj_zero = built.model.Objective(warm_zero);
  double obj_keep = built.model.Objective(warm_keep);
  // Moving 20 in-use servers out costs 20 * move_cost_in_use more than keeping
  // them (modulo spread/buffer deltas, which are much smaller here).
  EXPECT_GT(obj_zero - obj_keep, 10 * config.move_cost_in_use);
}

TEST(ModelBuilderTest, BufferVarTracksWorstMsb) {
  BuilderEnv s;
  ReservationId id = s.AddReservation("a", 10);
  SolveInput input = s.Snapshot();
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  SolverConfig config;
  BuiltModel built = BuildRasModel(input, classes, config, false);

  // Assign 5 servers in one class (single MSB) and check m_r == that RRU.
  std::vector<double> counts(built.assignment_vars.size(), 0.0);
  counts[0] = 5.0;
  auto warm = MakeWarmStart(input, classes, built, counts);
  int r = built.assignment_vars[0].reservation_index;
  const EquivalenceClass& cls = classes[static_cast<size_t>(built.assignment_vars[0].class_index)];
  double v = input.reservations[static_cast<size_t>(r)].ValueOfType(cls.type);
  EXPECT_NEAR(warm[built.buffer_vars[r]], 5.0 * v, 1e-9);
  EXPECT_EQ(static_cast<ReservationId>(input.reservations[static_cast<size_t>(r)].id), id);
}

TEST(ModelBuilderTest, SubsetBuildSkipsOtherReservations) {
  BuilderEnv s;
  s.AddReservation("a", 10);
  s.AddReservation("b", 10);
  SolveInput input = s.Snapshot();
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  SolverConfig config;
  BuiltModel built = BuildRasModel(input, classes, config, false, {0});
  for (const auto& av : built.assignment_vars) {
    EXPECT_EQ(av.reservation_index, 0);
  }
  EXPECT_EQ(built.shortfall_vars[1], kNoVar);
  EXPECT_EQ(built.buffer_vars[1], kNoVar);
}

TEST(ModelBuilderTest, RackSpreadOnlyInPhase2) {
  BuilderEnv s;
  s.AddReservation("a", 10);
  SolveInput input = s.Snapshot();
  auto msb_classes = BuildEquivalenceClasses(input, Scope::kMsb);
  auto rack_classes = BuildEquivalenceClasses(input, Scope::kRack);
  SolverConfig config;
  BuiltModel p1 = BuildRasModel(input, msb_classes, config, false);
  BuiltModel p2 = BuildRasModel(input, rack_classes, config, true);
  EXPECT_TRUE(p1.rack_spread_terms.empty());
  EXPECT_FALSE(p2.rack_spread_terms.empty());
  EXPECT_FALSE(p2.msb_spread_terms.empty());  // Phase 2 keeps phase-1 goals.
}

TEST(ModelBuilderTest, SharedBufferReservationHasNoBufferVar) {
  BuilderEnv s;
  ReservationSpec buffer;
  buffer.name = "shared-buffer";
  buffer.capacity_rru = 5;
  buffer.rru_per_type.assign(s.fleet.catalog.size(), 0.0);
  buffer.rru_per_type[0] = 1.0;
  buffer.needs_correlated_buffer = false;
  buffer.is_shared_random_buffer = true;
  ASSERT_TRUE(s.registry.Create(buffer).ok());
  SolveInput input = s.Snapshot();
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built = BuildRasModel(input, classes, SolverConfig(), false);
  EXPECT_EQ(built.buffer_vars[0], kNoVar);
}

// Property sweep: random fleets, random reservation mixes (including
// storage quorums, affinity, restricted hardware, pre-existing bindings and
// failures) must always yield a feasible warm start — the invariant the
// whole softened-constraint design exists to guarantee.
class ModelBuilderPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ModelBuilderPropertyTest, WarmStartAlwaysFeasible) {
  Rng rng(7700 + GetParam());
  FleetOptions opts;
  opts.num_datacenters = 1 + static_cast<int>(rng.UniformInt(1, 2));
  opts.msbs_per_datacenter = static_cast<int>(rng.UniformInt(2, 4));
  opts.racks_per_msb = static_cast<int>(rng.UniformInt(2, 5));
  opts.servers_per_rack = static_cast<int>(rng.UniformInt(4, 8));
  opts.seed = 7000 + static_cast<uint64_t>(GetParam());
  Fleet fleet = GenerateFleet(opts);
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;

  int num_res = static_cast<int>(rng.UniformInt(1, 6));
  for (int i = 0; i < num_res; ++i) {
    ReservationSpec spec;
    spec.name = "svc-" + std::to_string(i);
    // Deliberately allow oversized requests: feasibility must hold anyway.
    spec.capacity_rru =
        rng.Uniform(1, 0.8 * static_cast<double>(fleet.topology.num_servers()));
    spec.rru_per_type.assign(fleet.catalog.size(), 0.0);
    int accepted = 0;
    for (size_t t = 0; t < fleet.catalog.size(); ++t) {
      if (rng.Bernoulli(0.5)) {
        spec.rru_per_type[t] = rng.Uniform(0.5, 3.0);
        ++accepted;
      }
    }
    if (accepted == 0) {
      spec.rru_per_type[0] = 1.0;
    }
    if (rng.Bernoulli(0.3)) {
      spec.dc_affinity[static_cast<DatacenterId>(
          rng.UniformInt(0, fleet.topology.num_datacenters() - 1))] = rng.Uniform(0.2, 1.3);
    }
    if (rng.Bernoulli(0.3)) {
      spec.max_msb_fraction_hard = rng.Uniform(0.15, 0.6);
      spec.is_storage = true;
    }
    auto id = registry.Create(spec);
    ASSERT_TRUE(id.ok());
    // Random pre-bindings and in-use flags.
    for (ServerId s = 0; s < broker.num_servers(); ++s) {
      if (broker.record(s).current == kUnassigned && rng.Bernoulli(0.1)) {
        broker.SetCurrent(s, *id);
        broker.SetHasContainers(s, rng.Bernoulli(0.5));
      }
    }
  }
  // Random failures and maintenance.
  for (ServerId s = 0; s < broker.num_servers(); ++s) {
    double draw = rng.NextDouble();
    if (draw < 0.05) {
      broker.SetUnavailability(s, Unavailability::kUnplannedHardware);
    } else if (draw < 0.12) {
      broker.SetUnavailability(s, Unavailability::kPlannedMaintenance);
    }
  }

  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  for (Scope scope : {Scope::kMsb, Scope::kRack}) {
    auto classes = BuildEquivalenceClasses(input, scope);
    SolverConfig config;
    BuiltModel built = BuildRasModel(input, classes, config, scope == Scope::kRack);
    auto counts = BuildInitialCounts(input, classes, built);
    auto warm = MakeWarmStart(input, classes, built, counts);
    EXPECT_TRUE(built.model.IsFeasible(warm, 1e-6))
        << "case " << GetParam() << " scope " << static_cast<int>(scope);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ModelBuilderPropertyTest, ::testing::Range(0, 25));

}  // namespace
}  // namespace ras
