#include "src/core/model_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/core/assignment_decoder.h"
#include "src/core/buffer_policy.h"
#include "src/core/initial_assignment.h"
#include "src/core/rru.h"
#include "src/core/rru_ledger.h"
#include "src/fleet/fleet_gen.h"
#include "src/fleet/service_profile.h"
#include "src/util/rng.h"

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

// Expression (1) on (location, type) classes: any target set that releases
// a reservation's idle servers before its in-use ones scores, under
// MakeWarmStart + Model::Objective, exactly the independent per-server sum
// a binding-keyed model gives it — the RruLedger terms of the targets plus
// each moved server's move-out cost by tier and acquire cost. The region is
// bench/sweep_common.h's SweepRegion(0) (480 servers, shared buffers, eight
// paper-profile services, 60% of servers bound round-robin), with 40% of the
// bound servers in use, an affinity and a quorum cap; the target sets are
// random class counts, decoded (the decoder releases idle servers first).
TEST(ModelBuilderTest, IdleFirstTargetsScoreTheirIndependentSum) {
  FleetOptions options;
  options.num_datacenters = 2;
  options.msbs_per_datacenter = 3;
  options.racks_per_msb = 8;
  options.servers_per_rack = 10;
  options.seed = 5150;
  Fleet fleet = GenerateFleet(options);
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  EnsureSharedBuffers(registry, fleet.topology, fleet.catalog, 0.02);
  Rng rng(4242);
  const std::vector<ServiceProfile> profiles = MakePaperServiceProfiles();
  constexpr int kServices = 8;
  const double budget = static_cast<double>(fleet.topology.num_servers()) * 0.7;
  for (int i = 0; i < kServices; ++i) {
    ReservationSpec spec;
    spec.name = "svc-" + std::to_string(i);
    spec.capacity_rru = rng.Uniform(0.5, 1.5) * budget / kServices;
    spec.rru_per_type = BuildRruVector(fleet.catalog, profiles[i % profiles.size()]);
    if (i == 0) {
      spec.dc_affinity[0] = 0.6;
      spec.dc_affinity[1] = 0.4;
    } else if (i == 1) {
      spec.is_storage = true;
      spec.max_msb_fraction_hard = 0.3;
    }
    ASSERT_TRUE(registry.Create(spec).ok());
  }
  const SolveInput probe = SnapshotSolveInput(broker, registry, fleet.catalog);
  for (ServerId id = 0; id < broker.num_servers(); ++id) {
    if (id % 5 < 3) {
      broker.SetCurrent(id, probe.reservations[id % probe.reservations.size()].id);
      broker.SetHasContainers(id, rng.Bernoulli(0.4));
    }
  }
  const SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
  const RegionTopology& topo = fleet.topology;
  const SolverConfig config;
  const auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  const BuiltModel built = BuildRasModel(input, classes, config, false);

  auto independent_sum = [&](const std::vector<std::pair<ServerId, ReservationId>>& targets) {
    const RruLedger ledger = RruLedger::OfTargets(input, targets);
    double sum = 0.0;
    for (size_t r = 0; r < input.reservations.size(); ++r) {
      const ReservationSpec& spec = input.reservations[r];
      const double capacity = spec.capacity_rru;
      sum += config.capacity_soften_cost *
             std::clamp(capacity - ledger.Effective(r), 0.0, std::max(capacity, 0.0));
      sum += config.buffer_cost_tau * ledger.WorstMsb(r);
      sum += config.spread_penalty_beta *
             ledger.MsbOverflow(r, MsbSpreadThreshold(spec, config, topo));
      sum += config.hoarding_cost *
             std::max(0.0, ledger.Effective(r) - (1.0 + config.hoarding_allowance) * capacity);
      if (spec.max_msb_fraction_hard > 0.0) {
        sum += config.quorum_soften_cost *
               ledger.MsbOverflow(r, spec.max_msb_fraction_hard * capacity);
      }
      for (const auto& [dc, share] : spec.dc_affinity) {
        const RruBand band = AffinityBand(spec, share);
        const double rru = ledger.AtDc(r, dc);
        sum += config.affinity_soften_cost *
               (std::max(0.0, band.lo - rru) + std::max(0.0, rru - band.hi));
      }
    }
    for (const auto& [server, target] : targets) {
      const ServerSolveState& state = input.servers[server];
      if (target == state.current) {
        continue;
      }
      const HardwareTypeId type = topo.server(server).type;
      const int from = input.ReservationIndex(state.current);
      if (from >= 0 && input.reservations[static_cast<size_t>(from)].ValueOfType(type) > 0.0) {
        sum += state.in_use ? config.move_cost_in_use : config.move_cost_idle;
      }
      if (target != kUnassigned) {
        sum += config.acquire_cost;
      }
    }
    return sum;
  };

  Rng draw(77);
  int moved_in_use = 0;
  for (int trial = 0; trial < 20; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    // Random counts within each class's supply, around the current ones.
    std::vector<double> counts(built.assignment_vars.size(), 0.0);
    for (size_t c = 0; c < classes.size(); ++c) {
      double left = static_cast<double>(classes[c].count());
      for (int k : built.class_to_vars[c]) {
        const double x = built.initial_counts[static_cast<size_t>(k)];
        const double n = std::min(left, std::max(0.0, x + static_cast<double>(
                                                              draw.UniformInt(-4, 3))));
        counts[static_cast<size_t>(k)] = n;
        left -= n;
      }
    }
    const std::vector<double> x = MakeWarmStart(input, classes, built, counts);
    ASSERT_TRUE(built.model.IsFeasible(x, 1e-9));
    const DecodedAssignment decoded = DecodeAssignment(input, classes, built, x);
    moved_in_use += static_cast<int>(decoded.moves_in_use);
    const double model = built.model.Objective(x);
    EXPECT_NEAR(model, independent_sum(decoded.targets), 1e-9 * std::fabs(model));
  }
  EXPECT_GT(moved_in_use, 0) << "no trial released an in-use server";
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
