#include "src/core/assignment_decoder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "src/core/initial_assignment.h"
#include "src/fleet/fleet_gen.h"
#include "src/util/rng.h"

namespace ras {
namespace {

struct DecoderEnv {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;

  DecoderEnv() : fleet(GenerateFleet(Options())) {
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

  ReservationId Add(const std::string& name, double capacity) {
    ReservationSpec spec;
    spec.name = name;
    spec.capacity_rru = capacity;
    spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
    return *registry.Create(spec);
  }
};

TEST(DecoderTest, CoversEveryAvailableServerExactlyOnce) {
  DecoderEnv env;
  env.Add("a", 20);
  env.Add("b", 15);
  SolveInput input = SnapshotSolveInput(*env.broker, env.registry, env.fleet.catalog);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built = BuildRasModel(input, classes, SolverConfig(), false);
  auto counts = BuildInitialCounts(input, classes, built);
  auto warm = MakeWarmStart(input, classes, built, counts);

  DecodedAssignment decoded = DecodeAssignment(input, classes, built, warm);
  std::set<ServerId> seen;
  for (const auto& [server, res] : decoded.targets) {
    EXPECT_TRUE(seen.insert(server).second) << "server decoded twice";
  }
  EXPECT_EQ(seen.size(), env.fleet.topology.num_servers());
}

TEST(DecoderTest, QuotasMatchCounts) {
  DecoderEnv env;
  ReservationId a = env.Add("a", 20);
  SolveInput input = SnapshotSolveInput(*env.broker, env.registry, env.fleet.catalog);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built = BuildRasModel(input, classes, SolverConfig(), false);
  auto counts = BuildInitialCounts(input, classes, built);
  auto warm = MakeWarmStart(input, classes, built, counts);

  DecodedAssignment decoded = DecodeAssignment(input, classes, built, warm);
  // Per-reservation decoded counts equal the summed integer counts.
  std::map<ReservationId, long> decoded_counts;
  for (const auto& [server, res] : decoded.targets) {
    decoded_counts[res]++;
  }
  double a_total = 0;
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    if (input.reservations[static_cast<size_t>(built.assignment_vars[k].reservation_index)].id ==
        a) {
      a_total += counts[k];
    }
  }
  EXPECT_EQ(decoded_counts[a], std::lround(a_total));
}

TEST(DecoderTest, KeepsCurrentServersInPlace) {
  DecoderEnv env;
  ReservationId a = env.Add("a", 10);
  // Bind 15 servers; the decode of the initial counts must keep them.
  std::vector<ServerId> bound;
  for (ServerId id = 0; id < 15; ++id) {
    env.broker->SetCurrent(id, a);
    bound.push_back(id);
  }
  SolveInput input = SnapshotSolveInput(*env.broker, env.registry, env.fleet.catalog);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built = BuildRasModel(input, classes, SolverConfig(), false);
  // Decode X itself (keep everything): zero moves expected.
  auto warm = MakeWarmStart(input, classes, built, built.initial_counts);
  DecodedAssignment decoded = DecodeAssignment(input, classes, built, warm);
  EXPECT_EQ(decoded.moves_total, 0u);
  for (const auto& [server, res] : decoded.targets) {
    if (std::find(bound.begin(), bound.end(), server) != bound.end()) {
      EXPECT_EQ(res, a);
    } else {
      EXPECT_EQ(res, kUnassigned);
    }
  }
}

TEST(DecoderTest, MoveTiersFollowClassInUse) {
  DecoderEnv env;
  ReservationId a = env.Add("a", 5);
  // 4 idle + 4 in-use servers bound to a; then decode an assignment that
  // frees everything.
  for (ServerId id = 0; id < 8; ++id) {
    env.broker->SetCurrent(id, a);
    env.broker->SetHasContainers(id, id >= 4);
  }
  SolveInput input = SnapshotSolveInput(*env.broker, env.registry, env.fleet.catalog);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built = BuildRasModel(input, classes, SolverConfig(), false);
  std::vector<double> zero(built.assignment_vars.size(), 0.0);
  auto warm = MakeWarmStart(input, classes, built, zero);
  DecodedAssignment decoded = DecodeAssignment(input, classes, built, warm);
  EXPECT_EQ(decoded.moves_total, 8u);
  EXPECT_EQ(decoded.moves_in_use, 4u);
  EXPECT_EQ(decoded.moves_idle, 4u);
}

// The decode releases in the order Expression (1) prices: a reservation
// giving up part of a class keeps its in-use servers and releases idle ones,
// and a reservation acquiring in the same class takes those released servers
// before any free one.
TEST(DecoderTest, KeepsInUseFirstAndHandsReleasedServersToAcquirers) {
  DecoderEnv env;
  ReservationId a = env.Add("a", 5);
  ReservationId b = env.Add("b", 5);
  const SolveInput unbound = SnapshotSolveInput(*env.broker, env.registry, env.fleet.catalog);
  const auto unbound_classes = BuildEquivalenceClasses(unbound, Scope::kMsb);
  const auto big = std::max_element(
      unbound_classes.begin(), unbound_classes.end(),
      [](const auto& x, const auto& y) { return x.count() < y.count(); });
  ASSERT_GE(big->count(), 6u);
  // a holds the class's first four servers: two idle, then two in use.
  const std::vector<ServerId> members = big->servers;
  for (size_t i = 0; i < 4; ++i) {
    env.broker->SetCurrent(members[i], a);
    env.broker->SetHasContainers(members[i], i >= 2);
  }
  SolveInput input = SnapshotSolveInput(*env.broker, env.registry, env.fleet.catalog);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built = BuildRasModel(input, classes, SolverConfig(), false);
  std::vector<double> counts = built.initial_counts;
  for (size_t k = 0; k < counts.size(); ++k) {
    const auto& av = built.assignment_vars[k];
    if (classes[static_cast<size_t>(av.class_index)].servers != members) {
      continue;
    }
    const ReservationId res = input.reservations[static_cast<size_t>(av.reservation_index)].id;
    ASSERT_EQ(built.initial_counts[k], res == a ? 4.0 : 0.0);
    counts[k] = 2.0;  // a gives up two servers, b acquires two.
  }
  DecodedAssignment decoded =
      DecodeAssignment(input, classes, built, MakeWarmStart(input, classes, built, counts));
  std::map<ServerId, ReservationId> target(decoded.targets.begin(), decoded.targets.end());
  EXPECT_EQ(target[members[2]], a);
  EXPECT_EQ(target[members[3]], a);
  EXPECT_EQ(target[members[0]], b);
  EXPECT_EQ(target[members[1]], b);
  for (size_t i = 4; i < members.size(); ++i) {
    EXPECT_EQ(target[members[i]], kUnassigned) << "a free server moved";
  }
  EXPECT_EQ(decoded.moves_total, 2u);
  EXPECT_EQ(decoded.moves_in_use, 0u);
}

// Property sweep: random integral count vectors decode into consistent
// targets: per-class totals respected, every class member assigned.
class DecoderPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DecoderPropertyTest, RandomCountsDecodeConsistently) {
  DecoderEnv env;
  Rng rng(6000 + GetParam());
  ReservationId a = env.Add("a", 10);
  ReservationId b = env.Add("b", 10);
  // Random pre-bindings.
  for (ServerId id = 0; id < env.broker->num_servers(); ++id) {
    double draw = rng.NextDouble();
    if (draw < 0.2) {
      env.broker->SetCurrent(id, a);
    } else if (draw < 0.4) {
      env.broker->SetCurrent(id, b);
    }
    env.broker->SetHasContainers(id, rng.Bernoulli(0.3));
  }
  SolveInput input = SnapshotSolveInput(*env.broker, env.registry, env.fleet.catalog);
  auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built = BuildRasModel(input, classes, SolverConfig(), false);

  // Random supply-respecting integral counts.
  std::vector<double> counts(built.assignment_vars.size(), 0.0);
  for (size_t c = 0; c < classes.size(); ++c) {
    long remaining = static_cast<long>(classes[c].count());
    for (int k : built.class_to_vars[c]) {
      long take = rng.UniformInt(0, remaining);
      counts[static_cast<size_t>(k)] = static_cast<double>(take);
      remaining -= take;
    }
  }
  auto warm = MakeWarmStart(input, classes, built, counts);
  DecodedAssignment decoded = DecodeAssignment(input, classes, built, warm);

  // Every available server decoded exactly once; per-(class, reservation)
  // decoded counts match the requested counts.
  std::set<ServerId> seen;
  std::map<std::pair<int, ReservationId>, long> per_class_res;
  std::map<ServerId, int> class_of;
  for (size_t c = 0; c < classes.size(); ++c) {
    for (ServerId id : classes[c].servers) {
      class_of[id] = static_cast<int>(c);
    }
  }
  for (const auto& [server, res] : decoded.targets) {
    EXPECT_TRUE(seen.insert(server).second);
    if (res != kUnassigned) {
      per_class_res[{class_of[server], res}]++;
    }
  }
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    const auto& av = built.assignment_vars[k];
    ReservationId res = input.reservations[static_cast<size_t>(av.reservation_index)].id;
    long actual = per_class_res[std::make_pair(av.class_index, res)];
    EXPECT_EQ(actual, std::lround(counts[k]))
        << "class " << av.class_index << " res " << res;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DecoderPropertyTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace ras
