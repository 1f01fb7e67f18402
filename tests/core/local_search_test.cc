#include "src/core/local_search.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "src/core/buffer_policy.h"
#include "src/core/initial_assignment.h"
#include "src/core/rru.h"
#include "src/fleet/fleet_gen.h"
#include "src/fleet/service_profile.h"
#include "src/util/rng.h"

namespace ras {
namespace {

struct SearchEnv {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;

  explicit SearchEnv(const FleetOptions& options = Options())
      : fleet(GenerateFleet(options)) {
    broker = std::make_unique<ResourceBroker>(&fleet.topology);
  }

  static FleetOptions Options() {
    FleetOptions opts;
    opts.num_datacenters = 2;
    opts.msbs_per_datacenter = 3;
    opts.racks_per_msb = 4;
    opts.servers_per_rack = 8;
    return opts;  // 192 servers.
  }
  // The fleet of the scaling benches' smallest region (bench/sweep_common.h,
  // scale 0): 480 servers.
  static FleetOptions SweepFleetOptions() {
    FleetOptions opts;
    opts.num_datacenters = 2;
    opts.msbs_per_datacenter = 3;
    opts.racks_per_msb = 8;
    opts.servers_per_rack = 10;
    opts.seed = 5150;
    return opts;
  }

  ReservationId Add(const std::string& name, double capacity) {
    return Add(name, capacity, std::vector<double>(fleet.catalog.size(), 1.0));
  }
  ReservationId Add(const std::string& name, double capacity, std::vector<double> rru_per_type) {
    ReservationSpec spec;
    spec.name = name;
    spec.capacity_rru = capacity;
    spec.rru_per_type = std::move(rru_per_type);
    return *registry.Create(spec);
  }

  struct Built {
    SolveInput input;
    std::vector<EquivalenceClass> classes;
    BuiltModel built;
  };
  Built Prepare() {
    Built b;
    b.input = SnapshotSolveInput(*broker, registry, fleet.catalog);
    b.classes = BuildEquivalenceClasses(b.input, Scope::kMsb);
    b.built = BuildRasModel(b.input, b.classes, SolverConfig(), false);
    return b;
  }
};

// The shared buffers and `num_services` paper-profile services sized at
// `fill` RRU per server in all, drawn as bench/sweep_common.h's SweepRegion
// draws them.
void AddPaperServices(SearchEnv& env, int num_services, double fill) {
  EnsureSharedBuffers(env.registry, env.fleet.topology, env.fleet.catalog, 0.02);
  Rng rng(4242);
  const auto profiles = MakePaperServiceProfiles();
  const double budget = static_cast<double>(env.fleet.topology.num_servers()) * fill;
  for (int i = 0; i < num_services; ++i) {
    env.Add("svc-" + std::to_string(i), rng.Uniform(0.5, 1.5) * budget / num_services,
            BuildRruVector(env.fleet.catalog, profiles[static_cast<size_t>(i) % profiles.size()]));
  }
}

// The polish's incremental objective equals the model's objective at the
// corresponding MakeWarmStart point: on a greedy start and after a search;
// on a (class, reservation) pair holding both movement tiers, with partial
// release and acquisition; and on a phase-2 model, less exactly the model's
// rack-spread penalty, which the polish does not score.
TEST(LocalSearchTest, ObjectiveMatchesModelEvaluation) {
  auto expect_objective = [](const SearchEnv::Built& b, const std::vector<double>& counts,
                             double objective) {
    const double model =
        b.built.model.Objective(MakeWarmStart(b.input, b.classes, b.built, counts));
    EXPECT_NEAR(objective, model, 1e-6 * (1 + std::fabs(model)));
  };
  {
    SCOPED_TRACE("greedy start and search");
    SearchEnv env;
    env.Add("a", 25);
    env.Add("b", 20);
    auto b = env.Prepare();
    auto counts = BuildInitialCounts(b.input, b.classes, b.built);
    LocalSearchResult result = LocalSearchOptimize(b.input, b.classes, b.built, counts);
    expect_objective(b, counts, result.initial_objective);
    expect_objective(b, result.counts, result.final_objective);
  }
  {
    SCOPED_TRACE("both tiers, partial release and acquisition");
    SearchEnv env;
    ReservationId a = env.Add("a", 25);
    env.Add("b", 20);
    const auto unbound = env.Prepare();
    const EquivalenceClass& big = *std::max_element(
        unbound.classes.begin(), unbound.classes.end(),
        [](const auto& x, const auto& y) { return x.count() < y.count(); });
    ASSERT_GE(big.count(), 8u);
    // a holds five servers of the class: three idle, two in use.
    const std::vector<ServerId> members = big.servers;
    for (size_t i = 0; i < 5; ++i) {
      env.broker->SetCurrent(members[i], a);
      env.broker->SetHasContainers(members[i], i >= 3);
    }
    auto b = env.Prepare();
    std::vector<double> counts = b.built.initial_counts;
    const SolverConfig config;
    int pairs = 0;
    for (size_t k = 0; k < counts.size(); ++k) {
      const auto& av = b.built.assignment_vars[k];
      if (b.classes[static_cast<size_t>(av.class_index)].servers != members) {
        continue;
      }
      ++pairs;
      if (b.input.reservations[static_cast<size_t>(av.reservation_index)].id == a) {
        ASSERT_EQ(b.built.initial_counts[k], 5.0);
        ASSERT_EQ(b.built.initial_in_use[k], 2.0);
        counts[k] = 1.0;  // Releases all three idle servers and one in use.
        EXPECT_EQ(b.built.MoveCost(k, 1.0),
                  3 * config.move_cost_idle + 1 * config.move_cost_in_use);
      } else {
        counts[k] = 3.0;  // Acquires three.
        EXPECT_EQ(b.built.MoveCost(k, 3.0), 3 * config.acquire_cost);
      }
    }
    ASSERT_EQ(pairs, 2);
    LocalSearchOptions options;
    options.max_priced_moves = 0;
    expect_objective(b, counts,
                     LocalSearchOptimize(b.input, b.classes, b.built, counts, options)
                         .initial_objective);
    LocalSearchResult result = LocalSearchOptimize(b.input, b.classes, b.built, counts);
    expect_objective(b, result.counts, result.final_objective);
  }
  {
    SCOPED_TRACE("phase 2: the rack-spread penalty is the documented gap");
    SearchEnv env;
    ReservationId a = env.Add("a", 30);
    env.Add("b", 20);
    // a crowds one rack, far above its rack-spread threshold.
    const RegionTopology& topo = env.fleet.topology;
    for (ServerId id = 0; id < topo.num_servers(); ++id) {
      if (topo.server(id).rack == 0) {
        env.broker->SetCurrent(id, a);
      }
    }
    SearchEnv::Built b;
    b.input = SnapshotSolveInput(*env.broker, env.registry, env.fleet.catalog);
    const std::unordered_set<ReservationId> subset_ids = {a};
    ClassFilter filter;
    filter.reservations = &subset_ids;
    b.classes = BuildEquivalenceClasses(b.input, Scope::kRack, filter);
    b.built = BuildRasModel(b.input, b.classes, SolverConfig(), /*include_rack_spread=*/true,
                            {b.input.ReservationIndex(a)});
    ASSERT_FALSE(b.built.rack_spread_terms.empty());
    auto rack_penalty = [&b](const std::vector<double>& counts) {
      const std::vector<double> x = MakeWarmStart(b.input, b.classes, b.built, counts);
      double penalty = 0.0;
      for (const auto& term : b.built.rack_spread_terms) {
        penalty += b.built.model.variable(term.var).cost * x[term.var];
      }
      return penalty;
    };
    const std::vector<double> counts = BuildInitialCounts(b.input, b.classes, b.built);
    LocalSearchResult result = LocalSearchOptimize(b.input, b.classes, b.built, counts);
    EXPECT_GT(rack_penalty(counts), 0.0);
    for (const auto& [point, objective] :
         {std::pair{counts, result.initial_objective},
          std::pair{result.counts, result.final_objective}}) {
      const double model =
          b.built.model.Objective(MakeWarmStart(b.input, b.classes, b.built, point));
      EXPECT_NEAR(objective, model - rack_penalty(point), 1e-6 * (1 + std::fabs(model)));
    }
  }
}

TEST(LocalSearchTest, NeverWorsensAndUsuallyImproves) {
  SearchEnv env;
  ReservationId a = env.Add("a", 30);
  // A deliberately bad start: everything concentrated in MSB 0.
  for (ServerId id : env.fleet.topology.ServersInMsb(0)) {
    env.broker->SetCurrent(id, a);
  }
  auto b = env.Prepare();
  auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  LocalSearchResult result = LocalSearchOptimize(b.input, b.classes, b.built, counts);
  EXPECT_LE(result.final_objective, result.initial_objective + 1e-6);
  // The concentrated start has huge spread/buffer costs; search must fix it.
  EXPECT_LT(result.final_objective, result.initial_objective * 0.8);
  EXPECT_GT(result.accepted, 0);
}

TEST(LocalSearchTest, ResultRespectsSupplyAndFeasibility) {
  SearchEnv env;
  env.Add("a", 35);
  env.Add("b", 25);
  auto b = env.Prepare();
  auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  LocalSearchResult result = LocalSearchOptimize(b.input, b.classes, b.built, counts);
  std::vector<double> used(b.classes.size(), 0.0);
  for (size_t k = 0; k < result.counts.size(); ++k) {
    EXPECT_GE(result.counts[k], -1e-9);
    used[static_cast<size_t>(b.built.assignment_vars[k].class_index)] += result.counts[k];
  }
  for (size_t c = 0; c < b.classes.size(); ++c) {
    EXPECT_LE(used[c], static_cast<double>(b.classes[c].count()) + 1e-9);
  }
  auto warm = MakeWarmStart(b.input, b.classes, b.built, result.counts);
  EXPECT_TRUE(b.built.model.IsFeasible(warm, 1e-6));
}

// The cap stops the descent at the same priced move on every run, with an
// answer no worse than the start; a cap inside the first pricing pass
// returns the start itself.
TEST(LocalSearchTest, CapStopsTheDescentAtTheSamePricedMove) {
  SearchEnv env;
  ReservationId a = env.Add("a", 30);
  for (ServerId id : env.fleet.topology.ServersInMsb(0)) {
    env.broker->SetCurrent(id, a);
  }
  auto b = env.Prepare();
  auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  const LocalSearchResult full = LocalSearchOptimize(b.input, b.classes, b.built, counts);
  ASSERT_TRUE(full.local_optimum);
  ASSERT_GE(full.accepted, 4);

  LocalSearchOptions options;
  options.max_priced_moves = full.priced_moves / 2;
  const LocalSearchResult cut = LocalSearchOptimize(b.input, b.classes, b.built, counts, options);
  EXPECT_EQ(cut.priced_moves, options.max_priced_moves);
  EXPECT_FALSE(cut.local_optimum);
  EXPECT_GT(cut.accepted, 0);
  EXPECT_LT(cut.accepted, full.accepted);
  EXPECT_LE(cut.final_objective, cut.initial_objective);
  EXPECT_GT(cut.final_objective, full.final_objective);

  const LocalSearchResult again =
      LocalSearchOptimize(b.input, b.classes, b.built, counts, options);
  EXPECT_EQ(again.priced_moves, cut.priced_moves);
  EXPECT_EQ(again.accepted, cut.accepted);
  EXPECT_EQ(again.counts, cut.counts);
  EXPECT_EQ(again.final_objective, cut.final_objective);

  options.max_priced_moves = 10;
  const LocalSearchResult first_pass =
      LocalSearchOptimize(b.input, b.classes, b.built, counts, options);
  EXPECT_EQ(first_pass.accepted, 0);
  EXPECT_EQ(first_pass.counts, counts);
}

// A descent started at a local optimum prices every move, accepts none, and
// returns the state bit for bit: each rejected move is restored exactly.
TEST(LocalSearchTest, RejectedMovesRestoreTheStateExactly) {
  SearchEnv env;
  // Non-dyadic values: V * step is inexact, so undoing a rejected move by
  // subtracting it again would leave the aggregates a few ULPs off.
  std::vector<double> rru(env.fleet.catalog.size());
  for (size_t t = 0; t < rru.size(); ++t) {
    rru[t] = t % 2 == 0 ? 0.7 : 1.3;
  }
  ReservationId a = env.Add("a", 20, rru);
  ReservationId b = env.Add("b", 14, rru);
  // Nonzero starting aggregates: each reservation already holds servers in
  // every MSB.
  for (MsbId msb = 0; msb < env.fleet.topology.num_msbs(); ++msb) {
    const auto servers = env.fleet.topology.ServersInMsb(msb);
    for (size_t i = 0; i < 6; ++i) {
      env.broker->SetCurrent(servers[i], i < 4 ? a : b);
    }
  }
  auto built = env.Prepare();
  auto counts = LocalSearchOptimize(built.input, built.classes, built.built,
                                    BuildInitialCounts(built.input, built.classes, built.built))
                    .counts;
  LocalSearchResult result =
      LocalSearchOptimize(built.input, built.classes, built.built, counts);
  ASSERT_EQ(result.accepted, 0);
  EXPECT_TRUE(result.local_optimum);
  EXPECT_GT(result.priced_moves, 0);
  EXPECT_EQ(result.final_objective, result.initial_objective);
  EXPECT_EQ(result.counts, counts);
}

// On a region far short of supply the objective is dominated by 1e6-per-RRU
// shortfall slack (about 5e8 here; a region's first rounds reach 6e7-3e8),
// so the incremental sums' rounding noise is well above any fixed threshold
// like 1e-9: moving RRU between short reservations prices as a gain of a
// few ULPs. The relative tolerance rejects those, so the descent ends far
// below its cap and every accepted move lowers the from-scratch objective.
TEST(LocalSearchTest, RoundingNoiseIsNotAGain) {
  SearchEnv env(SearchEnv::SweepFleetOptions());
  AddPaperServices(env, 6, 2.5);
  auto b = env.Prepare();
  const auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  const LocalSearchResult full = LocalSearchOptimize(b.input, b.classes, b.built, counts);
  ASSERT_GT(full.final_objective, 1e8);
  EXPECT_TRUE(full.local_optimum);
  EXPECT_GT(full.accepted, 0);
  EXPECT_LT(full.priced_moves, LocalSearchOptions().max_priced_moves / 100);

  // The state after exactly `accepts` accepted moves: the smallest cap whose
  // run accepts that many.
  LocalSearchOptions options;
  int64_t cap = 0;
  double previous = full.initial_objective;
  for (int64_t accepts = 1; accepts <= full.accepted; ++accepts) {
    int64_t hi = full.priced_moves;
    while (cap < hi) {
      options.max_priced_moves = (cap + hi) / 2;
      if (LocalSearchOptimize(b.input, b.classes, b.built, counts, options).accepted >= accepts) {
        hi = options.max_priced_moves;
      } else {
        cap = options.max_priced_moves + 1;
      }
    }
    options.max_priced_moves = cap;
    const double objective =
        LocalSearchOptimize(b.input, b.classes, b.built, counts, options).final_objective;
    EXPECT_LT(objective, previous - 1e-12 * previous) << "accepted move " << accepts;
    previous = objective;
  }
}

// Phase-1 objective of `counts`, priced by the model itself.
double ModelObjective(const SearchEnv::Built& b, const std::vector<double>& counts) {
  return b.built.model.Objective(MakeWarmStart(b.input, b.classes, b.built, counts));
}

// Checks by enumeration, on the model's own objective, that no move of the
// move set improves `counts`: every variable's release and acquisition, its
// transfer to each sibling and its relocation to each variable of its
// reservation whose class has a spare unit, at steps 1, 2, 4 and 8.
void ExpectNoImprovingMove(const SearchEnv::Built& b, const std::vector<double>& counts) {
  const double objective = ModelObjective(b, counts);
  std::vector<double> used(b.classes.size(), 0.0);
  std::vector<std::vector<size_t>> res_vars(b.input.reservations.size());
  for (size_t k = 0; k < counts.size(); ++k) {
    const auto& av = b.built.assignment_vars[k];
    used[static_cast<size_t>(av.class_index)] += counts[k];
    res_vars[static_cast<size_t>(av.reservation_index)].push_back(k);
  }
  auto spare = [&](size_t k) {
    const size_t c = static_cast<size_t>(b.built.assignment_vars[k].class_index);
    return static_cast<double>(b.classes[c].count()) - used[c];
  };
  int64_t checked = 0;
  auto check = [&](size_t k, size_t k2, double amount) {
    if (amount == 0.0) {
      return;
    }
    std::vector<double> moved = counts;
    moved[k] += amount;
    moved[k2] -= k2 == k ? 0.0 : amount;
    ++checked;
    EXPECT_GE(ModelObjective(b, moved), objective * (1 - 1e-12))
        << "variable " << k << " partner " << k2 << " amount " << amount;
  };
  for (size_t k = 0; k < counts.size(); ++k) {
    const double held = counts[k];
    const size_t c = static_cast<size_t>(b.built.assignment_vars[k].class_index);
    const size_t r = static_cast<size_t>(b.built.assignment_vars[k].reservation_index);
    for (double step : {1.0, 2.0, 4.0, 8.0}) {
      check(k, k, spare(k) >= 1.0 ? std::min(step, spare(k)) : 0.0);
      if (held < 1.0) {
        continue;
      }
      check(k, k, -std::min(step, held));
      for (int k2 : b.built.class_to_vars[c]) {
        if (static_cast<size_t>(k2) != k) {
          check(k, static_cast<size_t>(k2), -std::min(step, held));
        }
      }
      for (size_t k2 : res_vars[r]) {
        if (k2 != k && spare(k2) >= 1.0) {
          check(k, k2, -std::min({step, held, spare(k2)}));
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

TEST(LocalSearchTest, DescentEndsAtALocalOptimum) {
  {
    SCOPED_TRACE("192-server region");
    SearchEnv env;
    env.Add("a", 35);
    env.Add("b", 25);
    auto b = env.Prepare();
    const LocalSearchResult result = LocalSearchOptimize(
        b.input, b.classes, b.built, BuildInitialCounts(b.input, b.classes, b.built));
    ASSERT_TRUE(result.local_optimum);
    ExpectNoImprovingMove(b, result.counts);
  }
  {
    SCOPED_TRACE("SweepRegion(0)-shaped region");
    SearchEnv env(SearchEnv::SweepFleetOptions());
    AddPaperServices(env, 8, 0.7);
    const SolveInput probe = SnapshotSolveInput(*env.broker, env.registry, env.fleet.catalog);
    for (ServerId id = 0; id < env.broker->num_servers(); ++id) {
      if (id % 5 < 3) {
        env.broker->SetCurrent(id, probe.reservations[id % probe.reservations.size()].id);
      }
    }
    auto b = env.Prepare();
    const LocalSearchResult result = LocalSearchOptimize(
        b.input, b.classes, b.built, BuildInitialCounts(b.input, b.classes, b.built));
    ASSERT_TRUE(result.local_optimum);
    EXPECT_GT(result.accepted, 0);
    ExpectNoImprovingMove(b, result.counts);
  }
}

}  // namespace
}  // namespace ras
