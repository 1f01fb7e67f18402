#include "src/core/local_search.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "src/core/initial_assignment.h"
#include "src/fleet/fleet_gen.h"

namespace ras {
namespace {

struct SearchEnv {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;

  SearchEnv() : fleet(GenerateFleet(Options())) {
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

TEST(LocalSearchTest, ObjectiveMatchesModelEvaluation) {
  SearchEnv env;
  env.Add("a", 25);
  env.Add("b", 20);
  auto b = env.Prepare();
  auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  LocalSearchOptions options;
  options.max_proposals = 20000;
  LocalSearchResult result = LocalSearchOptimize(b.input, b.classes, b.built, counts, options);

  // The incremental objective must equal the model's objective at the
  // corresponding full point, both before and after the search.
  auto warm0 = MakeWarmStart(b.input, b.classes, b.built, counts);
  EXPECT_NEAR(result.initial_objective, b.built.model.Objective(warm0),
              1e-6 * (1 + std::fabs(result.initial_objective)));
  auto warm1 = MakeWarmStart(b.input, b.classes, b.built, result.counts);
  EXPECT_NEAR(result.final_objective, b.built.model.Objective(warm1),
              1e-6 * (1 + std::fabs(result.final_objective)));
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

TEST(LocalSearchTest, RespectsProposalBudget) {
  SearchEnv env;
  env.Add("a", 25);
  auto b = env.Prepare();
  auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  LocalSearchOptions options;
  options.max_proposals = 100;
  LocalSearchResult result = LocalSearchOptimize(b.input, b.classes, b.built, counts, options);
  EXPECT_LE(result.proposals, 100);
}

// The rebuild-work limit stops the polish after the accepted move that
// spends it, at the same proposal on every run.
TEST(LocalSearchTest, RebuildWorkLimitStopsThePolish) {
  SearchEnv env;
  ReservationId a = env.Add("a", 30);
  for (ServerId id : env.fleet.topology.ServersInMsb(0)) {
    env.broker->SetCurrent(id, a);
  }
  auto b = env.Prepare();
  auto counts = BuildInitialCounts(b.input, b.classes, b.built);
  const LocalSearchResult full = LocalSearchOptimize(b.input, b.classes, b.built, counts);
  ASSERT_GE(full.accepted, 4);

  LocalSearchOptions options;
  const int64_t accepts = full.accepted / 2;
  options.max_rebuild_work = accepts * static_cast<int64_t>(b.built.assignment_vars.size());
  const LocalSearchResult cut = LocalSearchOptimize(b.input, b.classes, b.built, counts, options);
  EXPECT_EQ(cut.accepted, accepts);
  EXPECT_LT(cut.proposals, full.proposals);
  EXPECT_GT(cut.final_objective, full.final_objective);

  const LocalSearchResult again =
      LocalSearchOptimize(b.input, b.classes, b.built, counts, options);
  EXPECT_EQ(again.proposals, cut.proposals);
  EXPECT_EQ(again.accepted, cut.accepted);
  EXPECT_EQ(again.counts, cut.counts);
  EXPECT_EQ(again.final_objective, cut.final_objective);
}

TEST(LocalSearchTest, EveryProposalIsARealMove) {
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
  // A full-patience search from the greedy start ends at a local optimum;
  // a second search from there has nothing left to accept.
  auto counts = LocalSearchOptimize(built.input, built.classes, built.built,
                                    BuildInitialCounts(built.input, built.classes, built.built))
                    .counts;
  LocalSearchOptions options;
  options.stall_limit = 3000;
  options.seed = 2;
  LocalSearchResult result =
      LocalSearchOptimize(built.input, built.classes, built.built, counts, options);
  ASSERT_EQ(result.accepted, 0);
  // Every proposal was evaluated and rejected, so each one counted toward
  // the stall limit ...
  EXPECT_EQ(result.proposals, options.stall_limit);
  // ... and each rejection restored the state bit for bit.
  EXPECT_EQ(result.final_objective, result.initial_objective);
  EXPECT_EQ(result.counts, counts);
}

}  // namespace
}  // namespace ras
