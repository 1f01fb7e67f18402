#include "src/core/local_search.h"

#include <gtest/gtest.h>

#include <cmath>

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
    ReservationSpec spec;
    spec.name = name;
    spec.capacity_rru = capacity;
    spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
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

}  // namespace
}  // namespace ras
