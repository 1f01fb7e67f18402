// Ablation: the LP-guided rounding heuristic (src/core/lp_rounding).
//
// The paper's "Initial State" step feeds the solver a warm start, and its
// commercial MIP solver brings its own primal heuristics. This repo's
// from-scratch branch-and-bound relies on a problem-aware LP-rounding
// heuristic instead; this bench shows what it buys: final objective and
// wall time with (a) warm start only + generic fix-and-solve rounding, and
// (b) the LP-guided largest-remainder rounding with greedy repair.

#include <chrono>

#include "bench/bench_common.h"
#include "src/core/initial_assignment.h"
#include "src/core/lp_rounding.h"

using namespace ras;
using namespace ras::bench;

namespace {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  PrintHeader("Ablation: generic rounding vs LP-guided rounding heuristic",
              "(repro design choice; substitutes for the commercial solver's heuristics)");

  std::printf("%-6s | %14s %9s | %14s %9s | %9s\n", "trial", "generic obj", "time(s)",
              "lp-guided obj", "time(s)", "obj ratio");
  double ratio_sum = 0;
  int trials = 6;
  for (int trial = 0; trial < trials; ++trial) {
    FleetOptions fleet_options;
    fleet_options.num_datacenters = 2;
    fleet_options.msbs_per_datacenter = 4;
    fleet_options.racks_per_msb = 6;
    fleet_options.servers_per_rack = 8;
    fleet_options.seed = 3000 + static_cast<uint64_t>(trial);
    Fleet fleet = GenerateFleet(fleet_options);
    ResourceBroker broker(&fleet.topology);
    ReservationRegistry registry;
    EnsureSharedBuffers(registry, fleet.topology, fleet.catalog, 0.02);
    Rng rng(30 + static_cast<uint64_t>(trial));
    auto profiles = MakePaperServiceProfiles();
    for (int i = 0; i < 8; ++i) {
      ReservationSpec spec;
      spec.name = "svc-" + std::to_string(i);
      spec.capacity_rru = rng.Uniform(20, 45);
      spec.rru_per_type = BuildRruVector(fleet.catalog, profiles[static_cast<size_t>(i) % 5]);
      (void)*registry.Create(spec);
    }
    // Concentrated pre-bindings make the optimization non-trivial.
    SolveInput probe = SnapshotSolveInput(broker, registry, fleet.catalog);
    for (size_t r = 0; r < probe.reservations.size() && r < 4; ++r) {
      for (ServerId id = static_cast<ServerId>(r * 24); id < (r + 1) * 24; ++id) {
        broker.SetCurrent(id, probe.reservations[r].id);
      }
    }
    SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
    auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
    SolverConfig config;
    BuiltModel built = BuildRasModel(input, classes, config, false);
    auto counts = BuildInitialCounts(input, classes, built);
    auto warm = MakeWarmStart(input, classes, built, counts);
    auto root_start = MakeWarmStart(input, classes, built, built.initial_counts);

    MipOptions generic = config.phase1_mip;  // No heuristic installed.
    double t0 = Now();
    MipResult without = MipSolver(generic).Solve(built.model, &warm, &root_start);
    double t_generic = Now() - t0;

    MipOptions guided = config.phase1_mip;
    guided.heuristic = MakeLpRoundingHeuristic(input, classes, built);
    t0 = Now();
    MipResult with = MipSolver(guided).Solve(built.model, &warm, &root_start);
    double t_guided = Now() - t0;

    double ratio = without.objective / std::max(with.objective, 1e-9);
    ratio_sum += ratio;
    std::printf("%-6d | %14.0f %9.2f | %14.0f %9.2f | %8.2fx\n", trial, without.objective,
                t_generic, with.objective, t_guided, ratio);
  }
  std::printf("\nmean objective ratio (generic / lp-guided): %.2fx — the domain-aware\n"
              "rounding is what lets tiny node budgets reach near-optimal assignments\n"
              "(see bench/fig09_quality_gap).\n",
              ratio_sum / trials);
  return 0;
}
