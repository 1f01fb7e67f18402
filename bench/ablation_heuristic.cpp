// Ablation: the LP-guided rounding heuristic (src/core/lp_rounding).
//
// The paper's "Initial State" step feeds the solver a warm start, and its
// commercial MIP solver brings its own primal heuristics. This repo's
// from-scratch branch-and-bound relies on a problem-aware LP-rounding
// heuristic instead; this bench shows what it buys on top of the production
// initial state (MakePhaseStart: greedy + local-search polish): final
// objective and wall time of (a) the branch-and-bound with no heuristic and
// (b) the Async Solver's MIP step (SolvePhaseMip), which installs the
// LP-guided largest-remainder rounding with greedy repair.

#include <chrono>

#include "bench/bench_common.h"

using namespace ras;
using namespace ras::bench;

namespace {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main() {
  PrintHeader("Ablation: no heuristic vs LP-guided rounding heuristic",
              "(repro design choice; substitutes for the commercial solver's heuristics)");

  std::printf("%-6s | %14s %9s | %14s %9s | %9s\n", "trial", "no-heur obj", "time(ms)",
              "lp-guided obj", "time(ms)", "obj ratio");
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
    PhaseStart start = MakePhaseStart(input, classes, built);

    double t0 = Now();
    MipResult without =
        MipSolver(config.phase1_mip).Solve(built.model, &start.warm, &start.root_start);
    double t_plain = (Now() - t0) * 1e3;

    t0 = Now();
    MipResult with = SolvePhaseMip(input, classes, built, config.phase1_mip, start);
    double t_guided = (Now() - t0) * 1e3;

    double ratio = without.objective / std::max(with.objective, 1e-9);
    ratio_sum += ratio;
    std::printf("%-6d | %14.0f %9.2f | %14.0f %9.2f | %8.2fx\n", trial, without.objective,
                t_plain, with.objective, t_guided, ratio);
  }
  std::printf("\nmean objective ratio (no heuristic / lp-guided): %.2fx. Both arms start\n"
              "from the polished greedy incumbent, so the heuristic only has to beat\n"
              "that start within the node budget.\n",
              ratio_sum / trials);
  return 0;
}
