// Figure 9: phase-1 MIP quality gap under the early timeout.
//
// Paper: phase 1 is interrupted by a timeout before proven optimality; the
// residual gap, measured in units of the model's own costs, is small — 90%
// of solutions are optimal to within 200 server preemptions (gap <= 200 Ms),
// and 99% are optimal "to fix all softened constraints" (every high-priority
// constraint slack is zero), and longer timeouts tighten bounds but rarely
// produce new solutions.
//
// Here: for each of 24 randomized satisfiable workloads we run the phase-1
// MIP twice through the Async Solver's own initial-state and MIP steps
// (MakePhaseStart, SolvePhaseMip) — with the production-style 24-node early
// budget and with a 200-node reference budget — and report the objective
// regression of the early stop in units of Ms (the in-use move cost, i.e.
// "preemptions"), plus the fraction of early solves whose softened-constraint
// slacks are all zero.
// (The raw LP bound is not used: without cutting planes it reflects the
// LP-IP gap of the spread terms, not solution quality; see EXPERIMENTS.md.)

#include <algorithm>

#include "bench/bench_common.h"
#include "src/util/stats.h"

using namespace ras;
using namespace ras::bench;

int main() {
  PrintHeader("Figure 9: phase-1 MIP quality gap under early timeout",
              "90% of solves optimal within 200 preemption-costs; 99% fix all softened "
              "constraints");

  SolverConfig config;
  MipOptions early = config.phase1_mip;
  early.max_nodes = 24;  // The aggressive early timeout.
  MipOptions reference = config.phase1_mip;
  reference.max_nodes = 200;

  Rng rng(909);
  std::vector<double> gap_in_preemptions;
  int fixed_all_constraints = 0;
  int trials_done = 0;
  const int kTrials = 24;
  for (int trial = 0; trial < kTrials; ++trial) {
    FleetOptions fleet_options;
    fleet_options.num_datacenters = 2;
    fleet_options.msbs_per_datacenter = 3 + static_cast<int>(rng.UniformInt(0, 1));
    fleet_options.racks_per_msb = 6;
    fleet_options.servers_per_rack = 8;
    fleet_options.seed = 1000 + static_cast<uint64_t>(trial);
    Fleet fleet = GenerateFleet(fleet_options);
    ResourceBroker broker(&fleet.topology);
    ReservationRegistry registry;
    EnsureSharedBuffers(registry, fleet.topology, fleet.catalog, 0.02);

    // Satisfiable workloads: ~half the region's count-based capacity, split
    // across services; production capacity requests are near-always grantable.
    auto profiles = MakePaperServiceProfiles();
    int num_services = 6 + static_cast<int>(rng.UniformInt(0, 4));
    double budget = static_cast<double>(fleet.topology.num_servers()) * 0.45;
    for (int i = 0; i < num_services; ++i) {
      const ServiceProfile& p = profiles[static_cast<size_t>(rng.UniformInt(0, 4))];
      ReservationSpec spec;
      spec.name = "svc-" + std::to_string(i);
      spec.capacity_rru = rng.Uniform(0.5, 1.0) * budget / num_services;
      spec.rru_per_type = BuildRruVector(fleet.catalog, p);
      (void)*registry.Create(spec);
    }
    // Concentrated pre-existing bindings so stability vs spread is in play.
    SolveInput probe = SnapshotSolveInput(broker, registry, fleet.catalog);
    for (size_t r = 0; r < probe.reservations.size() && r < 3; ++r) {
      for (ServerId id = static_cast<ServerId>(r * 20); id < (r + 1) * 20; ++id) {
        broker.SetCurrent(id, probe.reservations[r].id);
      }
    }

    SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);
    auto classes = BuildEquivalenceClasses(input, Scope::kMsb);
    BuiltModel built = BuildRasModel(input, classes, config, false);
    // The start does not depend on the MIP budget, so one start serves both.
    const std::vector<double> start = MakePhaseStart(input, classes, built);
    MipResult quick = SolvePhaseMip(input, classes, built, early, start);
    MipResult ref = SolvePhaseMip(input, classes, built, reference, start);
    if (quick.x.empty() || ref.x.empty()) {
      continue;
    }
    ++trials_done;
    double gap = std::max(0.0, quick.objective - ref.objective);
    gap_in_preemptions.push_back(gap / config.move_cost_in_use);

    // "Fixed all softened constraints": capacity/affinity slacks all zero.
    double slack = 0.0;
    for (size_t r = 0; r < input.reservations.size(); ++r) {
      if (built.shortfall_vars[r] != kNoVar) {
        slack += quick.x[built.shortfall_vars[r]];
      }
    }
    for (const auto& term : built.affinity_terms) {
      slack += quick.x[term.lo_slack] + quick.x[term.hi_slack];
    }
    if (slack < 1e-3) {  // Above LP numerical dust.
      ++fixed_all_constraints;
    }
  }

  std::sort(gap_in_preemptions.begin(), gap_in_preemptions.end());
  std::printf("%-12s %28s\n", "percentile", "early-stop regression (Ms)");
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 100.0}) {
    std::printf("%-12.0f %28.1f\n", p, Percentile(gap_in_preemptions, p));
  }
  int within_200 = 0;
  for (double g : gap_in_preemptions) {
    within_200 += g <= 200.0;
  }
  std::printf("\nearly solves within 200 preemption-costs of the reference: %.0f%% (paper: 90%%)\n",
              100.0 * within_200 / std::max(1, static_cast<int>(gap_in_preemptions.size())));
  std::printf("early solves that fixed all softened constraints:          %.0f%% (%d of %d; "
              "paper: 99%%)\n",
              100.0 * fixed_all_constraints / std::max(1, trials_done), fixed_all_constraints,
              trials_done);
  return 0;
}
