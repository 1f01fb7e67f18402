// Region autopilot: two simulated days of continuous region-wide operation.
//
//  - the Async Solver re-evaluates all assignments every 6 simulated hours
//    (production: hourly; compressed here so the example finishes quickly);
//  - the Health Check Service injects random failures, maintenance waves and
//    the occasional correlated event from the paper's Section 2.5 rates;
//  - capacity requests arrive with a diurnal pattern (engineers work days);
//  - the Online Mover reconciles bindings and fast-replaces failed servers.
//
// Prints an hourly status line: the live view an operator would watch.
//
// Build & run:  ./build/examples/region_autopilot

#include <cstdio>

#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/sim/scenario.h"

using namespace ras;

int main() {
  ScenarioOptions options;
  options.fleet.num_datacenters = 2;
  options.fleet.msbs_per_datacenter = 3;
  options.fleet.racks_per_msb = 6;
  options.fleet.servers_per_rack = 8;
  options.fleet.seed = 99;
  options.solver.phase1_mip.max_nodes = 60;
  RegionScenario sim(options);

  // Seed workload: three services of different shapes.
  auto profiles = MakePaperServiceProfiles();
  std::vector<ReservationId> services;
  const double base_capacity[3] = {60, 40, 30};
  for (int i = 0; i < 3; ++i) {
    ReservationSpec spec;
    spec.name = profiles[i].name;
    spec.capacity_rru = base_capacity[i];
    spec.rru_per_type = BuildRruVector(sim.fleet.catalog, profiles[i]);
    services.push_back(*sim.registry.Create(spec));
  }

  sim.ArmHealth(Days(2));

  // Solver cadence: every 6 hours (step 8 of Figure 6, compressed). Each
  // round prints the standard src/obs report instead of a bespoke line.
  sim.loop.ScheduleEvery(SimTime{0}, Hours(6), [&](SimTime) {
    auto stats = sim.SolveRound();
    const RoundOutcome& record = sim.supervisor->stats().rounds.back();
    std::printf("  %s\n",
                obs::FormatRoundReport(MakeRoundReport(record, stats.ok() ? *stats : SolveStats()))
                    .c_str());
  });

  // Diurnal capacity churn: engineers resize requests during working hours.
  sim.loop.ScheduleEvery(SimTime{0} + Hours(1), Hours(1), [&](SimTime t) {
    int64_t hour_of_day = (t.seconds / 3600) % 24;
    if (hour_of_day < 9 || hour_of_day > 17) {
      return;
    }
    size_t which = static_cast<size_t>(sim.rng.UniformInt(0, 2));
    ReservationSpec spec = *sim.registry.Find(services[which]);
    double delta = sim.rng.Uniform(-0.1, 0.15) * base_capacity[which];
    spec.capacity_rru = std::max(10.0, spec.capacity_rru + delta);
    (void)sim.registry.Update(spec);
  });

  // Hourly: advance health, reconcile, report.
  sim.loop.ScheduleEvery(SimTime{0} + Hours(1), Hours(1), [&](SimTime t) {
    sim.health->AdvanceTo(t);
    sim.mover->ReconcileAll();
    sim.twine->RetryPending();
    std::printf("%s  unplanned=%.2f%% planned=%.2f%% replacements=%zu moves=%zu\n",
                FormatSimTime(t).c_str(), 100 * sim.UnavailableFraction(false),
                100 * sim.UnavailableFraction(true), sim.mover->stats().failures_replaced,
                sim.mover->stats().moves_applied);
  });

  sim.loop.RunUntil(SimTime{0} + Days(2));

  std::printf("\n== 48h summary ==\n");
  for (size_t i = 0; i < services.size(); ++i) {
    const ReservationSpec* spec = sim.registry.Find(services[i]);
    std::printf("%-10s capacity=%.1f RRU, holds %zu servers, worst-MSB share %.1f%%\n",
                spec->name.c_str(), spec->capacity_rru,
                sim.broker->CountInReservation(services[i]),
                100 * MaxMsbShare(*sim.broker, services[i]));
  }
  const MoverStats& ms = sim.mover->stats();
  std::printf("mover: %zu moves (%zu in-use), %zu failure replacements, %zu preemptions\n",
              ms.moves_applied, ms.in_use_moves, ms.failures_replaced, ms.containers_preempted);

  // The pipeline's aggregated span tree (deterministic structure view) and an
  // atomically-written metrics snapshot, as a scraper would see it.
  std::printf("\n== solve pipeline spans ==\n%s",
              obs::Tracer::Default().DumpTree(obs::Tracer::Dump::kStructure).c_str());
  Status exported = obs::WriteSnapshotFiles(obs::MetricRegistry::Default(), "autopilot_obs");
  std::printf("metrics snapshot: %s\n",
              exported.ok() ? "autopilot_obs/metrics.{prom,json}" : exported.ToString().c_str());
  return 0;
}
