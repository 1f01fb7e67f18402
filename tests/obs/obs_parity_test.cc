// Parity: observability must be record-only. Running the identical scenario
// with the metric registry + tracer enabled and disabled must produce
// bitwise-identical solver targets and region state — instrumentation that
// steers the solver would show up here as a digest mismatch.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/state_io.h"
#include "src/journal/checkpoint.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/scenario.h"

namespace ras {
namespace {

struct ScenarioRun {
  std::string state;       // Full serialized registry + broker bindings.
  uint32_t digest = 0;     // journal::StateDigest over the same.
  std::vector<LadderRung> rungs;  // Rung reached per round.
};

ScenarioRun RunDeterministicScenario(bool obs_enabled) {
  obs::MetricRegistry::Default().set_enabled(obs_enabled);
  obs::Tracer::Default().set_enabled(obs_enabled);

  ScenarioOptions options;
  options.fleet.num_datacenters = 2;
  options.fleet.msbs_per_datacenter = 2;
  options.fleet.racks_per_msb = 4;
  options.fleet.servers_per_rack = 6;
  options.fleet.seed = 1234;
  options.seed = 77;
  ScenarioRun run;
  {
    RegionScenario sim(options);
    auto profiles = MakePaperServiceProfiles();
    std::vector<ReservationId> services;
    const double capacity[3] = {30, 20, 12};
    for (int i = 0; i < 3; ++i) {
      ReservationSpec spec;
      spec.name = profiles[i].name;
      spec.capacity_rru = capacity[i];
      spec.rru_per_type = BuildRruVector(sim.fleet.catalog, profiles[i]);
      services.push_back(*sim.registry.Create(spec));
    }
    for (int round = 0; round < 3; ++round) {
      (void)sim.SolveRound();
      run.rungs.push_back(sim.supervisor->stats().rounds.back().rung);
      // Deterministic churn between rounds so re-solves have real deltas.
      ReservationSpec spec = *sim.registry.Find(services[round % services.size()]);
      spec.capacity_rru += 4.0;
      (void)sim.registry.Update(spec);
    }
    (void)sim.SolveRound();
    run.rungs.push_back(sim.supervisor->stats().rounds.back().rung);
    run.state = SerializeRegionState(*sim.broker, sim.registry);
    run.digest = journal::StateDigest(*sim.broker, sim.registry);
  }

  obs::MetricRegistry::Default().set_enabled(true);
  obs::Tracer::Default().set_enabled(true);
  return run;
}

TEST(ObsParityTest, StateIsBitwiseIdenticalWithObsOnAndOff) {
  ScenarioRun on = RunDeterministicScenario(/*obs_enabled=*/true);
  ScenarioRun off = RunDeterministicScenario(/*obs_enabled=*/false);
  EXPECT_EQ(on.rungs, off.rungs);
  EXPECT_EQ(on.digest, off.digest);
  ASSERT_EQ(on.state, off.state);
  // And the run itself is reproducible: a second enabled run matches too.
  ScenarioRun again = RunDeterministicScenario(/*obs_enabled=*/true);
  EXPECT_EQ(again.state, on.state);
}

TEST(ObsParityTest, DisabledRunRecordsNoMetrics) {
  obs::MetricRegistry::Default().ResetValues();
  obs::Tracer::Default().Clear();
  (void)RunDeterministicScenario(/*obs_enabled=*/false);
  for (const obs::Counter* c : obs::MetricRegistry::Default().Counters()) {
    EXPECT_EQ(c->Value(), 0u) << c->name();
  }
  EXPECT_TRUE(obs::Tracer::Default().Completed().empty());
}

TEST(ObsParityTest, EnabledRunRecordsRoundsAndSpans) {
  obs::MetricRegistry::Default().ResetValues();
  obs::Tracer::Default().Clear();
  (void)RunDeterministicScenario(/*obs_enabled=*/true);
  EXPECT_EQ(obs::MetricRegistry::Default()
                .counter("ras_supervisor_rounds_total", "")
                .Value(),
            4u);
  EXPECT_GT(obs::MetricRegistry::Default().counter("ras_solver_solves_total", "").Value(), 0u);
  bool saw_round_span = false;
  for (const obs::Span& s : obs::Tracer::Default().Completed()) {
    if (s.name == "round") {
      saw_round_span = true;
      // The scenario wires its event loop as the tracer's sim clock.
      EXPECT_GE(s.sim_seconds, 0);
    }
  }
  EXPECT_TRUE(saw_round_span);
}

}  // namespace
}  // namespace ras
