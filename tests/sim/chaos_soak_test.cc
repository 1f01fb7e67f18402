// Chaos soak: a simulated week with a fault plan active the whole time —
// probabilistic solver timeouts/crashes, stale snapshots, broker write
// failures — layered on top of the health schedule's MSB failures. The system
// must never crash, keep the broker index consistent, never move targets on a
// round that served from last-good, keep shortfall bounded, and return to
// healthy full solves once a hard outage burst ends.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/sim/scenario.h"

namespace ras {
namespace {

// Hard outage: every rung fails for these solve rounds, long enough to blow
// through SupervisorConfig::unhealthy_after_failures and arm the emergency
// path mid-week.
constexpr int kOutageFirstRound = 30;
constexpr int kOutageRounds = 5;

// Broker write failures fire per server write, and a persist is
// all-or-nothing, so at the week's rate of 0.05 nearly every persist of a
// fresh assignment rolls back until the weather ends. At this rate a persist
// of ~100 writes rolls back about a quarter of the time, so most rounds ship
// and the full rung meets warm state after every kind of fault.
constexpr double kRareWriteFailureRate = 0.003;

ScenarioOptions ChaosOptions(double write_failure_rate = 0.05) {
  ScenarioOptions opts;
  opts.fleet.num_datacenters = 2;
  opts.fleet.msbs_per_datacenter = 3;
  opts.fleet.racks_per_msb = 4;
  opts.fleet.servers_per_rack = 8;
  opts.fleet.seed = 777;
  opts.seed = 777;
  opts.solver.phase1_mip.max_nodes = 12;  // Keep the soak fast.
  opts.solver.phase2_mip.max_nodes = 8;
  // Background fault weather for most of the week (the 42 solve rounds run
  // 4h apart; the last couple of rounds are left clean so recovery to a full
  // solve is guaranteed, not probabilistic)...
  opts.faults.seed = 0xC4A05;
  opts.faults.AddBurst(FaultKind::kSolverTimeout, 0, 40, 0.15);
  opts.faults.AddBurst(FaultKind::kSolverCrash, 0, 40, 0.10);
  opts.faults.AddBurst(FaultKind::kSnapshotStale, 0, 40, 0.08);
  opts.faults.AddBurst(FaultKind::kSnapshotCorruption, 0, 40, 0.05);
  opts.faults.AddBurst(FaultKind::kBrokerWriteFailure, 0, 40, write_failure_rate);
  // ...plus one certain crash storm to force the bottom of the ladder.
  opts.faults.AddBurst(FaultKind::kSolverCrash, kOutageFirstRound, kOutageRounds);
  return opts;  // 192 servers.
}

std::map<ServerId, ReservationId> TargetsNow(const RegionScenario& sim) {
  std::map<ServerId, ReservationId> targets;
  for (ServerId id = 0; id < sim.broker->num_servers(); ++id) {
    targets[id] = sim.broker->record(id).target;
  }
  return targets;
}

// The broker's membership index must stay a partition that agrees with the
// records, no matter which ladder rungs served.
void CheckBrokerConsistent(const RegionScenario& sim) {
  std::map<ReservationId, size_t> counted;
  for (ServerId id = 0; id < sim.broker->num_servers(); ++id) {
    counted[sim.broker->record(id).current]++;
  }
  std::set<ServerId> seen;
  for (const auto& [res, count] : counted) {
    ASSERT_EQ(sim.broker->CountInReservation(res), count) << "reservation " << res;
    for (ServerId id : sim.broker->ServersInReservation(res)) {
      ASSERT_TRUE(seen.insert(id).second) << "server " << id << " in two reservations";
    }
  }
}

// The week, one simulated hour at a time: health, capacity churn, and every
// fourth hour a supervised solve round (with the emergency path exercised
// whenever the storm has armed it); the other hours reconcile.
struct ChaosWeek {
  RegionScenario sim;
  std::vector<ReservationId> services;
  double total_demand = 0.0;
  int solve_round = 0;
  size_t emergency_grants = 0;
  double worst_shortfall = 0.0;
  // The last solve round's serving stats; zero when it served no assignment.
  SolveStats last_stats;

  explicit ChaosWeek(const ScenarioOptions& options) : sim(options) {
    for (int i = 0; i < 3; ++i) {
      ReservationSpec spec;
      spec.name = "svc-" + std::to_string(i);
      spec.capacity_rru = 20 + 5 * i;
      spec.rru_per_type.assign(sim.fleet.catalog.size(), 1.0);
      services.push_back(*sim.registry.Create(spec));
      total_demand += spec.capacity_rru;
    }
    sim.ArmHealth(Days(7));
  }

  static bool SolvesAt(int hour) { return hour % 4 == 0; }

  void RunHour(int hour) {
    SimTime tick{static_cast<int64_t>(hour) * 3600};
    // Backoffs may already have pushed simulated time past this tick.
    if (tick > sim.loop.now()) {
      sim.loop.RunUntil(tick);
    }
    sim.health->AdvanceTo(sim.loop.now());

    // Capacity churn, as in the plain soak.
    if (hour % 7 == 3) {
      size_t which = static_cast<size_t>(sim.rng.UniformInt(0, 2));
      ReservationSpec spec = *sim.registry.Find(services[which]);
      spec.capacity_rru = std::max(15.0, spec.capacity_rru * sim.rng.Uniform(0.92, 1.1));
      ASSERT_TRUE(sim.registry.Update(spec).ok());
    }

    if (SolvesAt(hour)) {
      auto before = TargetsNow(sim);
      Result<SolveStats> result = sim.SolveRound();
      const RoundOutcome& outcome = sim.supervisor->stats().rounds.back();
      last_stats = result.ok() ? *result : SolveStats();
      if (ProducedAssignment(outcome.rung)) {
        ASSERT_TRUE(result.ok()) << "hour " << hour;
        worst_shortfall = std::max(worst_shortfall, result->total_shortfall_rru);
      } else {
        // Serving from last-good must be exactly that: not one target moved.
        EXPECT_FALSE(result.ok()) << "hour " << hour;
        EXPECT_EQ(TargetsNow(sim), before)
            << "round " << solve_round << " regressed the last-good assignment";
      }
      // Exercise the emergency path whenever the storm has armed it.
      if (sim.supervisor->emergency_armed()) {
        Result<EmergencyGrant> grant = sim.RequestUrgentCapacity(services[0], 1);
        ASSERT_TRUE(grant.ok());
        emergency_grants += grant->servers_granted;
      }
      ++solve_round;
    } else {
      sim.mover->ReconcileAll();
      sim.twine->RetryPending();
    }
    CheckBrokerConsistent(sim);
  }
};

TEST(ChaosSoakTest, SimulatedWeekUnderFaultWeather) {
  ChaosWeek week(ChaosOptions());
  for (int hour = 0; hour < 7 * 24; ++hour) {
    week.RunHour(hour);
    ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "hour " << hour;
  }
  RegionScenario& sim = week.sim;

  const SupervisorStats& stats = sim.supervisor->stats();
  ASSERT_EQ(stats.rounds.size(), static_cast<size_t>(week.solve_round));
  // The week was genuinely chaotic: degraded rungs served, the crash storm
  // reached the emergency rung, and the supervisor recovered afterwards.
  EXPECT_GT(stats.failed_attempts, 0u);
  EXPECT_GT(stats.RungCount(LadderRung::kLastGood) + stats.RungCount(LadderRung::kEmergency),
            0u);
  EXPECT_GE(stats.RungCount(LadderRung::kEmergency), 1u);
  EXPECT_GE(stats.recovery_times.size(), 1u);
  EXPECT_GT(week.emergency_grants, 0u);
  EXPECT_TRUE(sim.supervisor->solver_healthy());
  EXPECT_FALSE(sim.supervisor->emergency_armed());
  // Shortfall stayed bounded on every round that produced an assignment: the
  // region has ample capacity, so even the greedy incumbent covers most of
  // the demand.
  EXPECT_LE(week.worst_shortfall, 0.25 * week.total_demand);

  // With the weather over (all round windows exhausted), a clean solve
  // restores the full guarantee for every service.
  ASSERT_TRUE(sim.SolveRound().ok());
  for (ReservationId svc : week.services) {
    const ReservationSpec* spec = sim.registry.Find(svc);
    size_t targeted = 0;
    for (ServerId id = 0; id < sim.broker->num_servers(); ++id) {
      targeted += sim.broker->record(id).target == svc;
    }
    EXPECT_GE(static_cast<double>(targeted) + 1.0, spec->capacity_rru)
        << spec->name << " under-provisioned after the chaos cleared";
  }
}

TEST(ChaosSoakTest, ResolveCacheOnAndOffShipTheSameRoundsUnderFaultWeather) {
  // The same week twice in lockstep, once with the resolve cache and once
  // solving every round cold, under the week's own weather and under one
  // whose persists mostly land. Faults leave the cache alone (it keys on the
  // snapshot), so every round must serve on the same rung and leave
  // bitwise-identical broker targets on both sides.
  int reused_rounds = 0;
  int reused_after_degraded = 0;
  for (double write_failure_rate : {0.05, kRareWriteFailureRate}) {
    SCOPED_TRACE("write failure rate " + std::to_string(write_failure_rate));
    ScenarioOptions cold_options = ChaosOptions(write_failure_rate);
    cold_options.solver.incremental_resolve = false;
    ChaosWeek warm(ChaosOptions(write_failure_rate));
    ChaosWeek cold(cold_options);
    ASSERT_TRUE(warm.sim.solver.config().incremental_resolve);

    LadderRung previous = LadderRung::kFullTwoPhase;
    for (int hour = 0; hour < 7 * 24; ++hour) {
      warm.RunHour(hour);
      cold.RunHour(hour);
      ASSERT_FALSE(::testing::Test::HasFatalFailure()) << "hour " << hour;
      if (!ChaosWeek::SolvesAt(hour)) {
        continue;
      }
      const int round = warm.solve_round - 1;
      const LadderRung rung = warm.sim.supervisor->stats().rounds.back().rung;
      ASSERT_EQ(rung, cold.sim.supervisor->stats().rounds.back().rung) << "round " << round;
      ASSERT_EQ(TargetsNow(warm.sim), TargetsNow(cold.sim)) << "round " << round;
      ASSERT_EQ(warm.sim.supervisor->last_good_targets(),
                cold.sim.supervisor->last_good_targets())
          << "round " << round;
      EXPECT_EQ(cold.last_stats.delta_servers, -1) << "round " << round;

      const bool reused = warm.last_stats.model_patched || warm.last_stats.solve_skipped;
      reused_rounds += reused;
      reused_after_degraded += reused && previous != LadderRung::kFullTwoPhase;
      previous = rung;
    }
    EXPECT_EQ(warm.solve_round, cold.solve_round);
    EXPECT_EQ(warm.sim.supervisor->stats().failed_attempts,
              cold.sim.supervisor->stats().failed_attempts);
  }
  // Parity only means something if the warm side reused state, including
  // on a full round right after a degraded, last-good or emergency one.
  EXPECT_GT(reused_rounds, 0);
  EXPECT_GT(reused_after_degraded, 0);
}

}  // namespace
}  // namespace ras
