// Supervisor tests: deadline/retry/backoff behavior, the degradation ladder,
// snapshot validation, atomic persistence, and the emergency path under
// sustained solver unavailability. Everything is seeded and all backoff is in
// simulated time — no wall-clock sleeps anywhere.

#include "src/core/solver_supervisor.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/core/buffer_policy.h"
#include "src/core/initial_assignment.h"
#include "src/fleet/fleet_gen.h"

namespace ras {
namespace {

struct SupervisedSetup {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;
  AsyncSolver solver;
  EventLoop loop;
  std::vector<ReservationId> buffers;
  std::unique_ptr<SolverSupervisor> supervisor;
  std::unique_ptr<FaultInjector> injector;

  explicit SupervisedSetup(const FaultPlan& plan = FaultPlan(),
                           SupervisorConfig config = FastConfig())
      : fleet(GenerateFleet(Options())), solver(FastSolverConfig()) {
    broker = std::make_unique<ResourceBroker>(&fleet.topology);
    buffers = EnsureSharedBuffers(registry, fleet.topology, fleet.catalog, 0.04);
    // Materialize the shared buffers (bind current, as the Online Mover
    // would) so the emergency path's respect for them is observable.
    for (ReservationId b : buffers) {
      const ReservationSpec* spec = registry.Find(b);
      size_t need = static_cast<size_t>(spec->capacity_rru);
      for (ServerId id = 0; id < broker->num_servers() && need > 0; ++id) {
        if (broker->record(id).current == kUnassigned &&
            spec->ValueOfType(fleet.topology.server(id).type) > 0) {
          broker->SetCurrent(id, b);
          --need;
        }
      }
    }
    supervisor = std::make_unique<SolverSupervisor>(&solver, broker.get(), &registry,
                                                    &fleet.catalog, &loop, config);
    if (!plan.empty()) {
      injector = std::make_unique<FaultInjector>(plan);
      supervisor->SetFaultInjector(injector.get());
    }
  }

  static SolverConfig FastSolverConfig() {
    SolverConfig config;
    config.phase1_mip.max_nodes = 8;  // Keep solves fast.
    config.phase2_mip.max_nodes = 4;
    return config;
  }

  static FleetOptions Options() {
    FleetOptions opts;
    opts.num_datacenters = 2;
    opts.msbs_per_datacenter = 2;
    opts.racks_per_msb = 3;
    opts.servers_per_rack = 8;
    opts.seed = 11;
    return opts;  // 96 servers.
  }

  static SupervisorConfig FastConfig() {
    SupervisorConfig config;
    config.max_retries = 2;
    config.backoff_initial = Seconds(30);
    config.backoff_multiplier = 2.0;
    config.backoff_jitter = 0.25;
    config.unhealthy_after_failures = 3;
    return config;
  }

  ReservationId AddService(const std::string& name, double capacity) {
    ReservationSpec spec;
    spec.name = name;
    spec.capacity_rru = capacity;
    spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
    return *registry.Create(spec);
  }

  // Solver intent for `reservation` (the supervisor persists targets; there
  // is no Online Mover here to materialize them into current bindings).
  size_t TargetCount(ReservationId reservation) const {
    size_t count = 0;
    for (ServerId id = 0; id < broker->num_servers(); ++id) {
      count += broker->record(id).target == reservation;
    }
    return count;
  }

  void Resize(ReservationId reservation, double capacity) {
    ReservationSpec spec = *registry.Find(reservation);
    spec.capacity_rru = capacity;
    ASSERT_TRUE(registry.Update(spec).ok());
  }

  // What a fresh cold solver computes for the region as it stands.
  std::vector<std::pair<ServerId, ReservationId>> FreshColdTargets() const {
    SolverConfig config = FastSolverConfig();
    config.incremental_resolve = false;
    AsyncSolver cold(config);
    DecodedAssignment decoded;
    EXPECT_TRUE(
        cold.SolveSnapshot(SnapshotSolveInput(*broker, registry, fleet.catalog), &decoded).ok());
    return decoded.targets;
  }

  std::map<ServerId, ReservationId> TargetsNow() const {
    std::map<ServerId, ReservationId> targets;
    for (ServerId id = 0; id < broker->num_servers(); ++id) {
      targets[id] = broker->record(id).target;
    }
    return targets;
  }
};

TEST(SolverSupervisorTest, HealthyRoundUsesTopRung) {
  SupervisedSetup s;
  ReservationId svc = s.AddService("svc", 20);
  SupervisedRound round = s.supervisor->RunRound();
  EXPECT_EQ(round.rung, LadderRung::kFullTwoPhase);
  EXPECT_EQ(round.retries, 0);
  EXPECT_TRUE(round.error.ok());
  EXPECT_TRUE(s.supervisor->solver_healthy());
  EXPECT_FALSE(s.supervisor->emergency_armed());
  EXPECT_FALSE(s.supervisor->last_good_targets().empty());
  ASSERT_EQ(s.supervisor->stats().rounds.size(), 1u);
  EXPECT_EQ(s.supervisor->stats().RungCount(LadderRung::kFullTwoPhase), 1u);
  // The solve actually landed in the broker.
  EXPECT_GT(s.TargetCount(svc), 0u);
}

TEST(SolverSupervisorTest, TimeoutRetriesWithSimTimeBackoffThenShipsIncumbent) {
  // Timeouts kill both MIP rungs; the greedy incumbent (the paper's
  // documented timeout fallback) ships instead. Retries back off in sim-time.
  FaultPlan plan;
  plan.AddBurst(FaultKind::kSolverTimeout, 0, 1);
  SupervisedSetup s(plan);
  ReservationId svc = s.AddService("svc", 20);
  // The unpolished greedy start on the snapshot every attempt of the round
  // sees (failed attempts write nothing).
  SolveInput input = SnapshotSolveInput(*s.broker, s.registry, s.fleet.catalog);
  std::vector<EquivalenceClass> classes = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built =
      BuildRasModel(input, classes, s.solver.config(), /*include_rack_spread=*/false);
  const double greedy_objective = built.model.Objective(
      MakeWarmStart(input, classes, built, BuildInitialCounts(input, classes, built)));

  SimTime before = s.loop.now();
  SupervisedRound round = s.supervisor->RunRound();
  EXPECT_EQ(round.rung, LadderRung::kIncumbent);
  // The incumbent rung is phase 1 with no search: the polished start ships,
  // never worse than the greedy start it polished.
  EXPECT_TRUE(round.stats.phase1.ran);
  EXPECT_EQ(round.stats.phase1.nodes, 0);
  EXPECT_FALSE(round.stats.phase2.ran);
  EXPECT_LE(round.stats.phase1.objective, greedy_objective + 1e-6);
  EXPECT_EQ(round.retries, 2);
  EXPECT_EQ(round.error.code(), StatusCode::kDeadlineExceeded);
  // Two backoffs: ~30s and ~60s, each with +/-25% seeded jitter.
  int64_t waited = (s.loop.now() - before).seconds;
  EXPECT_GE(waited, 66);
  EXPECT_LE(waited, 114);
  // The incumbent still materialized solver intent for the service.
  EXPECT_GT(s.TargetCount(svc), 0u);
  EXPECT_EQ(s.supervisor->stats().total_retries, 2u);
  EXPECT_EQ(s.supervisor->stats().failed_attempts, 4u);  // 3 full + 1 phase-1.

  // Next round the burst is over: full solve again, health intact throughout.
  round = s.supervisor->RunRound();
  EXPECT_EQ(round.rung, LadderRung::kFullTwoPhase);
  EXPECT_TRUE(s.supervisor->solver_healthy());
}

TEST(SolverSupervisorTest, Phase1OnlyRungServesWhenOnlyFullSolveFails) {
  // Degradation to the cheaper phase-1-only solve, driven through the
  // solver's public fault hook (a fault mode the plan DSL does not encode:
  // only the expensive two-phase solve blows its window).
  SupervisedSetup s;
  s.AddService("svc", 20);
  s.solver.SetFaultHook([](SolveMode mode) {
    return mode == SolveMode::kFullTwoPhase
               ? Status::DeadlineExceeded("two-phase solve too slow")
               : Status::Ok();
  });
  SupervisedRound round = s.supervisor->RunRound();
  EXPECT_EQ(round.rung, LadderRung::kPhase1Only);
  EXPECT_TRUE(round.stats.phase1.ran);
  EXPECT_FALSE(round.stats.phase2.ran);
  EXPECT_EQ(round.error.code(), StatusCode::kDeadlineExceeded);
  EXPECT_TRUE(s.supervisor->solver_healthy());
}

TEST(SolverSupervisorTest, CrashBurstKeepsLastGoodAssignmentUntouched) {
  // Establish a last-good assignment, then crash the solver for two rounds:
  // the broker's targets must not move at all while degraded.
  FaultPlan plan;
  plan.AddBurst(FaultKind::kSolverCrash, 1, 2);
  SupervisedSetup s(plan);
  s.AddService("svc", 20);
  ASSERT_EQ(s.supervisor->RunRound().rung, LadderRung::kFullTwoPhase);
  auto last_good = s.TargetsNow();

  for (int k = 0; k < 2; ++k) {
    SupervisedRound round = s.supervisor->RunRound();
    EXPECT_EQ(round.rung, LadderRung::kLastGood);
    EXPECT_EQ(round.error.code(), StatusCode::kInternal);
    EXPECT_EQ(s.TargetsNow(), last_good) << "degraded round " << k << " moved targets";
  }
  EXPECT_EQ(s.supervisor->stats().consecutive_failed_rounds, 2u);
  EXPECT_TRUE(s.supervisor->solver_healthy());  // Threshold is 3.

  // Faults cleared: recovery to the full solve is automatic.
  SupervisedRound round = s.supervisor->RunRound();
  EXPECT_EQ(round.rung, LadderRung::kFullTwoPhase);
  EXPECT_EQ(s.supervisor->stats().consecutive_failed_rounds, 0u);
}

TEST(SolverSupervisorTest, CorruptSnapshotsAreRejectedBeforePersisting) {
  FaultPlan plan;
  plan.AddBurst(FaultKind::kSnapshotCorruption, 1, 1);
  SupervisedSetup s(plan);
  s.AddService("svc", 20);
  ASSERT_EQ(s.supervisor->RunRound().rung, LadderRung::kFullTwoPhase);
  auto last_good = s.TargetsNow();

  SupervisedRound round = s.supervisor->RunRound();
  EXPECT_EQ(round.rung, LadderRung::kLastGood);
  EXPECT_GT(s.supervisor->stats().snapshots_rejected, 0u);
  EXPECT_EQ(s.TargetsNow(), last_good);
}

TEST(SolverSupervisorTest, StaleSnapshotsAreNotPersisted) {
  FaultPlan plan;
  plan.AddBurst(FaultKind::kSnapshotStale, 1, 1);
  SupervisedSetup s(plan);
  s.AddService("svc", 20);
  ASSERT_EQ(s.supervisor->RunRound().rung, LadderRung::kFullTwoPhase);
  auto last_good = s.TargetsNow();

  SupervisedRound round = s.supervisor->RunRound();
  EXPECT_EQ(round.rung, LadderRung::kLastGood);
  EXPECT_EQ(round.error.code(), StatusCode::kFailedPrecondition);
  EXPECT_GT(s.supervisor->stats().stale_snapshots, 0u);
  EXPECT_EQ(s.TargetsNow(), last_good);
}

TEST(SolverSupervisorTest, BrokerWriteFailuresRollBackAndDegrade) {
  FaultPlan plan;
  plan.AddBurst(FaultKind::kBrokerWriteFailure, 1, 1);
  SupervisedSetup s(plan);
  ReservationId svc = s.AddService("svc", 20);
  ASSERT_EQ(s.supervisor->RunRound().rung, LadderRung::kFullTwoPhase);
  auto last_good = s.TargetsNow();
  // Grow the request so the next solve must produce different targets; the
  // rejected batch must leave none of them behind.
  ReservationSpec spec = *s.registry.Find(svc);
  spec.capacity_rru = 30;
  ASSERT_TRUE(s.registry.Update(spec).ok());

  SupervisedRound round = s.supervisor->RunRound();
  EXPECT_EQ(round.rung, LadderRung::kLastGood);
  EXPECT_EQ(round.error.code(), StatusCode::kUnavailable);
  EXPECT_GT(s.supervisor->stats().persist_failures, 0u);
  EXPECT_GT(s.broker->failed_writes(), 0u);
  EXPECT_EQ(s.TargetsNow(), last_good) << "half-persisted targets leaked";
}

TEST(SolverSupervisorTest, ConsecutiveCrashesArmEmergencyAndRecoverCleanly) {
  // The Section 5.4 drill: N consecutive solver crashes mark the solver
  // unhealthy and arm GrantImmediateCapacity; an urgent request is served
  // without touching un-loaned shared-buffer servers; the next successful
  // solve restores normal operation.
  FaultPlan plan;
  plan.AddBurst(FaultKind::kSolverCrash, 1, 3);
  SupervisedSetup s(plan);
  s.AddService("svc", 20);
  ASSERT_EQ(s.supervisor->RunRound().rung, LadderRung::kFullTwoPhase);

  // While healthy, the emergency path refuses.
  ReservationId urgent = s.AddService("urgent", 4);
  EXPECT_EQ(s.supervisor->RequestUrgentCapacity(urgent, 4).status().code(),
            StatusCode::kFailedPrecondition);

  ASSERT_EQ(s.supervisor->RunRound().rung, LadderRung::kLastGood);
  ASSERT_EQ(s.supervisor->RunRound().rung, LadderRung::kLastGood);
  SupervisedRound third = s.supervisor->RunRound();
  EXPECT_EQ(third.rung, LadderRung::kEmergency);
  EXPECT_FALSE(s.supervisor->solver_healthy());
  EXPECT_TRUE(s.supervisor->emergency_armed());
  EXPECT_EQ(s.supervisor->stats().RungCount(LadderRung::kEmergency), 1u);

  // Idle (un-loaned) shared-buffer servers are sacred even in an emergency.
  std::set<ServerId> buffer_servers;
  for (ReservationId b : s.buffers) {
    for (ServerId id : s.broker->ServersInReservation(b)) {
      buffer_servers.insert(id);
    }
  }
  ASSERT_FALSE(buffer_servers.empty());
  Result<EmergencyGrant> grant = s.supervisor->RequestUrgentCapacity(urgent, 4);
  ASSERT_TRUE(grant.ok());
  EXPECT_GT(grant->servers_granted, 0u);
  EXPECT_EQ(s.broker->CountInReservation(urgent), grant->servers_granted);
  for (ServerId id : s.broker->ServersInReservation(urgent)) {
    EXPECT_EQ(buffer_servers.count(id), 0u) << "emergency grant raided the shared buffer";
  }
  // Buffer membership is exactly what it was before the grant.
  size_t still_bound = 0;
  for (ReservationId b : s.buffers) {
    still_bound += s.broker->CountInReservation(b);
  }
  EXPECT_EQ(still_bound, buffer_servers.size());

  // Faults cleared: the next round recovers automatically and disarms.
  SupervisedRound recovered = s.supervisor->RunRound();
  EXPECT_EQ(recovered.rung, LadderRung::kFullTwoPhase);
  EXPECT_TRUE(s.supervisor->solver_healthy());
  EXPECT_FALSE(s.supervisor->emergency_armed());
  ASSERT_EQ(s.supervisor->stats().recovery_times.size(), 1u);
  EXPECT_GE(s.supervisor->stats().recovery_times[0].seconds, 0);
  // And the emergency door is locked again.
  EXPECT_EQ(s.supervisor->RequestUrgentCapacity(urgent, 1).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(SolverSupervisorTest, LadderNeverRegressesAndIsFullyObservable) {
  // One run that walks every rung, asserting the recorded ladder sequence:
  // retry -> incumbent (timeout), last-good (crash) x2 -> emergency, then
  // automatic recovery to the full two-phase solve.
  FaultPlan plan;
  plan.AddBurst(FaultKind::kSolverTimeout, 1, 1);
  plan.AddBurst(FaultKind::kSolverCrash, 2, 3);
  SupervisedSetup s(plan);
  s.AddService("svc", 20);

  std::vector<LadderRung> expected = {
      LadderRung::kFullTwoPhase,  // round 0: healthy
      LadderRung::kIncumbent,     // round 1: timeout burst, retries then greedy
      LadderRung::kLastGood,      // rounds 2-3: crash burst
      LadderRung::kLastGood,
      LadderRung::kEmergency,     // round 4: third consecutive failure
      LadderRung::kFullTwoPhase,  // round 5: recovered
  };
  for (size_t i = 0; i < expected.size(); ++i) {
    SupervisedRound round = s.supervisor->RunRound();
    EXPECT_EQ(round.rung, expected[i])
        << "round " << i << " took rung " << LadderRungName(round.rung);
  }
  const SupervisorStats& stats = s.supervisor->stats();
  ASSERT_EQ(stats.rounds.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(stats.rounds[i].rung, expected[i]);
  }
  EXPECT_EQ(stats.RungCount(LadderRung::kFullTwoPhase), 2u);
  EXPECT_EQ(stats.RungCount(LadderRung::kIncumbent), 1u);
  EXPECT_EQ(stats.RungCount(LadderRung::kLastGood), 2u);
  EXPECT_EQ(stats.RungCount(LadderRung::kEmergency), 1u);
  EXPECT_EQ(stats.recovery_times.size(), 1u);
}

TEST(SolverSupervisorTest, FullyDeterministicUnderFaults) {
  FaultPlan plan;
  plan.seed = 1234;
  plan.AddBurst(FaultKind::kSolverTimeout, 0, 6, 0.5);
  plan.AddBurst(FaultKind::kSolverCrash, 0, 6, 0.3);

  auto run = [&plan]() {
    SupervisedSetup s(plan);
    s.AddService("svc", 20);
    std::vector<LadderRung> rungs;
    std::vector<int64_t> times;
    for (int round = 0; round < 6; ++round) {
      rungs.push_back(s.supervisor->RunRound().rung);
      times.push_back(s.loop.now().seconds);
    }
    return std::make_pair(rungs, times);
  };
  auto a = run();
  auto b = run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(SolverSupervisorTest, RoundAfterADegradedRungMatchesAColdSolve) {
  // Warm state across the ladder: a degraded rung reads none and leaves the
  // cache as it was, so the next full round re-bounds the last full round's
  // model, or replays it on an unchanged snapshot, and ships exactly what a
  // fresh cold solver computes.
  SupervisedSetup s;
  const ReservationId svc = s.AddService("svc", 20);
  ASSERT_EQ(s.supervisor->RunRound().rung, LadderRung::kFullTwoPhase);

  // The supervisor persists targets (current bindings never move here), so
  // the second snapshot is identical and the round replays the first.
  SupervisedRound warm = s.supervisor->RunRound();
  EXPECT_EQ(warm.rung, LadderRung::kFullTwoPhase);
  EXPECT_TRUE(warm.stats.solve_skipped);

  const auto full_rung_too_slow = [](SolveMode mode) {
    return mode == SolveMode::kFullTwoPhase ? Status::DeadlineExceeded("two-phase too slow")
                                            : Status::Ok();
  };
  s.Resize(svc, 24);
  s.solver.SetFaultHook(full_rung_too_slow);
  SupervisedRound degraded = s.supervisor->RunRound();
  EXPECT_EQ(degraded.rung, LadderRung::kPhase1Only);
  EXPECT_EQ(degraded.stats.delta_servers, -1) << "a degraded rung must never reuse warm state";

  s.solver.SetFaultHook(nullptr);
  const auto cold = s.FreshColdTargets();
  SupervisedRound after = s.supervisor->RunRound();
  EXPECT_EQ(after.rung, LadderRung::kFullTwoPhase);
  EXPECT_TRUE(after.stats.model_patched) << "the degraded rung dropped the warm state";
  EXPECT_EQ(s.supervisor->last_good_targets(), cold);

  // The same snapshot again after another degraded round: a replay.
  s.solver.SetFaultHook(full_rung_too_slow);
  EXPECT_EQ(s.supervisor->RunRound().rung, LadderRung::kPhase1Only);
  s.solver.SetFaultHook(nullptr);
  SupervisedRound replayed = s.supervisor->RunRound();
  EXPECT_EQ(replayed.rung, LadderRung::kFullTwoPhase);
  EXPECT_TRUE(replayed.stats.solve_skipped);
  EXPECT_EQ(s.supervisor->last_good_targets(), cold);
}

// The round report names why phase 1 took no cheaper reuse path: a first
// round has no cached model; an unchanged snapshot replays with no reason; a
// resize misses the memo but patches ("snapshot changed"); a new
// reservation changes the layout, which SetRoundBounds refuses.
TEST(SolverSupervisorTest, RoundReportSaysWhyPhaseOneDidNotReuse) {
  SupervisedSetup s;
  const ReservationId svc = s.AddService("svc", 20);
  auto report = [&s] {
    const SupervisedRound round = s.supervisor->RunRound();
    EXPECT_EQ(round.rung, LadderRung::kFullTwoPhase);
    RoundOutcome record;
    record.rung = round.rung;
    return MakeRoundReport(record, round.stats);
  };
  const std::vector<std::pair<std::string, std::string>> expected = {
      {"cold", "no cached model"}, {"skipped", ""}, {"patched", "snapshot changed"},
      {"cold", "layout refused"}};
  std::vector<std::pair<std::string, std::string>> seen;
  obs::RoundReport first = report();
  seen.emplace_back(first.reuse, first.reuse_reason);
  EXPECT_NE(obs::FormatRoundReport(first).find("reuse=cold (no cached model) delta="),
            std::string::npos);
  obs::RoundReport replayed = report();
  seen.emplace_back(replayed.reuse, replayed.reuse_reason);
  EXPECT_NE(obs::FormatRoundReport(replayed).find("reuse=skipped delta="), std::string::npos);
  s.Resize(svc, 24);
  obs::RoundReport patched = report();
  seen.emplace_back(patched.reuse, patched.reuse_reason);
  s.AddService("extra", 6);
  obs::RoundReport refused = report();
  seen.emplace_back(refused.reuse, refused.reuse_reason);
  EXPECT_EQ(seen, expected);
}

TEST(SolverSupervisorTest, RoundAfterAPersistRollbackMatchesAColdSolve) {
  // The supervisor's own persist path (not AsyncSolver::SolveOnce): every
  // attempt of round 1 rolls back, so the round the cache keeps never
  // landed. Round 2 sees its snapshot again and replays it, which is exactly
  // what a fresh cold solver computes.
  FaultPlan plan;
  plan.AddBurst(FaultKind::kBrokerWriteFailure, 1, 1);
  SupervisedSetup s(plan);
  const ReservationId svc = s.AddService("svc", 20);
  ASSERT_EQ(s.supervisor->RunRound().rung, LadderRung::kFullTwoPhase);

  s.Resize(svc, 24);
  SupervisedRound rolled_back = s.supervisor->RunRound();
  EXPECT_EQ(rolled_back.rung, LadderRung::kLastGood);
  EXPECT_GT(s.supervisor->stats().persist_failures, 0u);

  const auto cold = s.FreshColdTargets();
  SupervisedRound after = s.supervisor->RunRound();
  EXPECT_EQ(after.rung, LadderRung::kFullTwoPhase);
  EXPECT_TRUE(after.stats.solve_skipped) << "the unchanged snapshot did not replay the memo";
  EXPECT_EQ(s.supervisor->last_good_targets(), cold);
}

TEST(SolverSupervisorTest, DeadlineEnforcementRejectsOverlongSolves) {
  SupervisorConfig config = SupervisedSetup::FastConfig();
  config.solve_deadline_seconds = -1.0;  // Everything is too slow.
  SupervisedSetup s(FaultPlan(), config);
  s.AddService("svc", 20);
  SupervisedRound round = s.supervisor->RunRound();
  // Every rung overshoots an impossible deadline, so the round serves from
  // last-good (empty here) and reports the deadline failure.
  EXPECT_EQ(round.rung, LadderRung::kLastGood);
  EXPECT_EQ(round.error.code(), StatusCode::kDeadlineExceeded);
}

}  // namespace
}  // namespace ras
