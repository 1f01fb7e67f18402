#include "src/core/solver_supervisor.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"

namespace ras {

const char* LadderRungName(LadderRung rung) {
  switch (rung) {
    case LadderRung::kFullTwoPhase:
      return "FULL_TWO_PHASE";
    case LadderRung::kPhase1Only:
      return "PHASE1_ONLY";
    case LadderRung::kIncumbent:
      return "INCUMBENT";
    case LadderRung::kLastGood:
      return "LAST_GOOD";
    case LadderRung::kEmergency:
      return "EMERGENCY";
  }
  return "UNKNOWN";
}

obs::RoundReport MakeRoundReport(const RoundOutcome& record, const SolveStats& stats) {
  obs::RoundReport report;
  report.round = record.round;
  report.sim_seconds = record.time.seconds;
  report.rung = LadderRungName(record.rung);
  report.retries = record.retries;
  if (!record.error.ok()) {
    report.error = record.error.ToString();
  }
  report.produced_assignment = ProducedAssignment(record.rung);
  report.assignment_variables = stats.phase1.assignment_variables;
  report.moves_total = stats.moves_total;
  report.moves_in_use = stats.moves_in_use;
  report.shortfall_rru = stats.total_shortfall_rru;
  report.wall_seconds = stats.total_seconds;
  report.reuse = stats.solve_skipped   ? "skipped"
                 : stats.model_patched ? "patched"
                                       : "cold";
  report.delta_servers = stats.delta_servers;
  report.shard_count = stats.shard_count;
  report.repair_moves = stats.repair_moves;
  report.emergency_armed = record.emergency_armed;
  return report;
}

SolverSupervisor::SolverSupervisor(AsyncSolver* solver, ResourceBroker* broker,
                                   const ReservationRegistry* registry,
                                   const HardwareCatalog* catalog, EventLoop* loop,
                                   SupervisorConfig config)
    : solver_(solver),
      broker_(broker),
      registry_(registry),
      catalog_(catalog),
      loop_(loop),
      config_(std::move(config)),
      rng_(config_.seed) {
  // Wire the injector's solver faults through the solver's own hook so a
  // fault plan also bites callers that bypass the supervisor.
  solver_->SetFaultHook([this](SolveMode mode) -> Status {
    if (injector_ == nullptr) {
      return Status::Ok();
    }
    // Timeouts bite the MIP searches only: the incumbent rung explores no
    // node, so its bounded greedy-and-polish start cannot blow a deadline. A
    // crash takes down any mode — the solver process is simply gone — which
    // is why repeated crashes walk the ladder all the way to last-good and,
    // eventually, emergency.
    if (mode != SolveMode::kIncumbentOnly && injector_->Fires(FaultKind::kSolverTimeout)) {
      return Status::DeadlineExceeded("injected: MIP search overran the solve deadline");
    }
    if (injector_->Fires(FaultKind::kSolverCrash)) {
      return Status::Internal("injected: solver process crashed mid-solve");
    }
    return Status::Ok();
  });
  broker_->SetWriteFaultHook([this](ServerId, ReservationId) {
    return injector_ != nullptr && injector_->Fires(FaultKind::kBrokerWriteFailure);
  });
}

SolverSupervisor::~SolverSupervisor() {
  solver_->SetFaultHook(nullptr);
  broker_->SetWriteFaultHook(nullptr);
}

void SolverSupervisor::SetFaultInjector(FaultInjector* injector) { injector_ = injector; }

SimTime SolverSupervisor::now() const { return loop_ != nullptr ? loop_->now() : SimTime{0}; }

void SolverSupervisor::Backoff(int attempt) {
  double delay = static_cast<double>(config_.backoff_initial.seconds) *
                 std::pow(config_.backoff_multiplier, attempt);
  delay = std::min(delay, static_cast<double>(config_.backoff_max.seconds));
  // Jitter de-synchronizes retries across regions; seeded, so deterministic.
  delay *= 1.0 + config_.backoff_jitter * (2.0 * rng_.NextDouble() - 1.0);
  SimDuration wait = Seconds(std::max<int64_t>(1, static_cast<int64_t>(std::llround(delay))));
  if (loop_ != nullptr) {
    // Sim-time sleep: pending events (health transitions, scheduled work) in
    // the window run first, exactly as they would while a real retry waited.
    loop_->RunUntil(loop_->now() + wait);
    if (injector_ != nullptr) {
      injector_->AdvanceTime(loop_->now());
    }
  }
}

Status SolverSupervisor::AttemptSolve(SolveMode mode, SolveStats* stats) {
  obs::SpanScope attempt_span(obs::Tracer::Default(), "attempt");
  uint64_t snapshot_generation = broker_->generation();
  SolveInput input = SnapshotSolveInput(*broker_, *registry_, *catalog_);
  if (injector_ != nullptr && injector_->Fires(FaultKind::kSnapshotCorruption)) {
    injector_->CorruptSnapshot(input);
  }
  Status valid = ValidateSolveInput(input);
  if (!valid.ok()) {
    ++stats_.snapshots_rejected;
    static obs::Counter& rejected = obs::MetricRegistry::Default().counter(
        "ras_supervisor_snapshots_rejected_total", "Snapshots failing validation.");
    rejected.Add();
    return valid;
  }

  DecodedAssignment decoded;
  Result<SolveStats> solved = solver_->SolveSnapshot(input, &decoded, mode);
  if (!solved.ok()) {
    return solved.status();
  }
  if (solved->total_seconds > config_.solve_deadline_seconds) {
    // The solve finished but its targets will never be applied; the resolve
    // cache now describes a round the world never saw. Start the retry cold.
    solver_->InvalidateResolveCache();
    static obs::Counter& misses = obs::MetricRegistry::Default().counter(
        "ras_supervisor_deadline_misses_total", "Solves discarded for blowing the deadline.");
    misses.Add();
    return Status::DeadlineExceeded("solve took " + std::to_string(solved->total_seconds) +
                                    "s, deadline " +
                                    std::to_string(config_.solve_deadline_seconds) + "s");
  }

  if (injector_ != nullptr && injector_->Fires(FaultKind::kSnapshotStale)) {
    broker_->MarkExternalMutation();
  }
  // Persist only results computed against the current world: if the broker
  // moved while the solve was in flight, the solution may bind servers that
  // no longer exist in that state. Retry with a fresh snapshot instead.
  if (broker_->generation() != snapshot_generation) {
    ++stats_.stale_snapshots;
    static obs::Counter& stale = obs::MetricRegistry::Default().counter(
        "ras_supervisor_stale_snapshots_total", "Results dropped because the broker moved.");
    stale.Add();
    solver_->InvalidateResolveCache();
    return Status::FailedPrecondition("broker generation moved during the solve (snapshot " +
                                      std::to_string(snapshot_generation) + ", now " +
                                      std::to_string(broker_->generation()) + ")");
  }

  Status persisted = persistence_ != nullptr
                         ? persistence_->PersistTargets(*broker_, decoded.targets)
                         : broker_->ApplyTargets(decoded.targets);
  if (!persisted.ok()) {
    ++stats_.persist_failures;
    static obs::Counter& persist_failed = obs::MetricRegistry::Default().counter(
        "ras_supervisor_persist_failures_total", "Solve results whose persist rolled back.");
    persist_failed.Add();
    // A failed (and rolled-back) broker write means the cached round was never
    // applied: any delta the next round computed against it would be fiction.
    solver_->InvalidateResolveCache();
    return persisted;
  }
  last_good_targets_ = std::move(decoded.targets);
  *stats = *solved;
  return Status::Ok();
}

SupervisedRound SolverSupervisor::RunRound() {
  obs::SpanScope round_span(obs::Tracer::Default(), "round");
  int round = next_round_++;
  round_span.set_value(round);
  if (injector_ != nullptr) {
    injector_->BeginRound(round, now());
  }

  SupervisedRound out;
  RoundOutcome record;
  record.round = round;
  record.time = now();

  // Walk the ladder. Rung 0 gets the retry budget; the degraded rungs get one
  // attempt each — by then the round is already late, and their value is
  // precisely that they are cheap and likely to succeed.
  const struct {
    LadderRung rung;
    SolveMode mode;
    int attempts;
  } ladder[] = {
      {LadderRung::kFullTwoPhase, SolveMode::kFullTwoPhase, 1 + config_.max_retries},
      {LadderRung::kPhase1Only, SolveMode::kPhase1Only, 1},
      {LadderRung::kIncumbent, SolveMode::kIncumbentOnly, 1},
  };
  Status error;
  bool served = false;
  for (size_t i = 0; i < std::size(ladder) && !served; ++i) {
    const auto& step = ladder[i];
    if (!error.ok()) {
      RAS_LOG(kWarning) << "round " << round << ": " << LadderRungName(ladder[i - 1].rung)
                        << " failed (" << error.ToString() << "); degrading to "
                        << LadderRungName(step.rung);
    }
    for (int attempt = 0; attempt < step.attempts && !served; ++attempt) {
      if (attempt > 0) {
        Backoff(attempt - 1);
        ++out.retries;
        ++stats_.total_retries;
      }
      Status status = AttemptSolve(step.mode, &out.stats);
      if (status.ok()) {
        out.rung = step.rung;
        served = true;
      } else {
        ++stats_.failed_attempts;
        static obs::Counter& failed_attempts = obs::MetricRegistry::Default().counter(
            "ras_supervisor_failed_attempts_total", "Failed solve attempts across all rungs.");
        failed_attempts.Add();
        error = status;
      }
    }
  }

  if (served) {
    // Any fresh assignment counts as the solver answering; close an open
    // outage if there was one.
    if (!solver_healthy()) {
      SimDuration outage = now() - stats_.unhealthy_since;
      stats_.recovery_times.push_back(outage);
      RAS_LOG(kInfo) << "round " << round << ": solver recovered on rung "
                     << LadderRungName(out.rung) << " after " << outage.seconds
                     << "s of simulated outage";
      stats_.unhealthy_since = SimTime{-1};
    }
    stats_.consecutive_failed_rounds = 0;
    emergency_armed_ = false;
    out.error = error;  // OK unless a degraded rung served.
  } else {
    // Nothing produced an assignment this round: keep the last-good targets
    // (the broker is untouched — that is the rung) and track solver health.
    ++stats_.consecutive_failed_rounds;
    out.rung = LadderRung::kLastGood;
    out.stats = SolveStats();
    out.error = error;
    if (stats_.consecutive_failed_rounds >=
        static_cast<size_t>(config_.unhealthy_after_failures)) {
      out.rung = LadderRung::kEmergency;
      if (!emergency_armed_) {
        static obs::Counter& armed = obs::MetricRegistry::Default().counter(
            "ras_supervisor_emergency_armed_total", "Transitions into the armed emergency path.");
        armed.Add();
      }
      emergency_armed_ = true;
      if (solver_healthy()) {
        stats_.unhealthy_since = now();
        RAS_LOG(kWarning) << "round " << round << ": solver declared unhealthy after "
                          << stats_.consecutive_failed_rounds
                          << " consecutive failed rounds; emergency path armed";
      }
    }
  }

  record.rung = out.rung;
  record.retries = out.retries;
  record.error = out.error;
  record.shortfall_rru = out.stats.total_shortfall_rru;
  record.emergency_armed = emergency_armed_;
  record.model_patched = out.stats.model_patched;
  record.solve_skipped = out.stats.solve_skipped;
  record.delta_servers = out.stats.delta_servers;
  ++stats_.rung_counts[static_cast<int>(out.rung)];
  stats_.rounds.push_back(std::move(record));

  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  static obs::Counter& rounds_total =
      reg.counter("ras_supervisor_rounds_total", "Supervised solve rounds.");
  static obs::Counter& retries_total =
      reg.counter("ras_supervisor_retries_total", "Full-rung retries across rounds.");
  static obs::Gauge& failed_streak = reg.gauge(
      "ras_supervisor_consecutive_failed_rounds", "Current streak without a fresh assignment.");
  rounds_total.Add();
  retries_total.Add(out.retries);
  failed_streak.Set(static_cast<double>(stats_.consecutive_failed_rounds));
  // Per-rung counters are labelled series of one family; the name varies per
  // round, so this is a registry lookup rather than a static handle (once per
  // round — nowhere near the hot path).
  reg.counter(std::string("ras_supervisor_rung_total{rung=\"") + LadderRungName(out.rung) + "\"}",
              "Rounds served, by the ladder rung that served them.")
      .Add();
  return out;
}

Result<EmergencyGrant> SolverSupervisor::RequestUrgentCapacity(ReservationId reservation,
                                                               size_t count) {
  if (!emergency_armed_) {
    return Status::FailedPrecondition(
        "emergency path not armed: the solver is healthy, submit a capacity request instead");
  }
  EmergencyGrant grant = GrantImmediateCapacity(*broker_, *registry_, reservation, count);
  if (grant.servers_granted < count) {
    RAS_LOG(kWarning) << "emergency grant for reservation " << reservation << " short: "
                      << grant.servers_granted << "/" << count << " servers";
  }
  return grant;
}

}  // namespace ras
