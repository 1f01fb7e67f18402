#include "src/sim/scenario.h"

#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/stats.h"

namespace ras {

RegionScenario::RegionScenario(const ScenarioOptions& options)
    : fleet(GenerateFleet(options.fleet)), solver(options.solver), rng(options.seed) {
  // Solve-pipeline spans record the simulated instant they opened at,
  // alongside wall time. Last scenario constructed wins the global tracer;
  // the destructor unwires it.
  obs::Tracer::Default().set_sim_clock([this] { return loop.now().seconds; });
  broker = std::make_unique<ResourceBroker>(&fleet.topology);
  twine = std::make_unique<TwineAllocator>(&fleet.catalog, broker.get());
  mover = std::make_unique<OnlineMover>(broker.get(), &registry, twine.get());
  greedy = std::make_unique<GreedyAssigner>(&fleet.catalog, broker.get());
  health = std::make_unique<HealthCheckService>(broker.get());
  supervisor = std::make_unique<SolverSupervisor>(&solver, broker.get(), &registry,
                                                  &fleet.catalog, &loop, options.supervisor);
  if (!options.faults.empty()) {
    fault_injector = std::make_unique<FaultInjector>(options.faults);
    supervisor->SetFaultInjector(fault_injector.get());
  }
  if (options.durable_dir.empty()) {
    shared_buffer_ids = EnsureSharedBuffers(registry, fleet.topology, fleet.catalog,
                                            options.shared_buffer_fraction);
    return;
  }
  durable = std::make_unique<journal::DurableControlPlane>(options.durable_dir, options.durable);
  (void)durable->Attach(broker.get(), &registry);
  const bool recovering = journal::DurableControlPlane::HasState(options.durable_dir);
  if (!recovering) {
    // Bootstrap: seed the buffers first so they land in checkpoint 0.
    shared_buffer_ids = EnsureSharedBuffers(registry, fleet.topology, fleet.catalog,
                                            options.shared_buffer_fraction);
  }
  recovery = durable->OpenOrRecover();
  if (!recovery.status.ok()) {
    RAS_LOG(kWarning) << "durable control plane recovery failed ("
                      << recovery.status.ToString()
                      << "); scenario state is suspect and durability is disconnected";
    return;
  }
  if (recovering) {
    // The buffers came back from the checkpoint; this re-derives their ids
    // (EnsureSharedBuffers is idempotent, so the state is untouched).
    shared_buffer_ids = EnsureSharedBuffers(registry, fleet.topology, fleet.catalog,
                                            options.shared_buffer_fraction);
  }
  supervisor->SetTargetPersistence(durable.get());
}

RegionScenario::~RegionScenario() { obs::Tracer::Default().set_sim_clock(nullptr); }

Result<ReservationId> RegionScenario::AdmitReservation(ReservationSpec spec) {
  if (durable != nullptr && !durable->dead()) {
    return durable->AdmitReservation(std::move(spec));
  }
  return registry.Create(std::move(spec));
}

Status RegionScenario::UpdateReservation(const ReservationSpec& spec) {
  if (durable != nullptr && !durable->dead()) {
    return durable->UpdateReservation(spec);
  }
  return registry.Update(spec);
}

Status RegionScenario::RemoveReservation(ReservationId id) {
  if (durable != nullptr && !durable->dead()) {
    return durable->RemoveReservation(id);
  }
  return registry.Remove(id);
}

void RegionScenario::ArmHealth(SimDuration horizon) {
  HealthEventGenerator generator(&fleet.topology, HealthRates());
  Rng health_rng = rng.Fork();
  health->LoadSchedule(generator.GenerateSchedule(loop.now(), horizon, health_rng));
  health->SetFailureCallback(
      [this](ServerId id, HealthEventKind kind) {
        // Correlated failures are absorbed by embedded buffers (no mover
        // action, Section 3.3.1); random failures get fast replacement.
        if (kind != HealthEventKind::kMsbCorrelatedFailure) {
          mover->HandleFailure(id);
        }
      });
}

Result<SolveStats> RegionScenario::SolveRound() {
  SupervisedRound round = supervisor->RunRound();
  // Reconcile and retry unconditionally: even when every rung failed, the
  // broker holds the (consistent) last-good targets and displaced replicas
  // must not be starved waiting for the next successful solve.
  mover->ReconcileAll();
  twine->RetryPending();
  if (durable != nullptr && !durable->dead()) {
    // End-of-round barrier: digest the post-reconcile state and compact when
    // due. A failure here means the journal is gone; the round itself stands.
    Status barrier = durable->RoundBarrier();
    if (!barrier.ok()) {
      RAS_LOG(kWarning) << "durable round barrier failed: " << barrier.ToString();
    }
  }
  if (ProducedAssignment(round.rung)) {
    return round.stats;
  }
  return round.error;
}

std::vector<double> RegionScenario::MsbPowerDraw() const {
  const RegionTopology& topo = fleet.topology;
  std::vector<double> draw(topo.num_msbs(), 0.0);
  for (const Server& s : topo.servers()) {
    const ServerRecord& rec = broker->record(s.id);
    double watts = fleet.catalog.type(s.type).power_watts;
    if (rec.has_containers) {
      // Busy server: full draw.
    } else if (rec.current != kUnassigned) {
      watts *= 0.6;  // Allocated but idle.
    } else {
      watts *= 0.3;  // Powered-on free pool.
    }
    draw[s.msb] += watts;
  }
  return draw;
}

double RegionScenario::PowerUtilizationVariance() const {
  const RegionTopology& topo = fleet.topology;
  std::vector<double> peak(topo.num_msbs(), 0.0);
  for (const Server& s : topo.servers()) {
    peak[s.msb] += fleet.catalog.type(s.type).power_watts;
  }
  std::vector<double> draw = MsbPowerDraw();
  std::vector<double> utilization;
  utilization.reserve(draw.size());
  for (size_t m = 0; m < draw.size(); ++m) {
    if (peak[m] > 0) {
      utilization.push_back(draw[m] / peak[m]);
    }
  }
  return Variance(utilization);
}

double RegionScenario::CrossDcTrafficFraction(
    ReservationId reservation, const std::map<DatacenterId, double>& data_share) const {
  const RegionTopology& topo = fleet.topology;
  std::vector<double> compute(topo.num_datacenters(), 0.0);
  double total = 0.0;
  for (ServerId id : broker->ServersInReservation(reservation)) {
    const Server& s = topo.server(id);
    double units = fleet.catalog.type(s.type).compute_units;
    compute[s.dc] += units;
    total += units;
  }
  if (total <= 0) {
    return 0.0;
  }
  double local = 0.0;
  for (const auto& [dc, share] : data_share) {
    if (dc < compute.size()) {
      local += (compute[dc] / total) * share;
    }
  }
  return 1.0 - local;
}

double RegionScenario::UnavailableFraction(bool planned) const {
  size_t count = 0;
  for (ServerId id = 0; id < broker->num_servers(); ++id) {
    Unavailability u = broker->record(id).unavailability;
    if (planned && u == Unavailability::kPlannedMaintenance) {
      ++count;
    }
    if (!planned && IsUnplanned(u)) {
      ++count;
    }
  }
  return static_cast<double>(count) / static_cast<double>(broker->num_servers());
}

}  // namespace ras
