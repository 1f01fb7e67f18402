// Shared region-size sweep for the Figure 10 / Figure 11 scaling benches:
// builds progressively larger regions and runs the setup pipeline (snapshot,
// equivalence classes, model build, and the Async Solver's initial-state step
// MakePhaseStart) for both phases, without the MIP step. Figure 11
// additionally solves each phase's root LP to read the simplex basis
// footprint.

#ifndef RAS_BENCH_SWEEP_COMMON_H_
#define RAS_BENCH_SWEEP_COMMON_H_

#include <memory>
#include <unordered_set>

#include "bench/bench_common.h"

namespace ras {
namespace bench {

struct SweepRegion {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;

  explicit SweepRegion(int scale) : fleet(GenerateFleet(Options(scale))) {
    broker = std::make_unique<ResourceBroker>(&fleet.topology);
    EnsureSharedBuffers(registry, fleet.topology, fleet.catalog, 0.02);
    Rng rng(4242 + static_cast<uint64_t>(scale));
    auto profiles = MakePaperServiceProfiles();
    int num_services = 8 + 6 * scale;
    double budget = static_cast<double>(fleet.topology.num_servers()) * 0.7;
    for (int i = 0; i < num_services; ++i) {
      const ServiceProfile& p = profiles[static_cast<size_t>(i) % profiles.size()];
      ReservationSpec spec;
      spec.name = "svc-" + std::to_string(i);
      spec.capacity_rru = rng.Uniform(0.5, 1.5) * budget / num_services;
      spec.rru_per_type = BuildRruVector(fleet.catalog, p);
      (void)*registry.Create(spec);
    }
    // Pre-bind ~60% of servers across reservations so classes carry realistic
    // current-assignment diversity (that is what multiplies variable counts).
    SolveInput probe = SnapshotSolveInput(*broker, registry, fleet.catalog);
    size_t stride = probe.reservations.size();
    for (ServerId id = 0; id < broker->num_servers(); ++id) {
      if (id % 5 < 3) {
        broker->SetCurrent(id, probe.reservations[id % stride].id);
      }
    }
  }

  static FleetOptions Options(int scale) {
    FleetOptions opts;
    opts.num_datacenters = 2 + scale / 2;
    opts.msbs_per_datacenter = 3 + scale;
    opts.racks_per_msb = 8 + 2 * scale;
    opts.servers_per_rack = 10;
    opts.seed = 5150 + static_cast<uint64_t>(scale);
    return opts;
  }
};

struct SetupMeasurement {
  size_t phase1_vars = 0;
  size_t phase2_vars = 0;
  size_t phase1_rows = 0;
  double phase1_setup_s = 0.0;
  double phase2_setup_s = 0.0;
  size_t phase1_model_bytes = 0;
  size_t phase2_model_bytes = 0;
  // Root-LP basis factorization (L + U + eta) nonzeros per phase; zero
  // unless requested.
  int64_t phase1_basis_nonzeros = 0;
  int64_t phase2_basis_nonzeros = 0;
  size_t servers = 0;
};

// Runs the phase-1 and phase-2 setup pipelines (no MIP) and measures them.
// With `solve_root_lp`, also solves each phase's root LP relaxation from the
// current assignment, as the Async Solver does (timed outside the setup
// figures), and records its basis footprint.
SetupMeasurement MeasureSetup(SweepRegion& region, bool solve_root_lp = false);

}  // namespace bench
}  // namespace ras

#endif  // RAS_BENCH_SWEEP_COMMON_H_
