// Solver-kernel scaling bench: the perf-regression anchor for the Async
// Solver's MIP engine (the machinery behind Figures 7 and 10).
//
// Runs the phase-1 RAS MIP (the serial branch-and-bound over the sparse LU
// simplex kernel) over a set of synthetic regions, from the initial state and
// through the MIP step the Async Solver itself runs (MakePhaseStart,
// SolvePhaseMip). Prints one result row and writes BENCH_solver.json (via the
// common bench_json emitter) with wall time, simplex iterations, nodes,
// objective and gap, so successive runs can be diffed mechanically. Also
// verifies that the search is run-to-run deterministic (bitwise-identical
// solution vectors).
//
// Usage: bench_solver_scaling [small] [output.json]

#include <chrono>
#include <cstring>
#include <deque>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"

using namespace ras;
using namespace ras::bench;

namespace {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Workload {
  SolveInput input;
  std::vector<EquivalenceClass> classes;
  BuiltModel built;
  std::vector<double> start;
};

struct ConfigResult {
  double wall_s = 0.0;
  int64_t lp_iterations = 0;
  int64_t nodes = 0;
  double objective = 0.0;
  double gap = 0.0;
  MipStatus status = MipStatus::kError;
  std::vector<double> first_x;  // Solution of the first workload (determinism probe).
};

ConfigResult RunConfig(const std::vector<Workload*>& workloads, const SolverConfig& config) {
  ConfigResult out;
  for (size_t w = 0; w < workloads.size(); ++w) {
    Workload& wl = *workloads[w];
    double t0 = WallNow();
    MipResult mip = SolvePhaseMip(wl.input, wl.classes, wl.built, config.phase1_mip, wl.start);
    out.wall_s += WallNow() - t0;
    out.lp_iterations += mip.lp_iterations;
    out.nodes += mip.nodes;
    out.objective += mip.objective;
    out.gap += mip.gap();
    out.status = mip.status;
    if (w == 0) {
      out.first_x = mip.x;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  std::string out_path = DefaultOutputPath("BENCH_solver.json");
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "small") == 0) {
      small = true;
    } else {
      out_path = argv[a];
    }
  }

  PrintHeader("Solver scaling: sparse LU simplex kernel + serial branch-and-bound",
              "continuous region-wide re-optimization must be as fast as the hardware "
              "allows (Figs. 7/10 measure allocation time and setup scaling)");

  // Fig. 9-style satisfiable workloads, the shape the Async Solver's phase 1
  // actually sees: a few nonzeros per assignment row, soft capacity rows.
  SolverConfig config;
  const int kWorkloads = small ? 1 : 3;
  Rng rng(909);
  std::vector<Workload> workloads(static_cast<size_t>(kWorkloads));
  // SolveInput keeps raw pointers into the fleet topology/catalog, so the
  // fleets must outlive the workloads at stable addresses (deque, not vector).
  std::deque<Fleet> fleets;
  for (int t = 0; t < kWorkloads; ++t) {
    FleetOptions fleet_options;
    fleet_options.num_datacenters = 2;
    fleet_options.msbs_per_datacenter = small ? 3 : 4;
    fleet_options.racks_per_msb = small ? 4 : 10;
    fleet_options.servers_per_rack = small ? 6 : 12;
    fleet_options.seed = 1000 + static_cast<uint64_t>(t);
    fleets.push_back(GenerateFleet(fleet_options));
    Fleet& fleet = fleets.back();
    ResourceBroker broker(&fleet.topology);
    ReservationRegistry registry;
    EnsureSharedBuffers(registry, fleet.topology, fleet.catalog, 0.02);
    auto profiles = MakePaperServiceProfiles();
    int num_services = small ? 5 : 12;
    double budget = static_cast<double>(fleet.topology.num_servers()) * 0.45;
    for (int i = 0; i < num_services; ++i) {
      const ServiceProfile& p = profiles[static_cast<size_t>(rng.UniformInt(0, 4))];
      ReservationSpec spec;
      spec.name = "svc-" + std::to_string(i);
      spec.capacity_rru = rng.Uniform(0.5, 1.0) * budget / num_services;
      spec.rru_per_type = BuildRruVector(fleet.catalog, p);
      (void)*registry.Create(spec);
    }
    Workload& wl = workloads[static_cast<size_t>(t)];
    wl.input = SnapshotSolveInput(broker, registry, fleet.catalog);
    wl.classes = BuildEquivalenceClasses(wl.input, Scope::kMsb);
    wl.built = BuildRasModel(wl.input, wl.classes, config, /*include_rack_spread=*/false);
    wl.start = MakePhaseStart(wl.input, wl.classes, wl.built);
    std::printf("workload %d: %zu rows, %zu vars, %zu nonzeros\n", t,
                wl.built.model.num_rows(), wl.built.model.num_variables(),
                wl.built.model.num_nonzeros());
  }
  std::vector<Workload*> ptrs;
  for (Workload& w : workloads) {
    ptrs.push_back(&w);
  }

  BenchJsonWriter json("solver_scaling");
  AddStandardMeta(json);
  ConfigResult r = RunConfig(ptrs, config);
  std::printf("\n%-12s %10s %12s %8s %12s %10s\n", "config", "wall_s", "lp_iters", "nodes",
              "objective", "gap");
  std::printf("%-12s %10.3f %12lld %8lld %12.1f %10.1f\n", "sparse", r.wall_s,
              static_cast<long long>(r.lp_iterations), static_cast<long long>(r.nodes),
              r.objective, r.gap);
  json.AddRecord()
      .Set("config", "sparse")
      .Set("wall_s", r.wall_s)
      .Set("iterations", r.lp_iterations)
      .Set("nodes", r.nodes)
      .Set("objective", r.objective)
      .Set("gap", r.gap)
      .Set("status", MipStatusName(r.status))
      .Set("workloads", static_cast<int64_t>(kWorkloads));

  // Determinism: a repeated run must produce a bitwise-identical solution
  // vector.
  ConfigResult again = RunConfig(ptrs, config);
  bool deterministic = r.first_x == again.first_x;
  std::printf("\ndeterminism (bitwise, repeated run): %s\n",
              deterministic ? "OK" : "MISMATCH");
  AddDeterminismRecord(json, "sparse-serial", deterministic);

  if (!json.WriteFile(out_path)) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return deterministic ? 0 : 1;
}
