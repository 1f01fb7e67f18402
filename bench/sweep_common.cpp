#include "bench/sweep_common.h"

#include <chrono>

namespace ras {
namespace bench {
namespace {

double Now() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

SetupMeasurement MeasureSetup(SweepRegion& region, bool solve_root_lp) {
  SetupMeasurement out;
  out.servers = region.broker->num_servers();
  SolverConfig config;

  // ---- Phase 1 setup: snapshot -> MSB classes -> model -> initial state ----
  double t0 = Now();
  SolveInput input = SnapshotSolveInput(*region.broker, region.registry, region.fleet.catalog);
  auto classes1 = BuildEquivalenceClasses(input, Scope::kMsb);
  BuiltModel built1 = BuildRasModel(input, classes1, config, /*include_rack_spread=*/false);
  (void)MakePhaseStart(input, classes1, built1);  // Timed; the start itself is unused.
  out.phase1_setup_s = Now() - t0;
  out.phase1_vars = built1.num_assignment_variables();
  out.phase1_rows = built1.model.num_rows();
  out.phase1_model_bytes = built1.ModelMemoryBytes();
  if (solve_root_lp) {
    const std::vector<double> root_start = MakeRootStart(input, classes1, built1);
    out.phase1_basis_nonzeros =
        SimplexSolver().Solve(built1.model, {}, &root_start).factor_nonzeros;
  }

  // ---- Phase 2 setup: worst 10% of reservations at rack granularity ----
  t0 = Now();
  size_t take = std::max<size_t>(1, input.reservations.size() / 10);
  std::unordered_set<ReservationId> subset_ids;
  std::vector<int> subset;
  for (size_t r = 0; r < take; ++r) {
    subset_ids.insert(input.reservations[r].id);
    subset.push_back(static_cast<int>(r));
  }
  ClassFilter filter;
  filter.reservations = &subset_ids;
  auto classes2 = BuildEquivalenceClasses(input, Scope::kRack, filter);
  BuiltModel built2 =
      BuildRasModel(input, classes2, config, /*include_rack_spread=*/true, subset);
  (void)MakePhaseStart(input, classes2, built2);  // Timed; the start itself is unused.
  out.phase2_setup_s = Now() - t0;
  out.phase2_vars = built2.num_assignment_variables();
  out.phase2_model_bytes = built2.ModelMemoryBytes();
  if (solve_root_lp) {
    const std::vector<double> root_start = MakeRootStart(input, classes2, built2);
    out.phase2_basis_nonzeros =
        SimplexSolver().Solve(built2.model, {}, &root_start).factor_nonzeros;
  }
  return out;
}

}  // namespace bench
}  // namespace ras
