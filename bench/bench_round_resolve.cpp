// Cross-round incremental re-solve bench: the trajectory anchor for the
// resolve cache (SolverConfig::incremental_resolve, src/core/resolve_cache).
//
// Simulates a steady-state solve loop: one region, N rounds, availability
// churn averaging a configurable fraction of the fleet per round (default
// 1%). Churn arrives the way it does in production — batched: maintenance
// drains and returns rack groups together (Section 5.3's maintenance flow),
// so at a 1% mean rate with ~3%-of-fleet batches roughly every third round
// sees an event and the rest are quiet. Quiet rounds exercise the skip-solve
// fast path; event rounds exercise delta computation and model patching,
// followed by the same branch-and-bound a cold round runs. Every round's
// snapshot is fed to TWO solvers built from the default SolverConfig — one
// with the resolve cache on, one strictly from scratch — and the
// per-round wall time is broken down by Figure-8 step (ras_build /
// solver_build / initial_state / mip) for both.
//
// The incremental solver must produce bitwise-identical targets to the cold
// solver every round — the cache trades timings, never answers — and any
// mismatch fails the run. The steady-state speedup (rounds after the first,
// which is cold for both by construction) is cold wall / incremental wall,
// so above 1 means the cache is faster; it is reported, not gated. In small
// mode a churn round (delta_servers > 0) whose incremental wall exceeds 1.1x
// the cold wall also fails the run.
//
// Writes BENCH_resolve.json with one record per round (both wall times, the
// step breakdowns, and the reuse telemetry: delta_servers, model_patched,
// solve_skipped), a steady-state summary record, and the uniform determinism
// record (cache-on vs cache-off targets compared bitwise across all rounds).
//
// Usage: bench_round_resolve [small] [churn=<percent>] [output.json]

#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/core/async_solver.h"
#include "src/util/rng.h"

using namespace ras;
using namespace ras::bench;

namespace {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  double churn_rate = 0.01;  // Mean fraction of servers changed per round.
  std::string out_path = DefaultOutputPath("BENCH_resolve.json");
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "small") == 0) {
      small = true;
    } else if (std::strncmp(argv[a], "churn=", 6) == 0) {
      churn_rate = std::atof(argv[a] + 6) / 100.0;
    } else {
      out_path = argv[a];
    }
  }

  PrintHeader("Round re-solve: cross-round incremental warm state (resolve cache)",
              "Section 7 runs the solver continuously; consecutive rounds differ by "
              "~1% of server state, so patching the cached model and skipping unchanged "
              "rounds must beat a from-scratch round with bitwise-identical targets");

  FleetOptions fleet_options;
  fleet_options.num_datacenters = 2;
  fleet_options.msbs_per_datacenter = small ? 3 : 4;
  fleet_options.racks_per_msb = small ? 6 : 12;
  fleet_options.servers_per_rack = small ? 8 : 24;
  fleet_options.seed = 4242;
  Fleet fleet = GenerateFleet(fleet_options);
  const size_t num_servers = fleet.topology.num_servers();
  std::printf("region: %zu servers, %zu racks, %zu MSBs\n", num_servers,
              fleet.topology.num_racks(), fleet.topology.num_msbs());

  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  Rng rng(909);
  const int num_services = small ? 10 : 24;
  // ~35% count utilisation: comfortable supply keeps the greedy warm start
  // near the LP bound. Count-based reservations with integral capacities keep
  // the LP relaxation tight (no rounding gap) and the equivalence classes
  // populous, so availability churn resizes classes instead of deleting them.
  const double budget = static_cast<double>(num_servers) * 0.35;
  for (int i = 0; i < num_services; ++i) {
    (void)*registry.Create(CountReservation(
        fleet.catalog, "svc-" + std::to_string(i),
        std::floor(rng.Uniform(0.5, 1.0) * budget / num_services + 0.5)));
  }

  const int kRounds = small ? 9 : 12;
  // Maintenance batch: ~3% of the fleet drained or returned together. A
  // fractional accumulator schedules batches so the realized mean churn
  // equals the configured rate exactly (no arrival-seed luck): at 1% churn a
  // batch lands every third round and the rounds between are quiet.
  const size_t batch_size = std::max<size_t>(1, num_servers * 3 / 100);
  std::printf("rounds: %d, churn: %.1f%% mean (batches of %zu servers every %.1f rounds), "
              "services: %d\n\n",
              kRounds, 100.0 * churn_rate, batch_size,
              static_cast<double>(batch_size) /
                  (churn_rate * static_cast<double>(num_servers)),
              num_services);

  BenchJsonWriter json("round_resolve");
  AddStandardMeta(json);
  json.Meta()
      .Set("servers", static_cast<int64_t>(num_servers))
      .Set("services", static_cast<int64_t>(num_services))
      .Set("rounds", kRounds)
      .Set("churn_rate", churn_rate)
      .Set("churn_batch_servers", static_cast<int64_t>(batch_size));

  SolverConfig inc_config;
  inc_config.incremental_resolve = true;
  SolverConfig cold_config;
  cold_config.incremental_resolve = false;
  AsyncSolver inc_solver(inc_config);
  AsyncSolver cold_solver(cold_config);

  std::printf("%-6s %6s %8s %8s %8s %9s %-14s\n", "round", "delta", "cold_s", "inc_s",
              "speedup", "targets", "reuse");
  bool all_match = true;
  // Smoke-mode regression guard: on any churn round (delta_servers > 0) the
  // incremental solver must not run slower than 1.1x the cold solver — the
  // warm path regressing below cold on exactly the rounds it exists for.
  bool smoke_regression = false;
  double cold_steady = 0.0;
  double inc_steady = 0.0;
  int64_t dual_resolves_total = 0;
  int64_t dual_iterations_total = 0;
  double churn_accum = 0.0;
  size_t churned_servers = 0;
  StepTimings cold_steps;
  StepTimings inc_steps;
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) {
      churn_accum += churn_rate * static_cast<double>(num_servers);
      if (churn_accum >= static_cast<double>(batch_size)) {
        churn_accum -= static_cast<double>(batch_size);
        churned_servers += batch_size;
        // A maintenance batch lands: flip availability of a random server
        // group (drain healthy servers, return drained ones).
        for (size_t k = 0; k < batch_size; ++k) {
          ServerId id = static_cast<ServerId>(
              rng.UniformInt(0, static_cast<int64_t>(num_servers) - 1));
          bool down = broker.record(id).unavailability != Unavailability::kNone;
          broker.SetUnavailability(id, down ? Unavailability::kNone
                                            : Unavailability::kUnplannedHardware);
        }
      }
    }
    SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);

    DecodedAssignment cold_decoded;
    double t0 = WallNow();
    auto cold_stats = cold_solver.SolveSnapshot(input, &cold_decoded);
    double cold_wall = WallNow() - t0;
    DecodedAssignment inc_decoded;
    t0 = WallNow();
    auto inc_stats = inc_solver.SolveSnapshot(input, &inc_decoded);
    double inc_wall = WallNow() - t0;
    if (!cold_stats.ok() || !inc_stats.ok()) {
      std::printf("round %d FAILED: %s / %s\n", round,
                  cold_stats.status().ToString().c_str(),
                  inc_stats.status().ToString().c_str());
      return 1;
    }
    const bool match = inc_decoded.targets == cold_decoded.targets;
    all_match = all_match && match;
    // Phase-1 telemetry: phase 2 re-selects its worst-offender subset every
    // round, so its cache entry legitimately misses under churn; phase 1 is
    // where the region-wide reuse story lives.
    const char* reuse = inc_stats->phase1.solve_skipped   ? "skipped"
                        : inc_stats->phase1.model_patched ? "patched"
                                                          : "cold";
    double speedup = inc_wall > 0.0 ? cold_wall / inc_wall : 1.0;
    std::printf("%-6d %6d %8.3f %8.3f %7.2fx %9s %-14s dual=%lld/%lld\n", round,
                inc_stats->delta_servers, cold_wall, inc_wall, speedup,
                match ? "match" : "MISMATCH", reuse,
                static_cast<long long>(inc_stats->dual_resolves),
                static_cast<long long>(inc_stats->dual_iterations));
    if (small && inc_stats->delta_servers > 0 && inc_wall > 1.1 * cold_wall) {
      std::printf("  ^ SMOKE REGRESSION: churn round ran %.2fx the cold wall "
                  "(limit 1.10x)\n", inc_wall / cold_wall);
      smoke_regression = true;
    }
    dual_resolves_total += inc_stats->dual_resolves;
    dual_iterations_total += inc_stats->dual_iterations;
    auto add_steps = [](StepTimings& acc, const SolveStats& s) {
      acc.ras_build_s += s.phase1.timings.ras_build_s + s.phase2.timings.ras_build_s;
      acc.solver_build_s +=
          s.phase1.timings.solver_build_s + s.phase2.timings.solver_build_s;
      acc.initial_state_s +=
          s.phase1.timings.initial_state_s + s.phase2.timings.initial_state_s;
      acc.mip_s += s.phase1.timings.mip_s + s.phase2.timings.mip_s;
    };
    if (round > 0) {
      cold_steady += cold_wall;
      inc_steady += inc_wall;
      add_steps(cold_steps, *cold_stats);
      add_steps(inc_steps, *inc_stats);
    }
    json.AddRecord()
        .Set("config", "round-" + std::to_string(round))
        .Set("round", round)
        .Set("cold_wall_s", cold_wall)
        .Set("incremental_wall_s", inc_wall)
        .Set("speedup", speedup)
        .Set("targets_match", match)
        .Set("delta_servers", inc_stats->delta_servers)
        .Set("model_patched", inc_stats->phase1.model_patched)
        .Set("solve_skipped", inc_stats->phase1.solve_skipped)
        .Set("dual_resolves", inc_stats->dual_resolves)
        .Set("dual_iterations", inc_stats->dual_iterations)
        .Set("cold_solver_build_s",
             cold_stats->phase1.timings.solver_build_s +
                 cold_stats->phase2.timings.solver_build_s)
        .Set("incremental_solver_build_s",
             inc_stats->phase1.timings.solver_build_s +
                 inc_stats->phase2.timings.solver_build_s)
        .Set("cold_mip_s",
             cold_stats->phase1.timings.mip_s + cold_stats->phase2.timings.mip_s)
        .Set("incremental_mip_s",
             inc_stats->phase1.timings.mip_s + inc_stats->phase2.timings.mip_s)
        .Set("cold_nodes", cold_stats->phase1.nodes + cold_stats->phase2.nodes)
        .Set("incremental_nodes", inc_stats->phase1.nodes + inc_stats->phase2.nodes)
        .Set("incremental_p1_mip_s", inc_stats->phase1.timings.mip_s)
        .Set("incremental_p2_mip_s", inc_stats->phase2.timings.mip_s)
        .Set("p2_model_patched", inc_stats->phase2.model_patched);
  }

  const int steady_rounds = kRounds - 1;
  double steady_speedup =
      inc_steady > 0.0 ? cold_steady / inc_steady : 1.0;
  double realized_churn = static_cast<double>(churned_servers) /
                          (static_cast<double>(steady_rounds) *
                           static_cast<double>(num_servers));
  std::printf("\nsteady state (rounds 1..%d, realized churn %.2f%%/round): "
              "cold %.3fs, incremental %.3fs -> %.2fx\n",
              kRounds - 1, 100.0 * realized_churn, cold_steady / steady_rounds,
              inc_steady / steady_rounds, steady_speedup);
  std::printf("  figure-8 steps, cold:        build=%.3fs initial=%.3fs mip=%.3fs\n",
              cold_steps.solver_build_s / steady_rounds,
              cold_steps.initial_state_s / steady_rounds, cold_steps.mip_s / steady_rounds);
  std::printf("  figure-8 steps, incremental: build=%.3fs initial=%.3fs mip=%.3fs\n",
              inc_steps.solver_build_s / steady_rounds,
              inc_steps.initial_state_s / steady_rounds, inc_steps.mip_s / steady_rounds);
  std::printf("dual simplex: %lld warm re-solves, %lld dual pivots across the run\n",
              static_cast<long long>(dual_resolves_total),
              static_cast<long long>(dual_iterations_total));
  std::printf("targets bitwise-identical across all rounds: %s\n",
              all_match ? "OK" : "MISMATCH");

  json.AddRecord()
      .Set("config", "steady-state")
      .Set("rounds_measured", steady_rounds)
      .Set("realized_churn_per_round", realized_churn)
      .Set("cold_wall_s", cold_steady / steady_rounds)
      .Set("incremental_wall_s", inc_steady / steady_rounds)
      .Set("speedup", steady_speedup)
      .Set("cold_solver_build_s", cold_steps.solver_build_s / steady_rounds)
      .Set("incremental_solver_build_s", inc_steps.solver_build_s / steady_rounds)
      .Set("cold_initial_state_s", cold_steps.initial_state_s / steady_rounds)
      .Set("incremental_initial_state_s", inc_steps.initial_state_s / steady_rounds)
      .Set("cold_mip_s", cold_steps.mip_s / steady_rounds)
      .Set("incremental_mip_s", inc_steps.mip_s / steady_rounds)
      .Set("dual_resolves", dual_resolves_total)
      .Set("dual_iterations", dual_iterations_total);
  AddDeterminismRecord(json, "cache-parity", all_match);

  if (!json.WriteFile(out_path)) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (smoke_regression) {
    std::printf("FAIL: a churn round's incremental wall exceeded 1.1x cold\n");
  }
  return (all_match && !smoke_regression) ? 0 : 1;
}
