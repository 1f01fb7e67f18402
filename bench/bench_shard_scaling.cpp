// Shard scaling bench: the trajectory anchor for src/shard (§3.5.2's
// "smaller scopes solve faster" observation, POP-style random partitioning).
//
// Sweeps the shard count K over {1, 2, 4, 8} on one large synthetic region
// and, for each K, runs the full two-phase Async Solver solve with the
// region decomposed into K rack-complete shards. K=1 is the monolithic
// reference. Every K's merged targets are re-scored on a single monolithic
// reference model (counts -> warm start -> Objective), so the objective
// ratios compare like with like regardless of how the solve was decomposed.
//
// Writes BENCH_shard.json (via the common bench_json emitter) with wall
// time, region objective and ratio vs monolithic, stitch-repair moves, and
// the uniform determinism record (K=4 twice, targets compared bitwise).
//
// Usage: bench_shard_scaling [small] [output.json]

#include <chrono>
#include <cstring>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "bench/bench_json.h"
#include "src/core/async_solver.h"
#include "src/core/model_builder.h"

using namespace ras;
using namespace ras::bench;

namespace {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Re-scores a decoded assignment on the monolithic reference model: targets
// become per-(class, reservation) counts, MakeWarmStart fills in the
// auxiliary variables (moves, spread overflows, buffers, slacks), and the
// model prices the result. This is the region-wide objective the paper's
// quality comparisons use — identical machinery for every K.
struct ReferenceModel {
  std::vector<EquivalenceClass> classes;
  BuiltModel built;
  std::vector<int> class_of_server;           // ServerId -> class index.
  std::unordered_map<ReservationId, int> res_index;
  std::vector<std::unordered_map<int, size_t>> var_of;  // class -> res -> var.

  ReferenceModel(const SolveInput& input, const SolverConfig& config) {
    classes = BuildEquivalenceClasses(input, Scope::kMsb);
    built = BuildRasModel(input, classes, config, /*include_rack_spread=*/false);
    class_of_server.assign(input.servers.size(), -1);
    for (size_t c = 0; c < classes.size(); ++c) {
      for (ServerId s : classes[c].servers) {
        class_of_server[s] = static_cast<int>(c);
      }
    }
    for (size_t r = 0; r < input.reservations.size(); ++r) {
      res_index[input.reservations[r].id] = static_cast<int>(r);
    }
    var_of.resize(classes.size());
    for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
      const auto& av = built.assignment_vars[k];
      var_of[static_cast<size_t>(av.class_index)][av.reservation_index] = k;
    }
  }

  double Score(const SolveInput& input, const DecodedAssignment& decoded) const {
    std::vector<double> counts(built.assignment_vars.size(), 0.0);
    for (const auto& [server, res] : decoded.targets) {
      if (res == kUnassigned) {
        continue;
      }
      int c = class_of_server[server];
      auto r = res_index.find(res);
      if (c < 0 || r == res_index.end()) {
        continue;
      }
      auto var = var_of[static_cast<size_t>(c)].find(r->second);
      if (var != var_of[static_cast<size_t>(c)].end()) {
        counts[var->second] += 1.0;
      }
    }
    std::vector<double> x = MakeWarmStart(input, classes, built, counts);
    if (std::getenv("RAS_SHARD_BENCH_DEBUG") != nullptr) {
      auto cost_of = [&](VarId v) {
        return v >= 0 ? built.model.variable(v).cost *
                            x[static_cast<size_t>(v)]
                      : 0.0;
      };
      double acq = 0, mv = 0, shortf = 0, buf = 0, hoard = 0, spread = 0, aff = 0, quo = 0;
      for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
        acq += cost_of(built.assignment_vars[k].var);
      }
      for (VarId v : built.move_vars) mv += cost_of(v);
      for (VarId v : built.shortfall_vars) shortf += cost_of(v);
      for (VarId v : built.buffer_vars) buf += cost_of(v);
      for (VarId v : built.hoard_vars) hoard += cost_of(v);
      for (const auto& t : built.msb_spread_terms) spread += cost_of(t.var);
      for (const auto& t : built.rack_spread_terms) spread += cost_of(t.var);
      for (const auto& t : built.affinity_terms) {
        aff += cost_of(t.lo_slack) + cost_of(t.hi_slack);
      }
      for (const auto& t : built.quorum_terms) quo += cost_of(t.slack);
      std::printf("  [debug] acquire=%.0f move=%.0f shortfall=%.0f buffer=%.0f hoard=%.0f "
                  "spread=%.0f affinity=%.0f quorum=%.0f\n",
                  acq, mv, shortf, buf, hoard, spread, aff, quo);
    }
    return built.model.Objective(x);
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool small = false;
  std::string out_path = DefaultOutputPath("BENCH_shard.json");
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "small") == 0) {
      small = true;
    } else {
      out_path = argv[a];
    }
  }

  PrintHeader("Shard scaling: rack-complete region decomposition (K shards)",
              "§3.5.2 solves shards of the region independently; smaller MIPs are "
              "superlinearly cheaper, so K>1 must beat the monolithic wall time "
              "with the objective within a few percent after stitch repair");

  FleetOptions fleet_options;
  fleet_options.num_datacenters = 2;
  fleet_options.msbs_per_datacenter = small ? 3 : 4;
  fleet_options.racks_per_msb = small ? 6 : 18;
  fleet_options.servers_per_rack = small ? 8 : 36;
  fleet_options.seed = 4242;
  Fleet fleet = GenerateFleet(fleet_options);
  std::printf("region: %zu servers, %zu racks, %zu MSBs\n", fleet.topology.num_servers(),
              fleet.topology.num_racks(), fleet.topology.num_msbs());

  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  EnsureSharedBuffers(registry, fleet.topology, fleet.catalog, 0.02);
  auto profiles = MakePaperServiceProfiles();
  Rng rng(909);
  const int num_services = small ? 8 : 36;
  const double budget = static_cast<double>(fleet.topology.num_servers()) * 0.45;
  for (int i = 0; i < num_services; ++i) {
    const ServiceProfile& p = profiles[static_cast<size_t>(rng.UniformInt(0, 4))];
    ReservationSpec spec;
    spec.name = "svc-" + std::to_string(i);
    spec.capacity_rru = rng.Uniform(0.5, 1.0) * budget / num_services;
    spec.rru_per_type = BuildRruVector(fleet.catalog, p);
    (void)*registry.Create(spec);
  }
  SolveInput input = SnapshotSolveInput(broker, registry, fleet.catalog);

  SolverConfig base_config;
  ReferenceModel reference(input, base_config);
  std::printf("reference model: %zu rows, %zu vars, %zu nonzeros\n\n",
              reference.built.model.num_rows(), reference.built.model.num_variables(),
              reference.built.model.num_nonzeros());

  BenchJsonWriter json("shard_scaling");
  AddStandardMeta(json);
  json.Meta()
      .Set("servers", static_cast<int64_t>(fleet.topology.num_servers()))
      .Set("racks", static_cast<int64_t>(fleet.topology.num_racks()))
      .Set("services", static_cast<int64_t>(num_services));

  std::printf("%-8s %10s %12s %10s %8s %8s %10s %9s\n", "config", "wall_s", "objective",
              "obj_ratio", "repairs", "failed", "short_rru", "speedup");
  const int kShardCounts[] = {1, 2, 4, 8};
  double mono_wall = 0.0;
  double mono_objective = 0.0;
  std::vector<std::pair<ServerId, ReservationId>> k4_targets;
  bool all_ok = true;
  for (int k : kShardCounts) {
    SolverConfig config = base_config;
    config.shard_count = k;
    AsyncSolver solver(config);
    DecodedAssignment decoded;
    double t0 = WallNow();
    auto stats = solver.SolveSnapshot(input, &decoded);
    double wall = WallNow() - t0;
    if (!stats.ok()) {
      std::printf("K=%d FAILED: %s\n", k, stats.status().message().c_str());
      all_ok = false;
      continue;
    }
    double objective = reference.Score(input, decoded);
    if (std::getenv("RAS_SHARD_BENCH_DEBUG") != nullptr) {
      std::printf("  [debug] p1: rows=%zu vars=%zu mip=%.3fs setup=%.3fs | p2: rows=%zu "
                  "vars=%zu mip=%.3fs setup=%.3fs\n",
                  stats->phase1.model_rows, stats->phase1.model_variables,
                  stats->phase1.timings.mip_s, stats->phase1.timings.setup(),
                  stats->phase2.model_rows, stats->phase2.model_variables,
                  stats->phase2.timings.mip_s, stats->phase2.timings.setup());
    }
    if (k == 1) {
      mono_wall = wall;
      mono_objective = objective;
    }
    if (k == 4) {
      k4_targets = decoded.targets;
    }
    double ratio = mono_objective != 0.0 ? objective / mono_objective : 1.0;
    double speedup = wall > 0.0 ? mono_wall / wall : 1.0;
    std::printf("K=%-6d %10.3f %12.1f %10.4f %8zu %8zu %10.2f %8.2fx\n", k, wall, objective,
                ratio, stats->repair_moves, stats->failed_shards, stats->total_shortfall_rru,
                speedup);
    json.AddRecord()
        .Set("config", "K=" + std::to_string(k))
        .Set("shard_count", k)
        .Set("wall_s", wall)
        .Set("objective", objective)
        .Set("objective_ratio_vs_monolithic", ratio)
        .Set("repair_moves", static_cast<int64_t>(stats->repair_moves))
        .Set("failed_shards", static_cast<int64_t>(stats->failed_shards))
        .Set("shortfall_rru", stats->total_shortfall_rru)
        .Set("moves_total", static_cast<int64_t>(stats->moves_total))
        .Set("speedup_vs_monolithic", speedup);
  }

  // Determinism: the sharded path (plan -> split -> per-shard solves -> merge
  // -> repair) must be run-to-run reproducible. Re-run K=4 and compare the
  // merged target vector bitwise.
  bool deterministic = true;
  {
    SolverConfig config = base_config;
    config.shard_count = 4;
    AsyncSolver solver(config);
    DecodedAssignment decoded;
    auto stats = solver.SolveSnapshot(input, &decoded);
    deterministic = stats.ok() && decoded.targets == k4_targets;
  }
  std::printf("\nK=4 determinism (bitwise, repeated run): %s\n",
              deterministic ? "OK" : "MISMATCH");
  AddDeterminismRecord(json, "K4", deterministic);

  if (!json.WriteFile(out_path)) {
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return (deterministic && all_ok) ? 0 : 1;
}
