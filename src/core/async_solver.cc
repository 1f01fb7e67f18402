#include "src/core/async_solver.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <thread>
#include <unordered_set>

#include "src/core/initial_assignment.h"
#include "src/core/local_search.h"
#include "src/core/lp_rounding.h"
#include "src/core/rru_ledger.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/shard/demand_splitter.h"
#include "src/shard/shard_planner.h"
#include "src/shard/stitch_repair.h"
#include "src/util/logging.h"
#include "src/util/monotonic_time.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace ras {
namespace {

// Shared tail of every solve path: counts the moves `targets` make against
// the snapshot into `stats`, scores the targets' shortfall, and hands them
// out with the same move counts.
void FinishTargets(const SolveInput& input, std::vector<std::pair<ServerId, ReservationId>> targets,
                   SolveStats& stats, DecodedAssignment* decoded_out) {
  for (const auto& [server, res] : targets) {
    const ServerSolveState& before = input.servers[server];
    if (before.current != res) {
      ++stats.moves_total;
      (before.in_use ? stats.moves_in_use : stats.moves_idle)++;
    }
  }
  stats.total_shortfall_rru = RruLedger::OfTargets(input, targets).TotalShortfall();
  if (decoded_out != nullptr) {
    decoded_out->targets = std::move(targets);
    decoded_out->moves_total = stats.moves_total;
    decoded_out->moves_in_use = stats.moves_in_use;
    decoded_out->moves_idle = stats.moves_idle;
  }
}

// Round-level reuse summary: reuse "held" for the round when every phase that
// ran reused that way; the delta is phase 1's (region-wide) server delta.
void SummarizeReuse(SolveStats& stats) {
  stats.model_patched = stats.phase1.ran && stats.phase1.model_patched &&
                        (!stats.phase2.ran || stats.phase2.model_patched);
  stats.solve_skipped = stats.phase1.ran && stats.phase1.solve_skipped &&
                        (!stats.phase2.ran || stats.phase2.solve_skipped);
  stats.delta_servers = stats.phase1.delta_servers;
  stats.dual_resolves = stats.phase1.dual_resolves + stats.phase2.dual_resolves;
  stats.dual_iterations = stats.phase1.dual_iterations + stats.phase2.dual_iterations;
}

// Worst MIP status across shards: any shard stuck below feasible drags the
// aggregate down, matching how the supervisor interprets a monolithic solve.
MipStatus WorseOf(MipStatus a, MipStatus b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

// Folds one shard's phase stats into the sharded round's aggregate.
void AccumulatePhase(PhaseStats& into, const PhaseStats& from) {
  if (!from.ran) {
    return;
  }
  into.timings.ras_build_s += from.timings.ras_build_s;
  into.timings.solver_build_s += from.timings.solver_build_s;
  into.timings.initial_state_s += from.timings.initial_state_s;
  into.timings.mip_s += from.timings.mip_s;
  into.assignment_variables += from.assignment_variables;
  into.model_rows += from.model_rows;
  into.model_variables += from.model_variables;
  into.memory_bytes += from.memory_bytes;
  into.mip_status = into.ran ? WorseOf(into.mip_status, from.mip_status) : from.mip_status;
  into.objective += from.objective;
  into.best_bound += from.best_bound;
  into.warm_start_objective += from.warm_start_objective;
  into.nodes += from.nodes;
  into.dual_resolves += from.dual_resolves;
  into.dual_iterations += from.dual_iterations;
  // Reuse telemetry: the aggregate claims reuse only when every shard reused
  // that way; deltas sum, with any cold shard (-1) making the total unknown.
  if (into.ran) {
    into.model_patched = into.model_patched && from.model_patched;
    into.solve_skipped = into.solve_skipped && from.solve_skipped;
    into.delta_servers = (into.delta_servers < 0 || from.delta_servers < 0)
                             ? -1
                             : into.delta_servers + from.delta_servers;
  } else {
    into.model_patched = from.model_patched;
    into.solve_skipped = from.solve_skipped;
    into.delta_servers = from.delta_servers;
  }
  into.ran = true;
}

// Metrics recorded once per completed top-level solve (any mode; a sharded
// solve records its aggregate, never its shards). Record-only: nothing here
// is read back by the solver.
void RecordSolveMetrics(const SolveStats& stats) {
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  static obs::Counter& solves =
      reg.counter("ras_solver_solves_total", "Completed solves (all modes).");
  static obs::Counter& patched =
      reg.counter("ras_solver_model_patched_total", "Rounds that patched the cached model.");
  static obs::Counter& skipped =
      reg.counter("ras_solver_solves_skipped_total", "Rounds served by the skip-solve fast path.");
  static obs::Counter& moves =
      reg.counter("ras_solver_moves_total", "Server moves proposed by completed solves.");
  static obs::Counter& dual_resolves = reg.counter(
      "ras_solver_dual_resolves_total", "Node LPs re-optimized by the dual simplex kernel.");
  static obs::Counter& dual_iterations = reg.counter(
      "ras_solver_dual_iterations_total", "Dual simplex pivots across completed solves.");
  static obs::Histogram& seconds = reg.histogram(
      "ras_solver_solve_seconds", "End-to-end solve wall time.", 0.0, 30.0, 120);
  static obs::Histogram& delta = reg.histogram(
      "ras_solver_delta_servers", "Round-over-round server delta (warm rounds only).", 0.0,
      4096.0, 64);
  solves.Add();
  if (stats.model_patched) {
    patched.Add();
  }
  if (stats.solve_skipped) {
    skipped.Add();
  }
  moves.Add(static_cast<int64_t>(stats.moves_total));
  dual_resolves.Add(stats.dual_resolves);
  dual_iterations.Add(stats.dual_iterations);
  seconds.Observe(stats.total_seconds);
  if (stats.delta_servers >= 0) {
    delta.Observe(static_cast<double>(stats.delta_servers));
  }
}

}  // namespace

PhaseStart MakePhaseStart(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                          const BuiltModel& built) {
  // The greedy start, polished by a short local search: its relocate moves
  // fix spread cheaply, and the MIP then starts from, and can only improve
  // on, that incumbent.
  std::vector<double> counts = BuildInitialCounts(input, classes, built);
  // A polish of the greedy start accepts few moves. Every proposal is a
  // valid move, so 4,000 consecutive rejections end a polish with nothing
  // left to find in under a millisecond on a 576-server region; the library
  // default (150k) would take about 25 ms.
  constexpr int64_t kPolishStallLimit = 4000;
  LocalSearchOptions polish;
  polish.seed = 17;
  polish.stall_limit = kPolishStallLimit;
  counts = LocalSearchOptimize(input, classes, built, counts, polish).counts;
  return PhaseStart{MakeWarmStart(input, classes, built, counts),
                    MakeWarmStart(input, classes, built, built.initial_counts)};
}

MipResult SolvePhaseMip(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                        const BuiltModel& built, const MipOptions& mip_options,
                        const PhaseStart& start) {
  MipOptions options = mip_options;
  options.heuristic = MakeLpRoundingHeuristic(input, classes, built);
  return MipSolver(options).Solve(built.model, &start.warm, &start.root_start);
}

AsyncSolver::PhaseOutcome AsyncSolver::RunPhase(ResolveCache& cache, const SolveInput& input,
                                                const std::vector<EquivalenceClass>& classes,
                                                bool include_rack_spread,
                                                const std::vector<int>& subset,
                                                const MipOptions& mip_options,
                                                double snapshot_seconds, int phase) const {
  obs::SpanScope phase_span(obs::Tracer::Default(), phase == 2 ? "phase2" : "phase1");
  PhaseOutcome outcome;
  outcome.stats.ran = true;
  outcome.stats.timings.ras_build_s = snapshot_seconds;

  const bool cache_on = phase > 0 && config_.incremental_resolve;
  ResolveEntry* entry = cache_on ? &cache.entry(phase) : nullptr;

  // Solver build: when the cached model's layout fits this round (same phase
  // shape and subset, RoundDelta::patchable), SetRoundBounds re-targets it in
  // place; else, or when it refuses a bound, full symmetry-reduced
  // construction (the Figure-8 solver_build step the patch path eliminates).
  double t0 = util::MonotonicSeconds();
  RoundDelta delta;
  bool have_delta = false;
  bool patched = false;
  if (entry != nullptr && entry->valid && entry->include_rack_spread == include_rack_spread &&
      entry->subset == subset) {
    delta = ComputeRoundDelta(entry->input, input);
    delta.classes_structurally_equal =
        delta.reservations_structurally_equal && ClassStructureEqual(entry->classes, classes);
    have_delta = true;
    patched = delta.patchable() && SetRoundBounds(entry->built, input, classes, config_);
  }
  BuiltModel fresh;
  if (!patched) {
    fresh = BuildRasModel(input, classes, config_, include_rack_spread, subset);
  }
  BuiltModel& built = patched ? entry->built : fresh;
  outcome.stats.timings.solver_build_s = util::MonotonicSeconds() - t0;
  outcome.stats.model_patched = patched;
  outcome.stats.delta_servers = have_delta ? delta.delta_servers() : -1;
  outcome.stats.assignment_variables = built.num_assignment_variables();
  outcome.stats.model_rows = built.model.num_rows();
  outcome.stats.model_variables = built.model.num_variables();
  outcome.stats.memory_bytes = built.ModelMemoryBytes();

  std::vector<double> local_solution;
  const std::vector<double>* solution = nullptr;

  // Skip-solve fast path, checked before the greedy initial state so a
  // skipped round pays for neither the greedy construction nor the MIP. An
  // empty delta means the input is bitwise the cached round's input, and the
  // cold pipeline is deterministic — re-solving would recompute exactly the
  // cached incumbent. Returning it is parity-exact with no proof needed, even
  // when the cached solve was node-limited (kFeasible); the round reports the
  // cached round's true MIP status.
  if (patched && delta.empty()) {
    t0 = util::MonotonicSeconds();
    std::vector<double> cached = MakeWarmStart(input, classes, built, entry->counts);
    if (built.model.IsFeasible(cached, mip_options.integrality_tol * 10)) {
      const double cached_obj = built.model.Objective(cached);
      local_solution = std::move(cached);
      solution = &local_solution;
      outcome.stats.timings.initial_state_s = util::MonotonicSeconds() - t0;
      outcome.stats.mip_status = entry->mip_status;
      outcome.stats.nodes = 0;
      outcome.stats.objective = cached_obj;
      outcome.stats.warm_start_objective = cached_obj;
      outcome.stats.best_bound = entry->best_bound;
      outcome.stats.solve_skipped = true;
    }
  }

  if (solution == nullptr) {
    // Initial state, computed identically whether the model was patched or
    // rebuilt; the MIP below runs exactly as if cold, so incremental and cold
    // rounds produce identical targets.
    t0 = util::MonotonicSeconds();
    PhaseStart start = MakePhaseStart(input, classes, built);
    outcome.stats.warm_start_objective = built.model.Objective(start.warm);
    outcome.stats.timings.initial_state_s = util::MonotonicSeconds() - t0;

    t0 = util::MonotonicSeconds();
    MipResult mip = SolvePhaseMip(input, classes, built, mip_options, start);
    outcome.stats.timings.mip_s = util::MonotonicSeconds() - t0;
    outcome.stats.mip_status = mip.status;
    outcome.stats.nodes = mip.nodes;
    outcome.stats.dual_resolves = mip.dual_resolves;
    outcome.stats.dual_iterations = mip.lp_dual_iterations;
    if (mip.status == MipStatus::kOptimal || mip.status == MipStatus::kFeasible) {
      local_solution = std::move(mip.x);
      solution = &local_solution;
      outcome.stats.objective = mip.objective;
      outcome.stats.best_bound = mip.best_bound;
    } else {
      // MIP produced nothing usable: ship the greedy initial state,
      // exactly the paper's posture that a solve stopped early must still
      // yield a valid (possibly suboptimal) assignment.
      RAS_LOG(kWarning) << "MIP returned " << MipStatusName(mip.status)
                        << "; falling back to the greedy initial state";
      local_solution = std::move(start.warm);
      solution = &local_solution;
      outcome.stats.objective = outcome.stats.warm_start_objective;
      outcome.stats.best_bound = mip.best_bound;
    }
  }

  outcome.decoded = DecodeAssignment(input, classes, built, *solution);

  // Persist this round's warm state for the next: the (possibly freshly
  // built) model moves into the entry, along with the incumbent's assignment
  // counts, its bound, and its MIP status. A round whose MIP produced nothing
  // trustworthy leaves the entry invalid — the fallback greedy answer carries
  // no bound worth reusing.
  if (entry != nullptr) {
    const bool usable = outcome.stats.mip_status == MipStatus::kOptimal ||
                        outcome.stats.mip_status == MipStatus::kFeasible;
    if (!usable) {
      entry->valid = false;
    } else {
      // A skipped round keeps the cached counts (the model is unchanged);
      // every other round replaces them.
      if (!outcome.stats.solve_skipped) {
        entry->counts.resize(built.assignment_vars.size());
        for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
          entry->counts[k] = (*solution)[static_cast<size_t>(built.assignment_vars[k].var)];
        }
      }
      entry->input = input;
      entry->classes = classes;
      entry->include_rack_spread = include_rack_spread;
      entry->subset = subset;
      if (!patched) {
        entry->built = std::move(fresh);
      }
      entry->best_bound = outcome.stats.best_bound;
      entry->mip_status = outcome.stats.mip_status;
      entry->valid = true;
    }
  }

  {
    obs::MetricRegistry& reg = obs::MetricRegistry::Default();
    static obs::Counter& phases = reg.counter("ras_solver_phases_total", "Phase solves run.");
    static obs::Counter& nodes =
        reg.counter("ras_solver_mip_nodes_total", "Branch-and-bound nodes across phase solves.");
    static obs::Histogram& phase_seconds = reg.histogram(
        "ras_solver_phase_seconds", "Wall time of one phase (build + warm start + MIP).", 0.0,
        30.0, 120);
    phases.Add();
    nodes.Add(outcome.stats.nodes);
    const StepTimings& t = outcome.stats.timings;
    phase_seconds.Observe(t.solver_build_s + t.initial_state_s + t.mip_s);
    phase_span.set_value(outcome.stats.delta_servers);
  }
  return outcome;
}

Result<SolveStats> AsyncSolver::SolveSnapshot(const SolveInput& input,
                                              DecodedAssignment* decoded_out, SolveMode mode) {
  if (input.topology == nullptr || input.catalog == nullptr) {
    return Status::InvalidArgument("solve input missing topology or catalog");
  }
  if (fault_hook_) {
    Status injected = fault_hook_(mode);
    if (!injected.ok()) {
      // A faulted round leaves no trustworthy continuity to diff against;
      // whatever happens next must cold-start.
      InvalidateResolveCache();
      return injected;
    }
  }
  if (mode != SolveMode::kFullTwoPhase) {
    // Degraded ladder rungs run reduced pipelines whose outputs the
    // incremental machinery must never treat as a previous full round.
    InvalidateResolveCache();
  }

  // Shard decomposition (src/shard): K > 1 partitions the region and solves
  // the shards independently. shard_count == 1 resolves to 1 and runs
  // SolveMonolithic, bit-for-bit unchanged.
  const int shards = EffectiveShardCount(config_.shard_count, input.servers.size(),
                                         input.topology->num_racks());
  SolveStats stats = shards > 1 ? SolveSharded(input, decoded_out, mode, shards)
                                : SolveMonolithic(input, decoded_out, mode, resolve_cache_);
  RecordSolveMetrics(stats);
  return stats;
}

SolveStats AsyncSolver::SolveMonolithic(const SolveInput& input, DecodedAssignment* decoded_out,
                                        SolveMode mode, ResolveCache& cache) const {
  obs::SpanScope solve_span(obs::Tracer::Default(), "solve");
  double start = util::MonotonicSeconds();
  SolveStats stats;

  // ---- Phase 1: MSB granularity, region-wide ----
  double t0 = util::MonotonicSeconds();
  std::vector<EquivalenceClass> classes1 = BuildEquivalenceClasses(input, Scope::kMsb);
  double ras_build1 = util::MonotonicSeconds() - t0;
  // The incumbent rung is phase 1 with no search budget: the MIP returns its
  // warm start, the polished greedy start a search stopped early would ship.
  MipOptions phase1_mip = config_.phase1_mip;
  if (mode == SolveMode::kIncumbentOnly) {
    phase1_mip.max_nodes = 0;
  }
  PhaseOutcome phase1 = RunPhase(cache, input, classes1, /*include_rack_spread=*/false, {},
                                 phase1_mip, ras_build1, mode == SolveMode::kFullTwoPhase ? 1 : 0);
  stats.phase1 = phase1.stats;

  // Working assignment after phase 1.
  std::vector<std::pair<ServerId, ReservationId>> final_targets = phase1.decoded.targets;

  // ---- Phase 2: rack granularity for the worst rack offenders ----
  if (mode != SolveMode::kFullTwoPhase) {
    FinishTargets(input, std::move(final_targets), stats, decoded_out);
    stats.total_seconds = util::MonotonicSeconds() - start;
    SummarizeReuse(stats);
    return stats;
  }
  t0 = util::MonotonicSeconds();
  SolveInput input2 = input;  // Apply phase-1 targets as the new current state.
  for (const auto& [server, res] : final_targets) {
    input2.servers[server].current = res;
  }
  // Phase-2 selection (Section 3.5.2): take the reservations with the worst
  // rack-level objective until either this percentage is covered or the
  // assignment-variable budget is reached.
  constexpr double kPhase2ReservationPercent = 10.0;
  constexpr size_t kPhase2MaxAssignmentVars = 200000;
  // Rank reservations by phase 1's rack overflow above phase 2's thresholds.
  const RruLedger phase1_rru = RruLedger::OfTargets(input, final_targets);
  std::vector<double> overflow(input.reservations.size());
  for (size_t r = 0; r < overflow.size(); ++r) {
    overflow[r] = phase1_rru.RackOverflow(
        r, RackSpreadThreshold(input.reservations[r], config_, *input.topology));
  }
  std::vector<int> order(input.reservations.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<int>(i);
  }
  std::sort(order.begin(), order.end(),
            [&overflow](int a, int b) { return overflow[a] > overflow[b]; });
  std::vector<int> subset;
  size_t max_take = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(static_cast<double>(input.reservations.size()) *
                                       kPhase2ReservationPercent / 100.0)));
  for (int r : order) {
    if (subset.size() >= max_take || overflow[static_cast<size_t>(r)] <= 1e-9) {
      break;
    }
    subset.push_back(r);
  }
  double ras_build2 = util::MonotonicSeconds() - t0;

  if (!subset.empty()) {
    std::unordered_set<ReservationId> subset_ids;
    for (int r : subset) {
      subset_ids.insert(input.reservations[static_cast<size_t>(r)].id);
    }
    ClassFilter filter;
    filter.reservations = &subset_ids;
    t0 = util::MonotonicSeconds();
    std::vector<EquivalenceClass> classes2 =
        BuildEquivalenceClasses(input2, Scope::kRack, filter);
    ras_build2 += util::MonotonicSeconds() - t0;

    // Respect the assignment-variable budget: shrink the subset if a crude
    // upper bound (classes x subset reservations) exceeds it.
    while (subset.size() > 1 &&
           classes2.size() * subset.size() > kPhase2MaxAssignmentVars) {
      subset.pop_back();
      subset_ids.erase(input.reservations[static_cast<size_t>(order[subset.size()])].id);
      classes2 = BuildEquivalenceClasses(input2, Scope::kRack, filter);
    }

    PhaseOutcome phase2 = RunPhase(cache, input2, classes2, /*include_rack_spread=*/true, subset,
                                   config_.phase2_mip, ras_build2, /*phase=*/2);
    stats.phase2 = phase2.stats;

    // Merge: phase-2 targets override phase-1 for the servers it touched.
    // Ordered map: the merged target list comes straight out of iteration
    // order, already sorted by server id.
    std::map<ServerId, ReservationId> merged;
    for (const auto& [server, res] : final_targets) {
      merged[server] = res;
    }
    for (const auto& [server, res] : phase2.decoded.targets) {
      merged[server] = res;
    }
    final_targets.assign(merged.begin(), merged.end());
  }

  // ---- Final accounting against the original snapshot ----
  FinishTargets(input, std::move(final_targets), stats, decoded_out);
  stats.total_seconds = util::MonotonicSeconds() - start;
  SummarizeReuse(stats);
  return stats;
}

// RASLINT-HOT: the shard fan-out; shard worker bodies run inside it.
SolveStats AsyncSolver::SolveSharded(const SolveInput& input, DecodedAssignment* decoded_out,
                                     SolveMode mode, int shard_count) {
  obs::SpanScope fanout_span(obs::Tracer::Default(), "shard_fanout");
  fanout_span.set_value(shard_count);
  double start = util::MonotonicSeconds();
  ShardPlanOptions plan_options;
  plan_options.shard_count = shard_count;
  plan_options.seed = config_.shard_seed;
  ShardPlan plan = PlanShards(*input.topology, plan_options);
  ShardDemand demand = SplitDemand(input, plan);

  // Shard k's cache survives across rounds while the plan signature holds,
  // so a shard's warm state always meets the same shard's next sub-input
  // (incumbent affinity — the plan itself is deterministic in the seed and
  // topology, so shard k covers the same racks round over round). Any plan
  // change redraws shard boundaries and orphans all warm state at once.
  const bool plan_changed =
      shard_plan_count_ != shard_count || shard_plan_seed_ != config_.shard_seed ||
      shard_plan_topology_ != input.topology || shard_plan_servers_ != input.servers.size();
  if (plan_changed) {
    shard_caches_ = std::vector<ResolveCache>(static_cast<size_t>(shard_count));
    shard_plan_count_ = shard_count;
    shard_plan_seed_ = config_.shard_seed;
    shard_plan_topology_ = input.topology;
    shard_plan_servers_ = input.servers.size();
  }

  // One result slot per shard, written by pool workers as their shard
  // finishes and read back in shard order (so the merge is schedule-
  // independent) after the barrier. Workers solve outside the lock and only
  // move their finished result into its slot under it.
  struct ShardResult {
    SolveStats stats;
    DecodedAssignment decoded;
  };
  struct MergeState {
    Mutex mu;
    std::vector<ShardResult> slots GUARDED_BY(mu);
  } state;
  {
    MutexLock lock(&state.mu);  // No workers yet.
    state.slots.resize(static_cast<size_t>(shard_count));
  }
  // Captured before the fan-out: pool workers carry no thread-local span
  // context, so each per-shard span names the fan-out span explicitly.
  const uint64_t trace_parent = obs::CurrentSpanId();
  auto run_shard = [&](int shard) {
    SolveInput shard_input = MakeShardInput(input, plan, demand, shard);
    if (shard_input.reservations.empty()) {
      return;  // No span member placed demand here; the slot stays empty.
    }
    obs::SpanScope shard_span(obs::Tracer::Default(), "shard", trace_parent);
    shard_span.set_value(shard);
    const double t0 = util::MonotonicSeconds();
    ShardResult result;
    result.stats = SolveMonolithic(shard_input, &result.decoded, mode,
                                   shard_caches_[static_cast<size_t>(shard)]);
    static obs::Histogram& shard_seconds = obs::MetricRegistry::Default().histogram(
        "ras_shard_solve_seconds", "Wall time of one shard's sub-solve.", 0.0, 30.0, 120);
    shard_seconds.Observe(util::MonotonicSeconds() - t0);
    MutexLock lock(&state.mu);
    state.slots[static_cast<size_t>(shard)] = std::move(result);
  };
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = std::min(shard_count, std::max(1, hw));
  if (threads <= 1) {
    for (int shard = 0; shard < shard_count; ++shard) {
      run_shard(shard);
    }
  } else {
    ThreadPool pool(threads);
    for (int shard = 0; shard < shard_count; ++shard) {
      pool.Submit([&run_shard, shard] { run_shard(shard); });
    }
    pool.Wait();
  }

  // Merge in shard order. The pool's Wait() barrier has passed, but the merge
  // still reads the slots under the lock.
  SolveStats stats;
  stats.shard_count = shard_count;
  std::vector<std::pair<ServerId, ReservationId>> targets;
  {
    MutexLock lock(&state.mu);
    for (const ShardResult& result : state.slots) {
      AccumulatePhase(stats.phase1, result.stats.phase1);
      AccumulatePhase(stats.phase2, result.stats.phase2);
      targets.insert(targets.end(), result.decoded.targets.begin(),
                     result.decoded.targets.end());
    }
  }
  // Every available server no sub-solve covered — one frozen because its
  // reservation lies outside its shard's span — keeps its snapshot binding.
  std::vector<char> covered(input.servers.size(), 0);
  for (const auto& target : targets) {
    covered[target.first] = 1;
  }
  for (ServerId id = 0; id < input.servers.size(); ++id) {
    if (input.servers[id].available && !covered[id]) {
      targets.emplace_back(id, input.servers[id].current);
    }
  }
  std::sort(targets.begin(), targets.end());
  SummarizeReuse(stats);

  // Stitch repair: rounding losses and shard-local infeasibilities are fixed
  // region-wide, across shard boundaries.
  StitchRepairOptions repair_options;
  // Spread rebalance uses the same Ψ_F thresholds the model charges beta
  // against, so repair moves pay down exactly the penalty the merge created.
  for (const ReservationSpec& spec : input.reservations) {
    repair_options.msb_spread_thresholds.push_back(
        MsbSpreadThreshold(spec, config_, *input.topology));
  }
  StitchRepairStats repair = RepairShortfalls(input, targets, repair_options);
  stats.repair_moves = repair.moves();
  stats.repair_shortfall_before_rru = repair.shortfall_before_rru;

  FinishTargets(input, std::move(targets), stats, decoded_out);
  stats.total_seconds = util::MonotonicSeconds() - start;
  static obs::Counter& repair_moves = obs::MetricRegistry::Default().counter(
      "ras_shard_repair_moves_total", "Moves made by cross-shard stitch repair.");
  repair_moves.Add(static_cast<int64_t>(stats.repair_moves));
  return stats;
}

void AsyncSolver::InvalidateResolveCache() {
  resolve_cache_.Invalidate();
  for (ResolveCache& cache : shard_caches_) {
    cache.Invalidate();
  }
}

Result<SolveStats> AsyncSolver::SolveOnce(ResourceBroker& broker,
                                          const ReservationRegistry& registry,
                                          const HardwareCatalog& catalog, SolveMode mode) {
  double t0 = util::MonotonicSeconds();
  SolveInput input = SnapshotSolveInput(broker, registry, catalog);
  double snapshot_s = util::MonotonicSeconds() - t0;

  DecodedAssignment decoded;
  Result<SolveStats> stats = SolveSnapshot(input, &decoded, mode);
  if (!stats.ok()) {
    return stats;
  }
  stats->phase1.timings.ras_build_s += snapshot_s;
  stats->total_seconds += snapshot_s;

  // Persist the binding intent (Figure 6, step 3) — all-or-nothing, so a
  // broker write failure cannot strand a half-applied target set.
  Status persisted = broker.ApplyTargets(decoded.targets);
  if (!persisted.ok()) {
    // The rolled-back broker no longer matches the round the cache just
    // recorded as "previous"; the next round must re-derive from scratch.
    InvalidateResolveCache();
    return persisted;
  }
  return stats;
}

}  // namespace ras
