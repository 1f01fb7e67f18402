#include "src/shard/shard_solve.h"

#include <algorithm>
#include <thread>
#include <unordered_set>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/util/monotonic_time.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"
#include "src/util/thread_pool.h"

namespace ras {
namespace {

// Worst MIP status across shards: any shard stuck below feasible drags the
// aggregate down, matching how the supervisor interprets a monolithic solve.
MipStatus WorseOf(MipStatus a, MipStatus b) {
  return static_cast<int>(a) >= static_cast<int>(b) ? a : b;
}

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

struct ShardResult {
  Status status;
  SolveStats stats;
  DecodedAssignment decoded;
  double wall_seconds = 0.0;
};

// The coordinator's merge state: one result slot per shard, written by pool
// workers as their shard finishes and read back (in shard order, so the merge
// is schedule-independent) after the barrier. Workers solve outside the lock
// and only move their finished ShardResult into its slot under it.
struct MergeState {
  Mutex mu;
  std::vector<ShardResult> slots GUARDED_BY(mu);
};

}  // namespace

SolveInput MakeShardInput(const SolveInput& region, const ShardPlan& plan,
                          const ShardDemand& demand, int shard) {
  SolveInput input = region;
  input.reservations.clear();
  // Lookup-only (never iterated): membership test while copying `region`,
  // whose own order drives the shard input.
  std::unordered_set<ReservationId> in_span;
  for (const ReservationSpec& spec : demand.reservations[static_cast<size_t>(shard)]) {
    if (spec.capacity_rru > 0.0) {
      input.reservations.push_back(spec);
      in_span.insert(spec.id);
    }
  }
  for (ServerId id = 0; id < input.servers.size(); ++id) {
    ServerSolveState& state = input.servers[id];
    const bool in_shard = plan.shard_of_server[id] == shard;
    const bool frozen =
        in_shard && state.current != kUnassigned && in_span.count(state.current) == 0;
    if (!in_shard || frozen) {
      // Invisible to this shard's solve. The binding is cleared only in the
      // sub-input (an unavailable server may reference a reservation this
      // shard does not carry); the merge emits snapshot bindings for every
      // available server the sub-solves did not cover.
      state.available = false;
      state.current = kUnassigned;
      state.in_use = false;
    }
  }
  return input;
}

// RASLINT-HOT: shard worker bodies run inside this fan-out.
ShardSolveOutcome SolveShards(const SolveInput& input, const ShardPlan& plan,
                              const ShardDemand& demand, const ShardSolveFn& solve_shard,
                              const ShardSolveOptions& options) {
  ShardSolveOutcome outcome;
  const int shard_count = plan.shard_count;
  const double start = util::MonotonicSeconds();

  MergeState state;
  {
    MutexLock lock(&state.mu);  // No workers yet.
    state.slots.resize(static_cast<size_t>(shard_count));
  }
  // Captured before the fan-out: pool workers carry no thread-local span
  // context, so each per-shard span names the coordinator's span explicitly.
  const uint64_t trace_parent = obs::CurrentSpanId();
  auto run_shard = [&](int shard) {
    ShardResult result;
    SolveInput shard_input = MakeShardInput(input, plan, demand, shard);
    if (shard_input.reservations.empty()) {
      return;  // No span member placed demand here; the slot stays empty-OK.
    }
    obs::SpanScope shard_span(obs::Tracer::Default(), "shard", trace_parent);
    shard_span.set_value(shard);
    double t0 = util::MonotonicSeconds();
    Result<SolveStats> solved = solve_shard(shard, shard_input, &result.decoded);
    result.wall_seconds = util::MonotonicSeconds() - t0;
    static obs::Histogram& shard_seconds = obs::MetricRegistry::Default().histogram(
        "ras_shard_solve_seconds", "Wall time of one shard's sub-solve.", 0.0, 30.0, 120);
    shard_seconds.Observe(result.wall_seconds);
    if (solved.ok()) {
      result.stats = *solved;
    } else {
      result.status = solved.status();
    }
    MutexLock lock(&state.mu);
    state.slots[static_cast<size_t>(shard)] = std::move(result);
  };

  int hw = static_cast<int>(std::thread::hardware_concurrency());
  int threads = options.threads > 0 ? options.threads : std::min(shard_count, std::max(1, hw));
  threads = std::min(threads, shard_count);
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

  // Merge in shard order; each result slot is fixed, so the merged target
  // set is independent of worker scheduling. The pool's Wait() barrier has
  // passed, but the merge still reads the slots under the lock.
  MutexLock lock(&state.mu);
  Status first_error;
  size_t succeeded = 0;
  outcome.aggregate.shard_count = shard_count;
  std::vector<char> covered(input.servers.size(), 0);
  for (int shard = 0; shard < shard_count; ++shard) {
    ShardResult& result = state.slots[static_cast<size_t>(shard)];
    ShardOutcomeSummary summary;
    summary.shard = shard;
    summary.status = result.status;
    summary.wall_seconds = result.wall_seconds;
    if (result.status.ok()) {
      ++succeeded;
      summary.servers = result.decoded.targets.size();
      summary.objective = result.stats.phase1.objective + result.stats.phase2.objective;
      summary.shortfall_rru = result.stats.total_shortfall_rru;
      AccumulatePhase(outcome.aggregate.phase1, result.stats.phase1);
      AccumulatePhase(outcome.aggregate.phase2, result.stats.phase2);
      outcome.aggregate.total_shortfall_rru += result.stats.total_shortfall_rru;
      for (const auto& target : result.decoded.targets) {
        covered[target.first] = 1;
        outcome.merged.targets.push_back(target);
      }
    } else {
      if (first_error.ok()) {
        first_error = result.status;
      }
      ++outcome.aggregate.failed_shards;
    }
    outcome.shards.push_back(std::move(summary));
  }
  // Every available server a sub-solve did not cover — a failed shard's whole
  // population, servers frozen because their reservation lies outside the
  // shard's span — keeps its snapshot binding; whatever capacity that leaves
  // short is StitchRepair's problem.
  for (int shard = 0; shard < shard_count; ++shard) {
    for (ServerId id : plan.servers[static_cast<size_t>(shard)]) {
      if (input.servers[id].available && !covered[id]) {
        outcome.merged.targets.emplace_back(id, input.servers[id].current);
        ++outcome.shards[static_cast<size_t>(shard)].servers;
      }
    }
  }
  std::sort(outcome.merged.targets.begin(), outcome.merged.targets.end());
  outcome.aggregate.total_seconds = util::MonotonicSeconds() - start;
  outcome.status = succeeded > 0 ? Status::Ok()
                                 : (first_error.ok() ? Status::Internal("no shards to solve")
                                                     : first_error);
  return outcome;
}

}  // namespace ras
