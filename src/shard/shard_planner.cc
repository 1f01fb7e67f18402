#include "src/shard/shard_planner.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "src/util/rng.h"
#include "src/util/thread_pool.h"

namespace ras {

int AutoShardCount(size_t num_servers, size_t target_servers_per_shard, int max_shards,
                   int cpus) {
  if (target_servers_per_shard == 0) {
    return 1;
  }
  if (num_servers < 2 * target_servers_per_shard) {
    return 1;
  }
  size_t k = (num_servers + target_servers_per_shard - 1) / target_servers_per_shard;
  // Shards beyond the machine's parallelism stop overlapping and start
  // queueing, and each extra shard adds split/merge/stitch overhead — the
  // measured knee on a 1-thread host sits at K=4 (bench/bench_shard_scaling:
  // 2.41x at K=4 vs 1.70x at K=8), so auto-K never over-decomposes past
  // 4 shards per usable CPU. Explicitly configured K is not clamped.
  size_t knee = static_cast<size_t>(4 * (cpus > 0 ? cpus : UsableCpus()));
  k = std::min(k, knee);
  return static_cast<int>(std::min<size_t>(k, static_cast<size_t>(std::max(1, max_shards))));
}

int EffectiveShardCount(int configured, size_t num_servers, size_t num_racks) {
  int k = configured == 0 ? AutoShardCount(num_servers) : std::max(1, configured);
  return static_cast<int>(std::min<size_t>(static_cast<size_t>(k), std::max<size_t>(1, num_racks)));
}

ShardPlan PlanShards(const RegionTopology& topology, const ShardPlanOptions& options) {
  assert(topology.finalized());
  ShardPlan plan;
  plan.seed = options.seed;
  plan.shard_count = EffectiveShardCount(std::max(1, options.shard_count),
                                         topology.num_servers(), topology.num_racks());
  plan.shard_of_rack.assign(topology.num_racks(), 0);
  plan.shard_of_server.assign(topology.num_servers(), 0);
  plan.servers.assign(static_cast<size_t>(plan.shard_count), {});

  // Stratified random sampling: racks are shuffled *within each MSB* and each
  // rack then lands on the currently smallest shard (ties -> lowest index).
  // Dealing MSB by MSB means every shard draws racks from every MSB (when the
  // MSB has at least K racks), so a shard's Ψ_F spread and buffer terms stay
  // meaningful against its demand share; the least-loaded rule keeps shard
  // sizes balanced to within one rack regardless of rack raggedness.
  std::vector<std::vector<RackId>> racks_by_msb(topology.num_msbs());
  for (RackId rack = 0; rack < topology.num_racks(); ++rack) {
    racks_by_msb[topology.rack_msb(rack)].push_back(rack);
  }
  Rng rng(options.seed);
  std::vector<size_t> load(static_cast<size_t>(plan.shard_count), 0);
  for (auto& racks : racks_by_msb) {
    rng.Shuffle(racks);
    for (RackId rack : racks) {
      int best = 0;
      for (int k = 1; k < plan.shard_count; ++k) {
        if (load[static_cast<size_t>(k)] < load[static_cast<size_t>(best)]) {
          best = k;
        }
      }
      plan.shard_of_rack[rack] = best;
      load[static_cast<size_t>(best)] += topology.ServersInRack(rack).size();
    }
  }

  // Server ids ascend within a rack and racks are visited in id order here,
  // so each shard's server list comes out ascending — deterministic merge
  // order downstream.
  for (RackId rack = 0; rack < topology.num_racks(); ++rack) {
    int shard = plan.shard_of_rack[rack];
    for (ServerId id : topology.ServersInRack(rack)) {
      plan.shard_of_server[id] = shard;
      plan.servers[static_cast<size_t>(shard)].push_back(id);
    }
  }
  for (auto& list : plan.servers) {
    std::sort(list.begin(), list.end());
  }
  return plan;
}

const ShardPlan& ShardPlanCache::Get(const RegionTopology& topology,
                                     const ShardPlanOptions& options) {
  if (!Matches(topology, options)) {
    plan_ = PlanShards(topology, options);
    options_ = options;
    num_msbs_ = topology.num_msbs();
    rack_msb_.resize(topology.num_racks());
    for (RackId rack = 0; rack < rack_msb_.size(); ++rack) {
      rack_msb_[rack] = topology.rack_msb(rack);
    }
    server_rack_.resize(topology.num_servers());
    for (ServerId id = 0; id < server_rack_.size(); ++id) {
      server_rack_[id] = topology.server(id).rack;
    }
    valid_ = true;
  }
  return plan_;
}

bool ShardPlanCache::Matches(const RegionTopology& topology,
                             const ShardPlanOptions& options) const {
  if (!valid_ || options.shard_count != options_.shard_count || options.seed != options_.seed ||
      topology.num_msbs() != num_msbs_ || topology.num_racks() != rack_msb_.size() ||
      topology.num_servers() != server_rack_.size()) {
    return false;
  }
  for (RackId rack = 0; rack < rack_msb_.size(); ++rack) {
    if (topology.rack_msb(rack) != rack_msb_[rack]) {
      return false;
    }
  }
  for (ServerId id = 0; id < server_rack_.size(); ++id) {
    if (topology.server(id).rack != server_rack_[id]) {
      return false;
    }
  }
  return true;
}

}  // namespace ras
