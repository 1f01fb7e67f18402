// Shard-based region decomposition (paper §3.5.2): RAS scales the region-wide
// MIP by randomly partitioning servers into K shards, splitting each
// reservation's demand across them, and solving the shards independently.
// POP (Narayanan et al., SOSP'21) shows that random partitioning of granular
// allocation problems recovers near-optimal solutions at a fraction of the
// cost — the granularity here (thousands of interchangeable servers per
// reservation) is exactly the regime where that holds.
//
// The planner partitions at *rack* granularity: a rack is never split across
// shards, so the Ψ_K (rack) spread constraints remain exact inside each
// shard, and every shard samples racks from every MSB so the Ψ_F (MSB)
// spread and buffer terms stay meaningful against the shard's proportional
// demand share. The partition is deterministic in (shard_count, seed).

#ifndef RAS_SRC_SHARD_SHARD_PLANNER_H_
#define RAS_SRC_SHARD_SHARD_PLANNER_H_

#include <cstdint>
#include <vector>

#include "src/topology/topology.h"

namespace ras {

struct ShardPlanOptions {
  int shard_count = 1;
  // Every shard plan derives from this explicit seed — no ambient randomness,
  // so a (fleet seed, shard seed, K) triple always yields the same partition.
  uint64_t seed = 0x5A2D;
};

struct ShardPlan {
  int shard_count = 1;
  uint64_t seed = 0;
  std::vector<int> shard_of_rack;    // RackId -> shard index.
  std::vector<int> shard_of_server;  // ServerId -> shard index.
  std::vector<std::vector<ServerId>> servers;  // Per shard, ascending ids.

  int ShardOf(ServerId id) const { return shard_of_server[id]; }
  bool operator==(const ShardPlan&) const = default;
};

// Partitions the region's racks into `shard_count` shards: seeded shuffle of
// the rack list, then greedy assignment of each rack to the currently
// smallest shard (by server count). Balanced to within one rack, random in
// composition, rack-complete by construction. shard_count is clamped to
// [1, num_racks].
ShardPlan PlanShards(const RegionTopology& topology, const ShardPlanOptions& options);

// PlanShards memoized on what it reads: the options, the MSB of every rack
// and the rack of every server. A solver plans every sharded round over the
// same topology and K, so it plans once; a layout that differs in any of
// these gets a fresh plan. Keyed on content, never on the topology's
// address, so nothing invalidates it.
class ShardPlanCache {
 public:
  const ShardPlan& Get(const RegionTopology& topology, const ShardPlanOptions& options);

 private:
  bool Matches(const RegionTopology& topology, const ShardPlanOptions& options) const;

  bool valid_ = false;
  ShardPlanOptions options_;
  size_t num_msbs_ = 0;
  std::vector<MsbId> rack_msb_;
  std::vector<RackId> server_rack_;
  ShardPlan plan_;
};

// Auto-K heuristic: one shard per `target_servers_per_shard` servers, but
// never sharding a region small enough that the monolithic solve is already
// cheap (below 2x the target), never beyond `max_shards`, and never past the
// host's measured over-decomposition knee of 4 shards per usable CPU
// (`cpus` <= 0 queries UsableCpus(); the parameter exists so tests can pin
// it).
int AutoShardCount(size_t num_servers, size_t target_servers_per_shard = 2500,
                   int max_shards = 16, int cpus = 0);

// Resolves SolverConfig::shard_count into the K actually used:
//   1  -> monolithic (the pre-shard solve path, bit-for-bit),
//   >1 -> that K, clamped to the rack count,
//   0  -> AutoShardCount(num_servers), clamped to the rack count.
int EffectiveShardCount(int configured, size_t num_servers, size_t num_racks);

}  // namespace ras

#endif  // RAS_SRC_SHARD_SHARD_PLANNER_H_
