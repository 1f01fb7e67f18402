#include "src/shard/demand_splitter.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>

namespace ras {

std::vector<double> SplitByLargestRemainder(double total, const std::vector<double>& weights) {
  std::vector<double> shares(weights.size(), 0.0);
  if (weights.empty() || total <= 0.0) {
    return shares;
  }
  double weight_sum = 0.0;
  for (double w : weights) {
    if (w > 0.0) {
      weight_sum += w;
    }
  }
  if (weight_sum <= 0.0) {
    shares[0] = total;
    return shares;
  }

  // Integer largest-remainder over the whole-RRU part of the demand. The
  // subtraction total - floor(total) is exact in IEEE double, so the
  // fractional residue carries no rounding error of its own.
  const double whole = std::floor(total);
  const double frac = total - whole;
  const int64_t units = static_cast<int64_t>(whole);

  std::vector<int64_t> base(weights.size(), 0);
  std::vector<double> remainder(weights.size(), -1.0);
  int64_t assigned = 0;
  for (size_t k = 0; k < weights.size(); ++k) {
    if (weights[k] <= 0.0) {
      continue;
    }
    double quota = whole * (weights[k] / weight_sum);
    base[k] = static_cast<int64_t>(std::floor(quota));
    remainder[k] = quota - static_cast<double>(base[k]);
    assigned += base[k];
  }

  // Distribute the leftover units to the largest remainders (ties -> lowest
  // shard index, so the split is deterministic).
  std::vector<size_t> order;
  order.reserve(weights.size());
  for (size_t k = 0; k < weights.size(); ++k) {
    if (weights[k] > 0.0) {
      order.push_back(k);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&remainder](size_t a, size_t b) {
    return remainder[a] > remainder[b];
  });
  int64_t leftover = units - assigned;
  for (size_t i = 0; leftover > 0; i = (i + 1) % order.size()) {
    ++base[order[i]];
    --leftover;
  }
  // Floating-point quota drift can (rarely) over-assign by a unit; claw it
  // back from the smallest remainders so conservation stays exact.
  for (size_t i = order.size(); leftover < 0 && i > 0; --i) {
    if (base[order[i - 1]] > 0) {
      --base[order[i - 1]];
      ++leftover;
    }
  }

  for (size_t k = 0; k < weights.size(); ++k) {
    shares[k] = static_cast<double>(base[k]);
  }
  if (frac > 0.0) {
    shares[order.front()] += frac;
  }
  return shares;
}

ShardDemand SplitDemand(const SolveInput& input, const ShardPlan& plan) {
  ShardDemand demand;
  const size_t num_res = input.reservations.size();
  const size_t num_shards = static_cast<size_t>(plan.shard_count);
  demand.usable_rru.assign(num_res, std::vector<double>(num_shards, 0.0));
  demand.shares.assign(num_res, std::vector<double>(num_shards, 0.0));
  demand.span.assign(num_res, {});
  demand.reservations.assign(num_shards, input.reservations);

  // Per-(reservation, shard) usable capacity and incumbent footprint, one
  // pass over the fleet.
  std::vector<std::vector<double>> current_rru(num_res,
                                               std::vector<double>(num_shards, 0.0));
  const RegionTopology& topo = *input.topology;
  for (size_t shard = 0; shard < num_shards; ++shard) {
    for (ServerId id : plan.servers[shard]) {
      if (!input.servers[id].available) {
        continue;  // Unavailable servers supply nothing, in any shard.
      }
      const HardwareTypeId type = topo.server(id).type;
      for (size_t r = 0; r < num_res; ++r) {
        demand.usable_rru[r][shard] += input.reservations[r].ValueOfType(type);
        if (input.servers[id].current == input.reservations[r].id) {
          current_rru[r][shard] += input.reservations[r].ValueOfType(type);
        }
      }
    }
  }

  // Big reservations first: their (multi-shard) spans are placed while the
  // load picture is still empty, then small ones slot into the gaps.
  std::vector<size_t> order(num_res);
  for (size_t r = 0; r < num_res; ++r) {
    order[r] = r;
  }
  std::stable_sort(order.begin(), order.end(), [&input](size_t a, size_t b) {
    return input.reservations[a].capacity_rru > input.reservations[b].capacity_rru;
  });

  std::vector<double> load(num_shards, 0.0);
  for (size_t r : order) {
    const double capacity = input.reservations[r].capacity_rru;
    double total_usable = 0.0;
    for (double u : demand.usable_rru[r]) {
      total_usable += u;
    }

    std::vector<double> weights = demand.usable_rru[r];
    if (total_usable > 0.0 && capacity > 0.0) {
      const double target = kSpanMaxFill * total_usable / static_cast<double>(num_shards);
      const size_t span_n = std::max<size_t>(
          1, std::min(static_cast<size_t>(std::ceil(capacity / target)), num_shards));

      std::vector<size_t> candidates;
      for (size_t k = 0; k < num_shards; ++k) {
        if (demand.usable_rru[r][k] > 0.0) {
          candidates.push_back(k);
        }
      }
      std::stable_sort(candidates.begin(), candidates.end(), [&](size_t a, size_t b) {
        if (current_rru[r][a] != current_rru[r][b]) {
          return current_rru[r][a] > current_rru[r][b];
        }
        return load[a] < load[b];
      });
      if (span_n < candidates.size()) {
        candidates.resize(span_n);
      }
      weights.assign(num_shards, 0.0);
      for (size_t k : candidates) {
        weights[k] = demand.usable_rru[r][k];
      }
    }

    demand.shares[r] = SplitByLargestRemainder(capacity, weights);
    for (size_t shard = 0; shard < num_shards; ++shard) {
      demand.reservations[shard][r].capacity_rru = demand.shares[r][shard];
      load[shard] += demand.shares[r][shard];
      if (demand.shares[r][shard] > 0.0) {
        demand.span[r].push_back(static_cast<int>(shard));
      }
    }
  }
  return demand;
}

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

}  // namespace ras
