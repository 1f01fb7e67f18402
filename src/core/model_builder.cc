#include "src/core/model_builder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

namespace ras {
namespace {

// Per-reservation collection of assignment variables grouped by a location
// scope, used to emit group-sum rows (buffer, spread, affinity).
struct GroupedVars {
  // group id -> list of (assignment var, RRU value).
  std::map<uint32_t, std::vector<std::pair<VarId, double>>> by_group;
};

}  // namespace

size_t BuiltModel::ModelMemoryBytes() const {
  // Columns add roughly 12 bytes per nonzero (index + value) when the
  // simplex transposes them.
  return model.MemoryBytes() + model.num_nonzeros() * 12 +
         assignment_vars.size() * sizeof(AssignmentVar);
}

size_t BuiltModel::EstimatedMemoryBytes() const {
  size_t m = model.num_rows();
  return ModelMemoryBytes() + m * m * sizeof(double);
}

double MsbSpreadThreshold(const ReservationSpec& spec, const SolverConfig& config,
                          const RegionTopology& topo) {
  const double alpha_f = spec.msb_spread_alpha > 0.0
                             ? spec.msb_spread_alpha
                             : config.msb_alpha_factor / static_cast<double>(topo.num_msbs());
  return std::max(alpha_f * spec.capacity_rru, config.min_spread_threshold_rru);
}

double RackSpreadThreshold(const ReservationSpec& spec, const SolverConfig& config,
                           const RegionTopology& topo) {
  const double alpha_k = spec.rack_spread_alpha > 0.0
                             ? spec.rack_spread_alpha
                             : config.rack_alpha_factor / static_cast<double>(topo.num_racks());
  return std::max(alpha_k * spec.capacity_rru, config.min_spread_threshold_rru);
}

BuiltModel BuildRasModel(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                         const SolverConfig& config, bool include_rack_spread,
                         const std::vector<int>& reservation_subset) {
  assert(input.topology != nullptr && input.catalog != nullptr);
  const RegionTopology& topo = *input.topology;
  const size_t num_res = input.reservations.size();

  BuiltModel built;
  Model& model = built.model;
  built.shortfall_vars.assign(num_res, kNoVar);
  built.buffer_vars.assign(num_res, kNoVar);
  built.hoard_vars.assign(num_res, kNoVar);
  built.hoard_limits.assign(num_res, 0.0);
  built.class_to_vars.resize(classes.size());
  built.capacity_rows.assign(num_res, kNoRow);
  built.hoard_rows.assign(num_res, kNoRow);
  built.supply_rows.reserve(classes.size());

  // Which reservation indices participate in this build.
  std::vector<bool> in_subset(num_res, reservation_subset.empty());
  for (int r : reservation_subset) {
    in_subset[static_cast<size_t>(r)] = true;
  }

  // --- Assignment variables n[c][r] with Expression (5) supply rows, plus
  // Expression (1) move-out variables where the class currently sits in r ---
  std::vector<GroupedVars> msb_groups(num_res);
  std::vector<GroupedVars> rack_groups(num_res);
  std::vector<GroupedVars> dc_groups(num_res);

  for (size_t c = 0; c < classes.size(); ++c) {
    const EquivalenceClass& cls = classes[c];
    const double cls_count = static_cast<double>(cls.count());
    RowId supply = model.AddRow(-kInf, cls_count);
    built.supply_rows.push_back(supply);
    for (size_t r = 0; r < num_res; ++r) {
      if (!in_subset[r]) {
        continue;
      }
      const ReservationSpec& spec = input.reservations[r];
      double value = spec.ValueOfType(cls.type);
      if (value <= 0.0) {
        continue;
      }
      double acquire = (cls.current == spec.id) ? 0.0 : config.acquire_cost;
      VarId n = model.AddInteger(0, cls_count, acquire);
      model.AddCoefficient(supply, n, 1.0);
      int var_index = static_cast<int>(built.assignment_vars.size());
      built.assignment_vars.push_back(
          BuiltModel::AssignmentVar{n, static_cast<int>(c), static_cast<int>(r)});
      built.class_to_vars[c].push_back(var_index);

      double initial = (cls.current == spec.id) ? cls_count : 0.0;
      built.initial_counts.push_back(initial);
      if (initial > 0.0) {
        // o >= X - n, at Ms per server (Expression 1).
        double ms = cls.in_use ? config.move_cost_in_use : config.move_cost_idle;
        VarId o = model.AddContinuous(0, initial, ms);
        RowId move_row = model.AddRow(initial, kInf);
        model.AddCoefficient(move_row, n, 1.0);
        model.AddCoefficient(move_row, o, 1.0);
        built.move_vars.push_back(o);
        built.move_rows.push_back(move_row);
      } else {
        built.move_vars.push_back(kNoVar);
        built.move_rows.push_back(kNoRow);
      }

      msb_groups[r].by_group[cls.msb].push_back({n, value});
      if (include_rack_spread) {
        rack_groups[r].by_group[cls.group].push_back({n, value});
      }
      dc_groups[r].by_group[cls.dc].push_back({n, value});
    }
  }

  // --- Per-reservation constraints and objective terms ---
  for (size_t r = 0; r < num_res; ++r) {
    if (!in_subset[r]) {
      continue;
    }
    const ReservationSpec& spec = input.reservations[r];
    const double capacity = spec.capacity_rru;

    // Softened capacity slack: keeps the model feasible when the region
    // cannot satisfy the request; its cost dominates everything else so the
    // solver fixes capacity before optimizing spread or stability.
    VarId shortfall = model.AddContinuous(0, std::max(capacity, 0.0),
                                          config.capacity_soften_cost);
    built.shortfall_vars[r] = shortfall;

    // Expression (4): m_r tracks the worst-MSB exposure; tau minimizes it.
    VarId buffer_var = kNoVar;
    if (spec.needs_correlated_buffer) {
      buffer_var = model.AddContinuous(0, kInf, config.buffer_cost_tau);
      built.buffer_vars[r] = buffer_var;
      for (const auto& [group, vars] : msb_groups[r].by_group) {
        RowId row = model.AddRow(0, kInf);  // m_r - sum_G V*n >= 0.
        model.AddCoefficient(row, buffer_var, 1.0);
        for (const auto& [n, value] : vars) {
          model.AddCoefficient(row, n, -value);
        }
      }
    }

    // Expression (6): total RRUs minus the worst MSB must cover C_r.
    RowId cap_row = model.AddRow(capacity, kInf);
    built.capacity_rows[r] = cap_row;
    for (const auto& [group, vars] : msb_groups[r].by_group) {
      for (const auto& [n, value] : vars) {
        model.AddCoefficient(cap_row, n, value);
      }
    }
    if (buffer_var != kNoVar) {
      model.AddCoefficient(cap_row, buffer_var, -1.0);
    }
    model.AddCoefficient(cap_row, shortfall, 1.0);

    // Anti-hoarding: h >= total RRU - m_r - (1 + allowance) * C_r, at
    // hoarding_cost per RRU. Keeps granted capacity near C_r + buffer.
    double hoard_limit = (1.0 + config.hoarding_allowance) * capacity;
    VarId hoard = model.AddContinuous(0, kInf, config.hoarding_cost);
    built.hoard_vars[r] = hoard;
    built.hoard_limits[r] = hoard_limit;
    RowId hoard_row = model.AddRow(-kInf, hoard_limit);
    built.hoard_rows[r] = hoard_row;
    for (const auto& [group, vars] : msb_groups[r].by_group) {
      for (const auto& [n, value] : vars) {
        model.AddCoefficient(hoard_row, n, value);
      }
    }
    if (buffer_var != kNoVar) {
      model.AddCoefficient(hoard_row, buffer_var, -1.0);
    }
    model.AddCoefficient(hoard_row, hoard, -1.0);

    // Expression (3): MSB spread overflow at beta per RRU over alpha_F * C_r.
    const double msb_threshold = MsbSpreadThreshold(spec, config, topo);
    for (const auto& [group, vars] : msb_groups[r].by_group) {
      VarId w = model.AddContinuous(0, kInf, config.spread_penalty_beta);
      RowId row = model.AddRow(-kInf, msb_threshold);  // sum_G V*n - w <= thr.
      for (const auto& [n, value] : vars) {
        model.AddCoefficient(row, n, value);
      }
      model.AddCoefficient(row, w, -1.0);
      built.msb_spread_terms.push_back(
          BuiltModel::SpreadTerm{w, static_cast<int>(r), group, msb_threshold, row});
    }

    // Expression (2): rack spread, phase 2 only.
    if (include_rack_spread) {
      const double rack_threshold = RackSpreadThreshold(spec, config, topo);
      for (const auto& [group, vars] : rack_groups[r].by_group) {
        VarId w = model.AddContinuous(0, kInf, config.spread_penalty_beta);
        RowId row = model.AddRow(-kInf, rack_threshold);
        for (const auto& [n, value] : vars) {
          model.AddCoefficient(row, n, value);
        }
        model.AddCoefficient(row, w, -1.0);
        built.rack_spread_terms.push_back(
            BuiltModel::SpreadTerm{w, static_cast<int>(r), group, rack_threshold, row});
      }
    }

    // Storage quorum spread (Section 3.3.2): near-hard per-MSB cap so enough
    // replicas survive any single-MSB loss.
    if (spec.max_msb_fraction_hard > 0.0) {
      double limit = spec.max_msb_fraction_hard * capacity;
      for (const auto& [group, vars] : msb_groups[r].by_group) {
        VarId slack = model.AddContinuous(0, kInf, config.quorum_soften_cost);
        RowId row = model.AddRow(-kInf, limit);  // sum_G V*n - slack <= limit.
        for (const auto& [n, value] : vars) {
          model.AddCoefficient(row, n, value);
        }
        model.AddCoefficient(row, slack, -1.0);
        built.quorum_terms.push_back(
            BuiltModel::QuorumTerm{slack, static_cast<int>(r), group, limit, row});
      }
    }

    // Expression (7): network affinity, softened per Section 3.5.1.
    for (const auto& [dc, share] : spec.dc_affinity) {
      double lo = std::max(0.0, (share - spec.affinity_theta)) * capacity;
      double hi = (share + spec.affinity_theta) * capacity;
      VarId lo_slack = model.AddContinuous(0, kInf, config.affinity_soften_cost);
      VarId hi_slack = model.AddContinuous(0, kInf, config.affinity_soften_cost);
      RowId lo_row = model.AddRow(lo, kInf);  // sum_dc V*n + s_lo >= lo.
      RowId hi_row = model.AddRow(-kInf, hi);  // sum_dc V*n - s_hi <= hi.
      auto it = dc_groups[r].by_group.find(dc);
      if (it != dc_groups[r].by_group.end()) {
        for (const auto& [n, value] : it->second) {
          model.AddCoefficient(lo_row, n, value);
          model.AddCoefficient(hi_row, n, value);
        }
      }
      model.AddCoefficient(lo_row, lo_slack, 1.0);
      model.AddCoefficient(hi_row, hi_slack, -1.0);
      built.affinity_terms.push_back(BuiltModel::AffinityTerm{lo_slack, hi_slack,
                                                              static_cast<int>(r), dc, lo, hi,
                                                              lo_row, hi_row});
    }
  }

  // Warm the compressed-column cache: every LP solver over this model now
  // copies the cached form instead of rebuilding it, and PatchRasModel's
  // bound-only updates keep it valid across rounds.
  built.model.EnsureCompressedCache();
  return built;
}

bool PatchRasModel(BuiltModel& built, const SolveInput& input,
                   const std::vector<EquivalenceClass>& classes, const SolverConfig& config,
                   bool include_rack_spread, const std::vector<int>& reservation_subset) {
  assert(input.topology != nullptr && input.catalog != nullptr);
  const RegionTopology& topo = *input.topology;
  const size_t num_res = input.reservations.size();
  Model& model = built.model;

  if (built.supply_rows.size() != classes.size() ||
      built.class_to_vars.size() != classes.size() || built.shortfall_vars.size() != num_res ||
      built.capacity_rows.size() != num_res ||
      built.move_rows.size() != built.assignment_vars.size() ||
      (!include_rack_spread && !built.rack_spread_terms.empty())) {
    return false;
  }

  std::vector<bool> in_subset(num_res, reservation_subset.empty());
  for (int r : reservation_subset) {
    if (r < 0 || static_cast<size_t>(r) >= num_res) {
      return false;
    }
    in_subset[static_cast<size_t>(r)] = true;
  }

  // --- Assignment variables: re-derive the builder's (class, reservation)
  // sequence; any divergence from the recorded sequence means the structure
  // changed and the caller must rebuild. ---
  size_t k = 0;
  for (size_t c = 0; c < classes.size(); ++c) {
    const EquivalenceClass& cls = classes[c];
    const double cls_count = static_cast<double>(cls.count());
    model.UpdateRowBounds(built.supply_rows[c], -kInf, cls_count);
    for (size_t r = 0; r < num_res; ++r) {
      if (!in_subset[r]) {
        continue;
      }
      const ReservationSpec& spec = input.reservations[r];
      double value = spec.ValueOfType(cls.type);
      if (value <= 0.0) {
        continue;
      }
      if (k >= built.assignment_vars.size() ||
          built.assignment_vars[k].class_index != static_cast<int>(c) ||
          built.assignment_vars[k].reservation_index != static_cast<int>(r)) {
        return false;
      }
      const VarId n = built.assignment_vars[k].var;
      model.UpdateVariableBounds(n, 0, cls_count);
      model.UpdateObjectiveCost(n, (cls.current == spec.id) ? 0.0 : config.acquire_cost);
      const double initial = (cls.current == spec.id) ? cls_count : 0.0;
      built.initial_counts[k] = initial;
      const bool has_move = built.move_vars[k] != kNoVar;
      if ((initial > 0.0) != has_move || (built.move_rows[k] != kNoRow) != has_move) {
        return false;  // A move-out row exists iff the class currently sits in r.
      }
      if (has_move) {
        double ms = cls.in_use ? config.move_cost_in_use : config.move_cost_idle;
        model.UpdateVariableBounds(built.move_vars[k], 0, initial);
        model.UpdateObjectiveCost(built.move_vars[k], ms);
        model.UpdateRowBounds(built.move_rows[k], initial, kInf);
      }
      ++k;
    }
  }
  if (k != built.assignment_vars.size()) {
    return false;
  }

  // --- Per-reservation size-dependent bounds ---
  size_t expected_affinity_terms = 0;
  for (size_t r = 0; r < num_res; ++r) {
    if (!in_subset[r]) {
      if (built.shortfall_vars[r] != kNoVar) {
        return false;
      }
      continue;
    }
    const ReservationSpec& spec = input.reservations[r];
    const double capacity = spec.capacity_rru;
    if (built.shortfall_vars[r] == kNoVar || built.capacity_rows[r] == kNoRow ||
        built.hoard_rows[r] == kNoRow ||
        spec.needs_correlated_buffer != (built.buffer_vars[r] != kNoVar)) {
      return false;
    }
    expected_affinity_terms += spec.dc_affinity.size();
    model.UpdateVariableBounds(built.shortfall_vars[r], 0, std::max(capacity, 0.0));
    model.UpdateRowBounds(built.capacity_rows[r], capacity, kInf);
    const double hoard_limit = (1.0 + config.hoarding_allowance) * capacity;
    built.hoard_limits[r] = hoard_limit;
    model.UpdateRowBounds(built.hoard_rows[r], -kInf, hoard_limit);
  }

  // --- Spread / quorum / affinity thresholds (all scale with C_r) ---
  for (auto& term : built.msb_spread_terms) {
    const ReservationSpec& spec = input.reservations[static_cast<size_t>(term.reservation_index)];
    term.threshold = MsbSpreadThreshold(spec, config, topo);
    model.UpdateRowBounds(term.row, -kInf, term.threshold);
  }
  for (auto& term : built.rack_spread_terms) {
    const ReservationSpec& spec = input.reservations[static_cast<size_t>(term.reservation_index)];
    term.threshold = RackSpreadThreshold(spec, config, topo);
    model.UpdateRowBounds(term.row, -kInf, term.threshold);
  }
  for (auto& term : built.quorum_terms) {
    const ReservationSpec& spec = input.reservations[static_cast<size_t>(term.reservation_index)];
    if (spec.max_msb_fraction_hard <= 0.0) {
      return false;  // Hard cap vanished: the row set no longer matches.
    }
    term.limit = spec.max_msb_fraction_hard * spec.capacity_rru;
    model.UpdateRowBounds(term.row, -kInf, term.limit);
  }
  if (built.affinity_terms.size() != expected_affinity_terms) {
    return false;  // Affinity keys were added or removed.
  }
  for (auto& term : built.affinity_terms) {
    const ReservationSpec& spec = input.reservations[static_cast<size_t>(term.reservation_index)];
    auto it = spec.dc_affinity.find(term.dc);
    if (it == spec.dc_affinity.end()) {
      return false;
    }
    const double capacity = spec.capacity_rru;
    term.lo = std::max(0.0, it->second - spec.affinity_theta) * capacity;
    term.hi = (it->second + spec.affinity_theta) * capacity;
    model.UpdateRowBounds(term.lo_row, term.lo, kInf);
    model.UpdateRowBounds(term.hi_row, -kInf, term.hi);
  }
  return true;
}

std::vector<double> MakeWarmStart(const SolveInput& input,
                                  const std::vector<EquivalenceClass>& classes,
                                  const BuiltModel& built, const std::vector<double>& counts) {
  assert(counts.size() == built.assignment_vars.size());
  const size_t num_res = input.reservations.size();
  std::vector<double> x(built.model.num_variables(), 0.0);

  // Assignment variables and per-reservation aggregates.
  std::vector<double> total_rru(num_res, 0.0);
  std::vector<std::map<uint32_t, double>> msb_rru(num_res);
  std::vector<std::map<uint32_t, double>> rack_rru(num_res);
  std::vector<std::map<uint32_t, double>> dc_rru(num_res);
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    const auto& av = built.assignment_vars[k];
    const EquivalenceClass& cls = classes[static_cast<size_t>(av.class_index)];
    const ReservationSpec& spec = input.reservations[static_cast<size_t>(av.reservation_index)];
    double n = counts[k];
    x[av.var] = n;
    double rru = spec.ValueOfType(cls.type) * n;
    total_rru[av.reservation_index] += rru;
    msb_rru[av.reservation_index][cls.msb] += rru;
    rack_rru[av.reservation_index][cls.group] += rru;
    dc_rru[av.reservation_index][cls.dc] += rru;
    // Move-out variable: o = max(0, X - n).
    if (built.move_vars[k] != kNoVar) {
      x[built.move_vars[k]] = std::max(0.0, built.initial_counts[k] - n);
    }
  }

  // Buffer variables: m_r = worst-MSB RRU.
  std::vector<double> buffer_value(num_res, 0.0);
  for (size_t r = 0; r < num_res; ++r) {
    if (built.buffer_vars[r] == kNoVar) {
      continue;
    }
    double worst = 0.0;
    for (const auto& [group, rru] : msb_rru[r]) {
      worst = std::max(worst, rru);
    }
    buffer_value[r] = worst;
    x[built.buffer_vars[r]] = worst;
  }

  // Capacity shortfall and hoarding slacks.
  for (size_t r = 0; r < num_res; ++r) {
    if (built.shortfall_vars[r] == kNoVar) {
      continue;
    }
    double capacity = input.reservations[r].capacity_rru;
    double effective = total_rru[r] - buffer_value[r];
    x[built.shortfall_vars[r]] = std::clamp(capacity - effective, 0.0, std::max(capacity, 0.0));
    if (built.hoard_vars[r] != kNoVar) {
      // Mirrors the builder's row: h >= total - m - hoard_limit.
      x[built.hoard_vars[r]] = std::max(0.0, effective - built.hoard_limits[r]);
    }
  }

  // Spread overflow variables.
  for (const auto& term : built.msb_spread_terms) {
    auto it = msb_rru[static_cast<size_t>(term.reservation_index)].find(term.group);
    double rru = it == msb_rru[static_cast<size_t>(term.reservation_index)].end() ? 0.0
                                                                                  : it->second;
    x[term.var] = std::max(0.0, rru - term.threshold);
  }
  for (const auto& term : built.rack_spread_terms) {
    auto it = rack_rru[static_cast<size_t>(term.reservation_index)].find(term.group);
    double rru = it == rack_rru[static_cast<size_t>(term.reservation_index)].end() ? 0.0
                                                                                   : it->second;
    x[term.var] = std::max(0.0, rru - term.threshold);
  }

  // Storage quorum slacks.
  for (const auto& term : built.quorum_terms) {
    auto it = msb_rru[static_cast<size_t>(term.reservation_index)].find(term.group);
    double rru = it == msb_rru[static_cast<size_t>(term.reservation_index)].end() ? 0.0
                                                                                  : it->second;
    x[term.slack] = std::max(0.0, rru - term.limit);
  }

  // Affinity slacks.
  for (const auto& term : built.affinity_terms) {
    auto it = dc_rru[static_cast<size_t>(term.reservation_index)].find(term.dc);
    double rru = it == dc_rru[static_cast<size_t>(term.reservation_index)].end() ? 0.0
                                                                                 : it->second;
    x[term.lo_slack] = std::max(0.0, term.lo - rru);
    x[term.hi_slack] = std::max(0.0, rru - term.hi);
  }

  return x;
}

}  // namespace ras
