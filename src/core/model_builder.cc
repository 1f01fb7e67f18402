#include "src/core/model_builder.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>

#include "src/core/rru_ledger.h"

namespace ras {
namespace {

// Per-reservation collection of assignment variables grouped by a location
// scope, used to emit group-sum rows (buffer, spread, affinity).
struct GroupedVars {
  // group id -> list of (assignment var, RRU value).
  std::map<uint32_t, std::vector<std::pair<VarId, double>>> by_group;
};

ModelLayout LayoutOf(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                     bool include_rack_spread, const std::vector<int>& reservation_subset) {
  ModelLayout layout;
  layout.topology = input.topology;
  layout.catalog = input.catalog;
  layout.classes.reserve(classes.size());
  for (const EquivalenceClass& cls : classes) {
    layout.classes.push_back({cls.group, cls.msb, cls.dc, cls.type});
  }
  layout.reservations.reserve(input.reservations.size());
  for (const ReservationSpec& spec : input.reservations) {
    ModelLayout::ReservationShape shape{spec.id, spec.rru_per_type, spec.needs_correlated_buffer,
                                        spec.max_msb_fraction_hard > 0.0, {}};
    for (const auto& [dc, share] : spec.dc_affinity) {
      shape.affinity_dcs.push_back(dc);
    }
    layout.reservations.push_back(std::move(shape));
  }
  layout.include_rack_spread = include_rack_spread;
  layout.reservation_subset = reservation_subset;
  return layout;
}

// The bound pass, run by every build and, behind the layout check, by every
// patch. Assumes `built`'s layout matches (input, classes).
bool WriteRoundBounds(BuiltModel& built, const SolveInput& input,
                      const std::vector<EquivalenceClass>& classes, const SolverConfig& config) {
  assert(input.topology != nullptr);
  const RegionTopology& topo = *input.topology;
  Model& model = built.model;
  // Every write is attempted; any refusal fails the whole pass.
  bool ok = true;
  auto row = [&](RowId id, double lb, double ub) { ok = model.UpdateRowBounds(id, lb, ub) && ok; };
  auto var = [&](VarId id, double lb, double ub) {
    ok = model.UpdateVariableBounds(id, lb, ub) && ok;
  };
  auto spec_of = [&input](int reservation_index) -> const ReservationSpec& {
    return input.reservations[static_cast<size_t>(reservation_index)];
  };

  // Expression (5) supply and n <= |class|; Expression (1)'s X per pair, with
  // o_idle <= X_idle, o_in_use <= X_in_use, n + o_idle + o_in_use >= X, and
  // the constant column at sum X.
  for (size_t c = 0; c < classes.size(); ++c) {
    row(built.supply_rows[c], -kInf, static_cast<double>(classes[c].count()));
  }
  built.initial_counts.resize(built.assignment_vars.size());
  built.initial_in_use.resize(built.assignment_vars.size());
  double held_total = 0.0;
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    const BuiltModel::AssignmentVar& av = built.assignment_vars[k];
    const EquivalenceClass& cls = classes[static_cast<size_t>(av.class_index)];
    var(av.var, 0, static_cast<double>(cls.count()));
    const EquivalenceClass::Held held = cls.HeldBy(spec_of(av.reservation_index).id);
    const double initial = static_cast<double>(held.count());
    built.initial_counts[k] = initial;
    built.initial_in_use[k] = static_cast<double>(held.in_use);
    held_total += initial;
    var(built.move_idle_vars[k], 0, static_cast<double>(held.idle));
    var(built.move_in_use_vars[k], 0, static_cast<double>(held.in_use));
    row(built.move_rows[k], initial, kInf);
  }
  var(built.held_var, held_total, held_total);

  // Capacity (6), its shortfall slack, and the anti-hoarding limit.
  for (size_t r = 0; r < input.reservations.size(); ++r) {
    if (built.shortfall_vars[r] == kNoVar) {
      continue;  // Outside the subset.
    }
    const double capacity = input.reservations[r].capacity_rru;
    var(built.shortfall_vars[r], 0, std::max(capacity, 0.0));
    row(built.capacity_rows[r], capacity, kInf);
    row(built.hoard_rows[r], -kInf, (1.0 + config.hoarding_allowance) * capacity);
  }

  for (const auto& term : built.msb_spread_terms) {
    row(term.row, -kInf, MsbSpreadThreshold(spec_of(term.reservation_index), config, topo));
  }
  for (const auto& term : built.rack_spread_terms) {
    row(term.row, -kInf, RackSpreadThreshold(spec_of(term.reservation_index), config, topo));
  }
  for (const auto& term : built.quorum_terms) {
    const ReservationSpec& spec = spec_of(term.reservation_index);
    row(term.row, -kInf, spec.max_msb_fraction_hard * spec.capacity_rru);
  }
  for (const auto& term : built.affinity_terms) {
    const ReservationSpec& spec = spec_of(term.reservation_index);
    // The layout holds the spec's affinity keys, so the term's key is there.
    const RruBand band = AffinityBand(spec, spec.dc_affinity.at(term.dc));
    // A crossed band comes only from a negative theta or C_r, which no
    // registry write accepts. Each row alone takes it, but no assignment
    // meets both rows without paying slack.
    ok = ok && band.lo <= band.hi;
    row(term.lo_row, band.lo, kInf);
    row(term.hi_row, -kInf, band.hi);
  }
  return ok;
}

}  // namespace

size_t BuiltModel::ModelMemoryBytes() const {
  // Columns add roughly 12 bytes per nonzero (index + value) when the
  // simplex transposes them.
  return model.MemoryBytes() + model.num_nonzeros() * 12 +
         assignment_vars.size() * sizeof(AssignmentVar);
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

RruBand AffinityBand(const ReservationSpec& spec, double share) {
  return RruBand{std::max(0.0, share - spec.affinity_theta) * spec.capacity_rru,
                 (share + spec.affinity_theta) * spec.capacity_rru};
}

BuiltModel BuildRasModel(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                         const SolverConfig& config, bool include_rack_spread,
                         const std::vector<int>& reservation_subset) {
  assert(input.topology != nullptr && input.catalog != nullptr);
  const size_t num_res = input.reservations.size();

  // Layout pass. Every bound the bound pass owns is added open here: rows as
  // (-inf, inf), variables as [0, inf).
  BuiltModel built;
  built.layout = LayoutOf(input, classes, include_rack_spread, reservation_subset);
  Model& model = built.model;
  built.shortfall_vars.assign(num_res, kNoVar);
  built.buffer_vars.assign(num_res, kNoVar);
  built.hoard_vars.assign(num_res, kNoVar);
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
  // Expression (1)'s tiered move-outs for every pair ---
  std::vector<GroupedVars> msb_groups(num_res);
  std::vector<GroupedVars> rack_groups(num_res);
  std::vector<GroupedVars> dc_groups(num_res);

  for (size_t c = 0; c < classes.size(); ++c) {
    const EquivalenceClass& cls = classes[c];
    RowId supply = model.AddRow(-kInf, kInf);
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
      VarId n = model.AddInteger(0, kInf, config.acquire_cost);
      model.AddCoefficient(supply, n, 1.0);
      int var_index = static_cast<int>(built.assignment_vars.size());
      built.assignment_vars.push_back(
          BuiltModel::AssignmentVar{n, static_cast<int>(c), static_cast<int>(r)});
      built.class_to_vars[c].push_back(var_index);

      // n + o_idle + o_in_use >= X, each tier at Ms plus the acquire cost
      // its release refunds (Expression 1; see the header).
      VarId idle = model.AddContinuous(0, kInf, config.move_cost_idle + config.acquire_cost);
      VarId in_use = model.AddContinuous(0, kInf, config.move_cost_in_use + config.acquire_cost);
      RowId move_row = model.AddRow(-kInf, kInf);
      model.AddCoefficient(move_row, n, 1.0);
      model.AddCoefficient(move_row, idle, 1.0);
      model.AddCoefficient(move_row, in_use, 1.0);
      built.move_idle_vars.push_back(idle);
      built.move_in_use_vars.push_back(in_use);
      built.move_rows.push_back(move_row);

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

    // Softened capacity slack: keeps the model feasible when the region
    // cannot satisfy the request; its cost dominates everything else so the
    // solver fixes capacity before optimizing spread or stability.
    VarId shortfall = model.AddContinuous(0, kInf, config.capacity_soften_cost);
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
    RowId cap_row = model.AddRow(-kInf, kInf);
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
    VarId hoard = model.AddContinuous(0, kInf, config.hoarding_cost);
    built.hoard_vars[r] = hoard;
    RowId hoard_row = model.AddRow(-kInf, kInf);
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
    for (const auto& [group, vars] : msb_groups[r].by_group) {
      VarId w = model.AddContinuous(0, kInf, config.spread_penalty_beta);
      RowId row = model.AddRow(-kInf, kInf);  // sum_G V*n - w <= thr.
      for (const auto& [n, value] : vars) {
        model.AddCoefficient(row, n, value);
      }
      model.AddCoefficient(row, w, -1.0);
      built.msb_spread_terms.push_back(
          BuiltModel::SpreadTerm{w, static_cast<int>(r), group, row});
    }

    // Expression (2): rack spread, phase 2 only.
    if (include_rack_spread) {
      for (const auto& [group, vars] : rack_groups[r].by_group) {
        VarId w = model.AddContinuous(0, kInf, config.spread_penalty_beta);
        RowId row = model.AddRow(-kInf, kInf);
        for (const auto& [n, value] : vars) {
          model.AddCoefficient(row, n, value);
        }
        model.AddCoefficient(row, w, -1.0);
        built.rack_spread_terms.push_back(
            BuiltModel::SpreadTerm{w, static_cast<int>(r), group, row});
      }
    }

    // Storage quorum spread (Section 3.3.2): near-hard per-MSB cap so enough
    // replicas survive any single-MSB loss.
    if (spec.max_msb_fraction_hard > 0.0) {
      for (const auto& [group, vars] : msb_groups[r].by_group) {
        VarId slack = model.AddContinuous(0, kInf, config.quorum_soften_cost);
        RowId row = model.AddRow(-kInf, kInf);  // sum_G V*n - slack <= limit.
        for (const auto& [n, value] : vars) {
          model.AddCoefficient(row, n, value);
        }
        model.AddCoefficient(row, slack, -1.0);
        built.quorum_terms.push_back(
            BuiltModel::QuorumTerm{slack, static_cast<int>(r), group, row});
      }
    }

    // Expression (7): network affinity, softened per Section 3.5.1.
    for (const auto& [dc, share] : spec.dc_affinity) {
      VarId lo_slack = model.AddContinuous(0, kInf, config.affinity_soften_cost);
      VarId hi_slack = model.AddContinuous(0, kInf, config.affinity_soften_cost);
      RowId lo_row = model.AddRow(-kInf, kInf);  // sum_dc V*n + s_lo >= lo.
      RowId hi_row = model.AddRow(-kInf, kInf);  // sum_dc V*n - s_hi <= hi.
      auto it = dc_groups[r].by_group.find(dc);
      if (it != dc_groups[r].by_group.end()) {
        for (const auto& [n, value] : it->second) {
          model.AddCoefficient(lo_row, n, value);
          model.AddCoefficient(hi_row, n, value);
        }
      }
      model.AddCoefficient(lo_row, lo_slack, 1.0);
      model.AddCoefficient(hi_row, hi_slack, -1.0);
      built.affinity_terms.push_back(
          BuiltModel::AffinityTerm{lo_slack, hi_slack, static_cast<int>(r), dc, lo_row, hi_row});
    }
  }

  // Expression (1)'s constant, -acquire_cost * sum X; the bound pass fixes
  // the column at sum X.
  built.held_var = model.AddContinuous(0, kInf, -config.acquire_cost);
  built.acquire_cost = config.acquire_cost;
  built.move_cost_idle = config.move_cost_idle;
  built.move_cost_in_use = config.move_cost_in_use;

  // Bound pass. On a fresh layout it can only refuse a crossed affinity band,
  // from a spec no registry write path accepts; it still writes that band as
  // given, so the build goes ahead.
  (void)WriteRoundBounds(built, input, classes, config);

  // Warm the compressed-column cache: every LP solver over this model now
  // copies the cached form instead of rebuilding it, and SetRoundBounds'
  // bound-only updates keep it valid across rounds.
  built.model.EnsureCompressedCache();
  return built;
}

bool SetRoundBounds(BuiltModel& built, const SolveInput& input,
                    const std::vector<EquivalenceClass>& classes, const SolverConfig& config,
                    bool include_rack_spread, const std::vector<int>& reservation_subset) {
  if (built.layout != LayoutOf(input, classes, include_rack_spread, reservation_subset)) {
    return false;
  }
  return WriteRoundBounds(built, input, classes, config);
}

std::vector<double> MakeWarmStart(const SolveInput& input,
                                  const std::vector<EquivalenceClass>& classes,
                                  const BuiltModel& built, const std::vector<double>& counts) {
  assert(counts.size() == built.assignment_vars.size());
  const size_t num_res = input.reservations.size();
  std::vector<double> x(built.model.num_variables(), 0.0);

  // Assignment variables and their move-outs max(0, X - n), idle first.
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    x[built.assignment_vars[k].var] = counts[k];
    const BuiltModel::Release out = built.ReleaseAt(k, counts[k]);
    x[built.move_idle_vars[k]] = out.idle;
    x[built.move_in_use_vars[k]] = out.in_use;
  }
  x[built.held_var] = built.model.variable(built.held_var).lb;
  const RruLedger ledger = RruLedger::OfCounts(input, classes, built, counts);

  // Buffer m_r = worst-MSB RRU, capacity shortfall and hoarding slacks.
  for (size_t r = 0; r < num_res; ++r) {
    if (built.buffer_vars[r] != kNoVar) {
      x[built.buffer_vars[r]] = ledger.WorstMsb(r);
    }
    if (built.shortfall_vars[r] == kNoVar) {
      continue;
    }
    double capacity = input.reservations[r].capacity_rru;
    double effective = ledger.Effective(r);
    x[built.shortfall_vars[r]] = std::clamp(capacity - effective, 0.0, std::max(capacity, 0.0));
    if (built.hoard_vars[r] != kNoVar) {
      // Mirrors the builder's row: h >= total - m - hoard limit.
      const double limit = built.model.row(built.hoard_rows[r]).ub;
      x[built.hoard_vars[r]] = std::max(0.0, effective - limit);
    }
  }

  // Spread overflow variables.
  for (const auto& term : built.msb_spread_terms) {
    double rru = ledger.AtMsb(static_cast<size_t>(term.reservation_index),
                              static_cast<MsbId>(term.group));
    x[term.var] = std::max(0.0, rru - built.model.row(term.row).ub);
  }
  for (const auto& term : built.rack_spread_terms) {
    double rru = ledger.AtRack(static_cast<size_t>(term.reservation_index), term.group);
    x[term.var] = std::max(0.0, rru - built.model.row(term.row).ub);
  }

  // Storage quorum slacks.
  for (const auto& term : built.quorum_terms) {
    double rru = ledger.AtMsb(static_cast<size_t>(term.reservation_index),
                              static_cast<MsbId>(term.group));
    x[term.slack] = std::max(0.0, rru - built.model.row(term.row).ub);
  }

  // Affinity slacks.
  for (const auto& term : built.affinity_terms) {
    double rru = ledger.AtDc(static_cast<size_t>(term.reservation_index), term.dc);
    x[term.lo_slack] = std::max(0.0, built.model.row(term.lo_row).lb - rru);
    x[term.hi_slack] = std::max(0.0, rru - built.model.row(term.hi_row).ub);
  }

  return x;
}

}  // namespace ras
