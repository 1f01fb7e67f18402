#include "src/core/local_search.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/util/monotonic_time.h"
#include "src/util/rng.h"

namespace ras {
namespace {

// Incremental objective state. Every coefficient is extracted from the built
// model itself, so the local search optimizes exactly what the MIP would.
class ObjectiveState {
 public:
  ObjectiveState(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                 const BuiltModel& built)
      : input_(input), classes_(classes), built_(built) {
    const size_t num_res = input.reservations.size();
    const size_t num_msbs = input.topology->num_msbs();
    const size_t num_dcs = input.topology->num_datacenters();
    total_.assign(num_res, 0.0);
    msb_rru_.assign(num_res, std::vector<double>(num_msbs, 0.0));
    dc_rru_.assign(num_res, std::vector<double>(num_dcs, 0.0));
    used_.assign(classes.size(), 0.0);

    // Per-reservation coefficient tables from the model's bookkeeping.
    shortfall_cost_.assign(num_res, 0.0);
    buffer_cost_.assign(num_res, 0.0);
    buffered_.assign(num_res, false);
    spread_beta_.assign(num_res, 0.0);
    spread_threshold_.assign(num_res, kInf);
    hoard_cost_.assign(num_res, 0.0);
    for (size_t r = 0; r < num_res; ++r) {
      if (built.shortfall_vars[r] != kNoVar) {
        shortfall_cost_[r] = built.model.variable(built.shortfall_vars[r]).cost;
      }
      if (built.buffer_vars[r] != kNoVar) {
        buffered_[r] = true;
        buffer_cost_[r] = built.model.variable(built.buffer_vars[r]).cost;
      }
      if (built.hoard_vars[r] != kNoVar) {
        hoard_cost_[r] = built.model.variable(built.hoard_vars[r]).cost;
      }
    }
    for (const auto& term : built.msb_spread_terms) {
      spread_beta_[static_cast<size_t>(term.reservation_index)] =
          built.model.variable(term.var).cost;
      spread_threshold_[static_cast<size_t>(term.reservation_index)] =
          built.model.row(term.row).ub;
    }
    affinity_of_.assign(num_res, {});
    for (size_t i = 0; i < built.affinity_terms.size(); ++i) {
      affinity_of_[static_cast<size_t>(built.affinity_terms[i].reservation_index)].push_back(
          static_cast<int>(i));
    }
    quorum_of_.assign(num_res, {});
    for (size_t i = 0; i < built.quorum_terms.size(); ++i) {
      quorum_of_[static_cast<size_t>(built.quorum_terms[i].reservation_index)].push_back(
          static_cast<int>(i));
    }

    // Per-variable values V and cost coefficients.
    const size_t num_vars = built.assignment_vars.size();
    value_.assign(num_vars, 0.0);
    acquire_cost_.assign(num_vars, 0.0);
    move_cost_.assign(num_vars, 0.0);
    for (size_t k = 0; k < num_vars; ++k) {
      const auto& av = built.assignment_vars[k];
      const EquivalenceClass& cls = classes[static_cast<size_t>(av.class_index)];
      value_[k] = input.reservations[static_cast<size_t>(av.reservation_index)]
                      .ValueOfType(cls.type);
      acquire_cost_[k] = built.model.variable(av.var).cost;
      if (built.move_vars[k] != kNoVar) {
        move_cost_[k] = built.model.variable(built.move_vars[k]).cost;
      }
    }
  }

  void Load(const std::vector<double>& counts) {
    counts_ = counts;
    std::fill(used_.begin(), used_.end(), 0.0);
    for (auto& v : msb_rru_) {
      std::fill(v.begin(), v.end(), 0.0);
    }
    for (auto& v : dc_rru_) {
      std::fill(v.begin(), v.end(), 0.0);
    }
    std::fill(total_.begin(), total_.end(), 0.0);
    for (size_t k = 0; k < counts_.size(); ++k) {
      ApplyDelta(k, counts_[k], /*into_counts=*/false);
    }
  }

  const std::vector<double>& counts() const { return counts_; }
  double used(size_t class_index) const { return used_[class_index]; }

  // Objective contribution of one reservation's aggregate terms.
  double ReservationCost(size_t r) const {
    double worst = 0.0;
    for (double rru : msb_rru_[r]) {
      worst = std::max(worst, rru);
    }
    double capacity = input_.reservations[r].capacity_rru;
    double effective = total_[r] - (buffered_[r] ? worst : 0.0);
    double cost = shortfall_cost_[r] *
                  std::clamp(capacity - effective, 0.0, std::max(capacity, 0.0));
    if (buffered_[r]) {
      cost += buffer_cost_[r] * worst;
    }
    if (spread_beta_[r] > 0.0) {
      for (double rru : msb_rru_[r]) {
        cost += spread_beta_[r] * std::max(0.0, rru - spread_threshold_[r]);
      }
    }
    if (hoard_cost_[r] > 0.0) {
      const double limit = built_.model.row(built_.hoard_rows[r]).ub;
      cost += hoard_cost_[r] * std::max(0.0, effective - limit);
    }
    for (int i : affinity_of_[r]) {
      const auto& term = built_.affinity_terms[static_cast<size_t>(i)];
      double rru = term.dc < dc_rru_[r].size() ? dc_rru_[r][term.dc] : 0.0;
      const double lo = built_.model.row(term.lo_row).lb;
      const double hi = built_.model.row(term.hi_row).ub;
      cost += built_.model.variable(term.lo_slack).cost * std::max(0.0, lo - rru);
      cost += built_.model.variable(term.hi_slack).cost * std::max(0.0, rru - hi);
    }
    for (int i : quorum_of_[r]) {
      const auto& term = built_.quorum_terms[static_cast<size_t>(i)];
      double rru = msb_rru_[r][term.group];
      const double limit = built_.model.row(term.row).ub;
      cost += built_.model.variable(term.slack).cost * std::max(0.0, rru - limit);
    }
    return cost;
  }

  // Objective contribution of one assignment variable's own costs.
  double VarCost(size_t k) const {
    return acquire_cost_[k] * counts_[k] +
           move_cost_[k] * std::max(0.0, built_.initial_counts[k] - counts_[k]);
  }

  // Applies `delta` units to variable k (class supply and aggregates).
  void ApplyDelta(size_t k, double delta, bool into_counts = true) {
    if (delta == 0.0) {
      return;
    }
    const auto& av = built_.assignment_vars[k];
    const EquivalenceClass& cls = classes_[static_cast<size_t>(av.class_index)];
    size_t r = static_cast<size_t>(av.reservation_index);
    double rru = value_[k] * delta;
    total_[r] += rru;
    msb_rru_[r][cls.msb] += rru;
    dc_rru_[r][cls.dc] += rru;
    used_[static_cast<size_t>(av.class_index)] += delta;
    if (into_counts) {
      counts_[k] += delta;
    }
  }

  double FullObjective() const {
    double obj = 0.0;
    for (size_t r = 0; r < input_.reservations.size(); ++r) {
      obj += ReservationCost(r);
    }
    for (size_t k = 0; k < counts_.size(); ++k) {
      obj += VarCost(k);
    }
    return obj;
  }

 private:
  const SolveInput& input_;
  const std::vector<EquivalenceClass>& classes_;
  const BuiltModel& built_;

  std::vector<double> counts_;
  std::vector<double> used_;
  std::vector<double> total_;
  std::vector<std::vector<double>> msb_rru_;
  std::vector<std::vector<double>> dc_rru_;

  std::vector<double> value_;
  std::vector<double> acquire_cost_;
  std::vector<double> move_cost_;
  std::vector<double> shortfall_cost_;
  std::vector<double> buffer_cost_;
  std::vector<bool> buffered_;
  std::vector<double> spread_beta_;
  std::vector<double> spread_threshold_;
  std::vector<double> hoard_cost_;
  std::vector<std::vector<int>> affinity_of_;
  std::vector<std::vector<int>> quorum_of_;
};

}  // namespace

LocalSearchResult LocalSearchOptimize(const SolveInput& input,
                                      const std::vector<EquivalenceClass>& classes,
                                      const BuiltModel& built,
                                      const std::vector<double>& initial_counts,
                                      const LocalSearchOptions& options) {
  LocalSearchResult result;
  double start = util::MonotonicSeconds();
  ObjectiveState state(input, classes, built);
  state.Load(initial_counts);
  result.initial_objective = state.FullObjective();

  Rng rng(options.seed);
  const size_t num_vars = built.assignment_vars.size();
  if (num_vars == 0) {
    result.counts = initial_counts;
    result.final_objective = result.initial_objective;
    return result;
  }

  // Per-reservation variable lists for relocate proposals.
  std::vector<std::vector<int>> res_to_vars(input.reservations.size());
  for (size_t k = 0; k < num_vars; ++k) {
    res_to_vars[static_cast<size_t>(built.assignment_vars[k].reservation_index)].push_back(
        static_cast<int>(k));
  }

  int64_t stall = 0;
  double current = result.initial_objective;
  while (result.proposals < options.max_proposals && stall < options.stall_limit) {
    if ((result.proposals & 1023) == 0 && util::MonotonicSeconds() - start > options.time_limit_seconds) {
      break;
    }
    ++result.proposals;

    // Proposal: move a chunk of servers on variable k — either release to
    // the free pool, transfer to a sibling variable of the same class, or
    // acquire spare units of the class. Variable step sizes (1..8) cross the
    // plateaus that threshold terms (spread, hoard) create, where per-unit
    // deltas are zero but chunk deltas are not.
    size_t k = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(num_vars) - 1));
    const auto& av = built.assignment_vars[k];
    size_t c = static_cast<size_t>(av.class_index);
    double spare = static_cast<double>(classes[c].count()) - state.used(c);
    double step = static_cast<double>(int64_t{1} << rng.UniformInt(0, 3));

    int kind = static_cast<int>(rng.UniformInt(0, 3));
    size_t k2 = k;
    double d1 = 0.0, d2 = 0.0;  // Deltas for k and k2.
    if (kind == 0 && state.counts()[k] >= 1.0) {
      d1 = -std::min(step, state.counts()[k]);  // Release to free pool.
    } else if (kind == 1 && spare >= 1.0) {
      d1 = +std::min(step, spare);  // Acquire spare units.
    } else if (kind == 2 && state.counts()[k] >= 1.0 && built.class_to_vars[c].size() > 1) {
      // Transfer to a random sibling of the same class (reservation change).
      const auto& siblings = built.class_to_vars[c];
      k2 = static_cast<size_t>(
          siblings[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(siblings.size()) - 1))]);
      if (k2 == k) {
        continue;
      }
      d1 = -std::min(step, state.counts()[k]);
      d2 = -d1;
    } else if (kind == 3 && state.counts()[k] >= 1.0) {
      // Relocate within the reservation: swap capacity into another class
      // (different MSB / SKU) that still has spare supply. This is the move
      // that fixes spread without transiting a capacity-shortfall state.
      const auto& peers = res_to_vars[static_cast<size_t>(av.reservation_index)];
      if (peers.size() < 2) {
        continue;
      }
      k2 = static_cast<size_t>(
          peers[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(peers.size()) - 1))]);
      if (k2 == k) {
        continue;
      }
      size_t c2 = static_cast<size_t>(built.assignment_vars[k2].class_index);
      double spare2 = static_cast<double>(classes[c2].count()) - state.used(c2);
      if (spare2 < 1.0) {
        continue;
      }
      d1 = -std::min({step, state.counts()[k], spare2});
      d2 = -d1;
    } else {
      continue;
    }

    size_t r1 = static_cast<size_t>(av.reservation_index);
    size_t r2 = static_cast<size_t>(built.assignment_vars[k2].reservation_index);
    double before = state.ReservationCost(r1) + state.VarCost(k);
    if (k2 != k) {
      if (r2 != r1) {
        before += state.ReservationCost(r2);
      }
      before += state.VarCost(k2);
    }
    state.ApplyDelta(k, d1);
    if (k2 != k) {
      state.ApplyDelta(k2, d2);
    }
    double after = state.ReservationCost(r1) + state.VarCost(k);
    if (k2 != k) {
      if (r2 != r1) {
        after += state.ReservationCost(r2);
      }
      after += state.VarCost(k2);
    }

    if (after < before - 1e-9) {
      current += after - before;
      ++result.accepted;
      stall = 0;
    } else {
      state.ApplyDelta(k, -d1);  // Revert.
      if (k2 != k) {
        state.ApplyDelta(k2, -d2);
      }
      ++stall;
    }
  }

  result.counts = state.counts();
  result.final_objective = state.FullObjective();
  result.seconds = util::MonotonicSeconds() - start;
  // Incremental bookkeeping must agree with the from-scratch evaluation.
  assert(std::fabs(result.final_objective - current) <
         1e-6 * (1.0 + std::fabs(result.final_objective)));
  (void)current;
  return result;
}

}  // namespace ras
