#include "src/core/local_search.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

#include "src/util/rng.h"

namespace ras {
namespace {

// Incremental objective state. Every coefficient is extracted from the built
// model itself, and every term of the model is scored except the rack-spread
// terms (`rack_spread_terms`, phase 2 only): on a phase-2 model the search
// optimizes, and reports, the objective without its rack-spread penalty.
// Its flat per-(reservation, MSB/DC) arrays are the one deliberate copy of
// the RRU ledger's effective-capacity rule (rru_ledger.h): the polish scores
// every proposal against them in O(1) and restores them on reject. The
// coefficients and bounds ReservationCost reads are copied out of the model
// once, so scoring a proposal touches only this object's tables.
class ObjectiveState {
 public:
  ObjectiveState(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                 const BuiltModel& built)
      : built_(built),
        num_msbs_(input.topology->num_msbs()),
        num_dcs_(input.topology->num_datacenters()) {
    const size_t num_res = input.reservations.size();
    total_.assign(num_res, 0.0);
    msb_rru_.assign(num_res * num_msbs_, 0.0);
    dc_rru_.assign(num_res * num_dcs_, 0.0);
    used_.assign(classes.size(), 0.0);
    cost_.assign(num_res, 0.0);

    // Per-reservation coefficient tables from the model's bookkeeping.
    shortfall_cost_.assign(num_res, 0.0);
    buffer_cost_.assign(num_res, 0.0);
    buffered_.assign(num_res, false);
    spread_beta_.assign(num_res, 0.0);
    spread_threshold_.assign(num_res, kInf);
    hoard_cost_.assign(num_res, 0.0);
    hoard_limit_.assign(num_res, 0.0);
    capacity_.assign(num_res, 0.0);
    for (size_t r = 0; r < num_res; ++r) {
      capacity_[r] = input.reservations[r].capacity_rru;
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
      if (hoard_cost_[r] > 0.0) {
        hoard_limit_[r] = built.model.row(built.hoard_rows[r]).ub;
      }
    }
    for (const auto& term : built.msb_spread_terms) {
      spread_beta_[static_cast<size_t>(term.reservation_index)] =
          built.model.variable(term.var).cost;
      spread_threshold_[static_cast<size_t>(term.reservation_index)] =
          built.model.row(term.row).ub;
    }
    affinity_of_.assign(num_res, {});
    for (const auto& term : built.affinity_terms) {
      affinity_of_[static_cast<size_t>(term.reservation_index)].push_back(
          {term.dc, built.model.row(term.lo_row).lb, built.model.row(term.hi_row).ub,
           built.model.variable(term.lo_slack).cost, built.model.variable(term.hi_slack).cost});
    }
    quorum_of_.assign(num_res, {});
    for (const auto& term : built.quorum_terms) {
      quorum_of_[static_cast<size_t>(term.reservation_index)].push_back(
          {term.group, built.model.row(term.row).ub, built.model.variable(term.slack).cost});
    }

    // Per-variable values V and aggregate coordinates.
    const size_t num_vars = built.assignment_vars.size();
    value_.assign(num_vars, 0.0);
    slots_.resize(num_vars);
    for (size_t k = 0; k < num_vars; ++k) {
      const auto& av = built.assignment_vars[k];
      const EquivalenceClass& cls = classes[static_cast<size_t>(av.class_index)];
      value_[k] = input.reservations[static_cast<size_t>(av.reservation_index)]
                      .ValueOfType(cls.type);
      const size_t r = static_cast<size_t>(av.reservation_index);
      slots_[k] = {r, static_cast<size_t>(av.class_index), r * num_msbs_ + cls.msb,
                   r * num_dcs_ + cls.dc};
    }
  }

  void Load(const std::vector<double>& counts) {
    counts_ = counts;
    std::fill(used_.begin(), used_.end(), 0.0);
    std::fill(msb_rru_.begin(), msb_rru_.end(), 0.0);
    std::fill(dc_rru_.begin(), dc_rru_.end(), 0.0);
    std::fill(total_.begin(), total_.end(), 0.0);
    for (size_t k = 0; k < counts_.size(); ++k) {
      ApplyDelta(k, counts_[k], /*into_counts=*/false);
    }
    for (size_t r = 0; r < cost_.size(); ++r) {
      cost_[r] = ReservationCost(r);
    }
  }

  const std::vector<double>& counts() const { return counts_; }
  double used(size_t class_index) const { return used_[class_index]; }

  // ReservationCost(r) as of the last Load or SetCost(r); callers keep it
  // current by calling SetCost with the recomputed value after every
  // accepted move that touches r.
  double cost(size_t r) const { return cost_[r]; }
  void SetCost(size_t r, double cost) { cost_[r] = cost; }

  // Objective contribution of one reservation's aggregate terms.
  double ReservationCost(size_t r) const {
    const double* msb_rru = msb_rru_.data() + r * num_msbs_;
    double worst = 0.0;
    for (size_t m = 0; m < num_msbs_; ++m) {
      worst = std::max(worst, msb_rru[m]);
    }
    double capacity = capacity_[r];
    double effective = total_[r] - (buffered_[r] ? worst : 0.0);
    double cost = shortfall_cost_[r] *
                  std::clamp(capacity - effective, 0.0, std::max(capacity, 0.0));
    if (buffered_[r]) {
      cost += buffer_cost_[r] * worst;
    }
    if (spread_beta_[r] > 0.0) {
      for (size_t m = 0; m < num_msbs_; ++m) {
        cost += spread_beta_[r] * std::max(0.0, msb_rru[m] - spread_threshold_[r]);
      }
    }
    if (hoard_cost_[r] > 0.0) {
      cost += hoard_cost_[r] * std::max(0.0, effective - hoard_limit_[r]);
    }
    for (const AffinityBand& band : affinity_of_[r]) {
      double rru = band.dc < num_dcs_ ? dc_rru_[r * num_dcs_ + band.dc] : 0.0;
      cost += band.lo_cost * std::max(0.0, band.lo - rru);
      cost += band.hi_cost * std::max(0.0, rru - band.hi);
    }
    for (const QuorumCap& cap : quorum_of_[r]) {
      cost += cap.cost * std::max(0.0, msb_rru[cap.msb] - cap.limit);
    }
    return cost;
  }

  // Objective contribution of one assignment variable's own costs: its
  // tiered move-outs and acquisitions (Expression 1).
  double VarCost(size_t k) const { return built_.MoveCost(k, counts_[k]); }

  // Applies `delta` units to variable k (class supply and aggregates).
  void ApplyDelta(size_t k, double delta, bool into_counts = true) {
    if (delta == 0.0) {
      return;
    }
    const Slot& s = slots_[k];
    double rru = value_[k] * delta;
    total_[s.r] += rru;
    msb_rru_[s.msb_at] += rru;
    dc_rru_[s.dc_at] += rru;
    used_[s.c] += delta;
    if (into_counts) {
      counts_[k] += delta;
    }
  }

  // Every value ApplyDelta(k, ...) writes. Restoring a Saved taken before
  // the apply undoes it bit for bit; subtracting the delta again would leave
  // ULP drift whenever V * delta is not exactly representable.
  struct Saved {
    size_t k;
    double count, used, total, msb_rru, dc_rru;
  };
  Saved Save(size_t k) const {
    const Slot& s = slots_[k];
    return {k, counts_[k], used_[s.c], total_[s.r], msb_rru_[s.msb_at], dc_rru_[s.dc_at]};
  }
  void Restore(const Saved& saved) {
    const Slot& s = slots_[saved.k];
    counts_[saved.k] = saved.count;
    used_[s.c] = saved.used;
    total_[s.r] = saved.total;
    msb_rru_[s.msb_at] = saved.msb_rru;
    dc_rru_[s.dc_at] = saved.dc_rru;
  }

  double FullObjective() const {
    double obj = 0.0;
    for (size_t r = 0; r < cost_.size(); ++r) {
      obj += ReservationCost(r);
    }
    for (size_t k = 0; k < counts_.size(); ++k) {
      obj += VarCost(k);
    }
    return obj;
  }

 private:
  // Where variable k's units land: reservation, class, and its cells in the
  // flat MSB and datacenter arrays.
  struct Slot {
    size_t r;
    size_t c;
    size_t msb_at;
    size_t dc_at;
  };
  // One affinity band's bounds and slack costs, and one quorum cap's.
  struct AffinityBand {
    DatacenterId dc;
    double lo, hi, lo_cost, hi_cost;
  };
  struct QuorumCap {
    uint32_t msb;
    double limit, cost;
  };

  const BuiltModel& built_;
  const size_t num_msbs_;
  const size_t num_dcs_;

  std::vector<double> counts_;
  std::vector<double> used_;
  std::vector<double> total_;
  std::vector<double> msb_rru_;  // [r * num_msbs_ + msb]
  std::vector<double> dc_rru_;   // [r * num_dcs_ + dc]
  std::vector<double> cost_;

  std::vector<Slot> slots_;
  std::vector<double> value_;
  std::vector<double> shortfall_cost_;
  std::vector<double> buffer_cost_;
  std::vector<bool> buffered_;
  std::vector<double> spread_beta_;
  std::vector<double> spread_threshold_;
  std::vector<double> hoard_cost_;
  std::vector<double> hoard_limit_;
  std::vector<double> capacity_;
  std::vector<std::vector<AffinityBand>> affinity_of_;
  std::vector<std::vector<QuorumCap>> quorum_of_;
};

// Proposal kinds on a variable k.
enum MoveKind : uint32_t { kRelease, kAcquire, kTransfer, kRelocate };

// The proposals the current state admits, weighted so one draw has exactly
// the distribution of a uniform (variable, kind) draw followed by a uniform
// partner draw, conditioned on the proposal being a real move:
//  - release: 1 when k holds a unit;
//  - acquire: 1 when k's class has a spare unit;
//  - transfer: (s-1)/s when k holds a unit, where s counts the class's
//    variables (the chance a uniform sibling draw is not k itself);
//  - relocate: m/p when k holds a unit, where p counts the reservation's
//    variables and m those, other than k, whose class has a spare unit.
// Validity depends only on the counts and class usage, which change only on
// an accepted move, so the table is rebuilt after each acceptance.
class MoveTable {
 public:
  MoveTable(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
            const BuiltModel& built)
      : classes_(classes), built_(built) {
    res_to_vars_.resize(input.reservations.size());
    for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
      res_to_vars_[static_cast<size_t>(built.assignment_vars[k].reservation_index)].push_back(
          static_cast<int>(k));
    }
    has_spare_.assign(classes.size(), false);
    spare_vars_.resize(res_to_vars_.size());
  }

  void Rebuild(const ObjectiveState& state) {
    for (size_t c = 0; c < classes_.size(); ++c) {
      has_spare_[c] = static_cast<double>(classes_[c].count()) - state.used(c) >= 1.0;
    }
    for (size_t r = 0; r < res_to_vars_.size(); ++r) {
      spare_vars_[r].clear();
      for (int k : res_to_vars_[r]) {
        if (has_spare_[ClassOf(static_cast<size_t>(k))]) {
          spare_vars_[r].push_back(k);
        }
      }
    }

    cumulative_.clear();
    moves_.clear();
    double total = 0.0;
    auto add = [&](size_t k, MoveKind kind, double weight) {
      if (weight > 0.0) {
        total += weight;
        cumulative_.push_back(total);
        moves_.push_back(static_cast<uint32_t>(k) << 2 | kind);
      }
    };
    for (size_t k = 0; k < built_.assignment_vars.size(); ++k) {
      const size_t c = ClassOf(k);
      const size_t r = static_cast<size_t>(built_.assignment_vars[k].reservation_index);
      const bool held = state.counts()[k] >= 1.0;
      add(k, kRelease, held ? 1.0 : 0.0);
      add(k, kAcquire, has_spare_[c] ? 1.0 : 0.0);
      if (held) {
        const double s = static_cast<double>(built_.class_to_vars[c].size());
        add(k, kTransfer, (s - 1.0) / s);
        const size_t m = spare_vars_[r].size() - (has_spare_[c] ? 1 : 0);
        add(k, kRelocate, static_cast<double>(m) / static_cast<double>(res_to_vars_[r].size()));
      }
    }
  }

  bool empty() const { return cumulative_.empty(); }

  // One NextDouble, then a branch-free binary search for the first entry
  // whose cumulative weight exceeds it (std::upper_bound's answer).
  std::pair<size_t, MoveKind> Draw(Rng& rng) const {
    const double u = rng.NextDouble() * cumulative_.back();
    const double* base = cumulative_.data();
    size_t n = cumulative_.size();
    while (n > 1) {
      const size_t half = n / 2;
      base = base[half] <= u ? base + half : base;
      n -= half;
    }
    size_t i = static_cast<size_t>(base - cumulative_.data()) + (*base <= u ? 1 : 0);
    // u * total can round up to total itself.
    i = std::min(i, cumulative_.size() - 1);
    return {moves_[i] >> 2, static_cast<MoveKind>(moves_[i] & 3)};
  }

  // A uniform sibling of k in k's class, other than k.
  size_t TransferPartner(size_t k, Rng& rng) const {
    const auto& siblings = built_.class_to_vars[ClassOf(k)];
    return UniformOther(siblings, k, rng);
  }

  // A uniform variable of k's reservation, other than k, whose class has a
  // spare unit.
  size_t RelocatePartner(size_t k, Rng& rng) const {
    const auto& targets =
        spare_vars_[static_cast<size_t>(built_.assignment_vars[k].reservation_index)];
    if (!has_spare_[ClassOf(k)]) {
      return static_cast<size_t>(
          targets[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(targets.size()) - 1))]);
    }
    return UniformOther(targets, k, rng);
  }

 private:
  size_t ClassOf(size_t k) const {
    return static_cast<size_t>(built_.assignment_vars[k].class_index);
  }

  // A uniform element of `vars`, which holds k exactly once, other than k:
  // a draw that lands on k takes the last slot, which the draw leaves out.
  static size_t UniformOther(const std::vector<int>& vars, size_t k, Rng& rng) {
    const size_t k2 = static_cast<size_t>(
        vars[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(vars.size()) - 2))]);
    return k2 == k ? static_cast<size_t>(vars.back()) : k2;
  }

  const std::vector<EquivalenceClass>& classes_;
  const BuiltModel& built_;
  std::vector<std::vector<int>> res_to_vars_;  // Per reservation: its variables.
  std::vector<bool> has_spare_;                // Per class: at least one unused unit.
  std::vector<std::vector<int>> spare_vars_;   // Per reservation: its variables with has_spare_.
  std::vector<double> cumulative_;  // Positive-weight proposals only: running weight ...
  std::vector<uint32_t> moves_;     // ... and (k << 2 | kind).
};

}  // namespace

LocalSearchResult LocalSearchOptimize(const SolveInput& input,
                                      const std::vector<EquivalenceClass>& classes,
                                      const BuiltModel& built,
                                      const std::vector<double>& initial_counts,
                                      const LocalSearchOptions& options) {
  LocalSearchResult result;
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

  MoveTable moves(input, classes, built);
  moves.Rebuild(state);

  int64_t stall = 0;
  double current = result.initial_objective;
  while (result.proposals < options.max_proposals && stall < options.stall_limit &&
         result.accepted * static_cast<int64_t>(num_vars) < options.max_rebuild_work &&
         !moves.empty()) {
    ++result.proposals;

    // Proposal: move a chunk of servers on variable k — either release to
    // the free pool, transfer to a sibling variable of the same class, or
    // acquire spare units of the class. Variable step sizes (1..8) cross the
    // plateaus that threshold terms (spread, hoard) create, where per-unit
    // deltas are zero but chunk deltas are not.
    const auto [k, kind] = moves.Draw(rng);
    const size_t c = static_cast<size_t>(built.assignment_vars[k].class_index);
    const double step = static_cast<double>(int64_t{1} << rng.UniformInt(0, 3));
    const double held = state.counts()[k];
    size_t k2 = k;
    double d1 = 0.0, d2 = 0.0;  // Deltas for k and k2.
    switch (kind) {
      case kRelease:
        d1 = -std::min(step, held);
        break;
      case kAcquire:
        d1 = +std::min(step, static_cast<double>(classes[c].count()) - state.used(c));
        break;
      case kTransfer:
        // Transfer to a random sibling of the same class (reservation change).
        k2 = moves.TransferPartner(k, rng);
        d1 = -std::min(step, held);
        d2 = -d1;
        break;
      case kRelocate: {
        // Relocate within the reservation: swap capacity into another class
        // (different MSB / SKU) that still has spare supply. This is the move
        // that fixes spread without transiting a capacity-shortfall state.
        k2 = moves.RelocatePartner(k, rng);
        const size_t c2 = static_cast<size_t>(built.assignment_vars[k2].class_index);
        d1 = -std::min({step, held, static_cast<double>(classes[c2].count()) - state.used(c2)});
        d2 = -d1;
        break;
      }
    }

    const size_t r1 = static_cast<size_t>(built.assignment_vars[k].reservation_index);
    const size_t r2 = static_cast<size_t>(built.assignment_vars[k2].reservation_index);
    double before = state.cost(r1) + state.VarCost(k);
    if (k2 != k) {
      if (r2 != r1) {
        before += state.cost(r2);
      }
      before += state.VarCost(k2);
    }
    const auto saved1 = state.Save(k);
    const auto saved2 = state.Save(k2);
    state.ApplyDelta(k, d1);
    if (k2 != k) {
      state.ApplyDelta(k2, d2);
    }
    const double cost1 = state.ReservationCost(r1);
    double after = cost1 + state.VarCost(k);
    double cost2 = 0.0;
    if (k2 != k) {
      if (r2 != r1) {
        cost2 = state.ReservationCost(r2);
        after += cost2;
      }
      after += state.VarCost(k2);
    }

    if (after < before - 1e-9) {
      current += after - before;
      ++result.accepted;
      stall = 0;
      state.SetCost(r1, cost1);
      if (r2 != r1) {
        state.SetCost(r2, cost2);
      }
      moves.Rebuild(state);
    } else {
      state.Restore(saved2);  // Exact revert, in reverse order of the applies.
      state.Restore(saved1);
      ++stall;
    }
  }

  result.counts = state.counts();
  result.final_objective = state.FullObjective();
  // Incremental bookkeeping must agree with the from-scratch evaluation.
  assert(std::fabs(result.final_objective - current) <
         1e-6 * (1.0 + std::fabs(result.final_objective)));
  (void)current;
  return result;
}

}  // namespace ras
