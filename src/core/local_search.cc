#include "src/core/local_search.h"

#include <algorithm>
#include <cstdint>
#include <limits>

namespace ras {
namespace {

// Incremental objective state. Every coefficient is extracted from the built
// model itself, and every term of the model is scored except the rack-spread
// terms (`rack_spread_terms`, phase 2 only): on a phase-2 model the search
// optimizes, and reports, the objective without its rack-spread penalty.
// Its flat per-(reservation, MSB/DC) arrays are the one deliberate copy of
// the RRU ledger's effective-capacity rule (rru_ledger.h): the descent prices
// every move against them in O(1) and restores them unless it keeps it. The
// coefficients and bounds ReservationCost reads are copied out of the model
// once, so pricing a move touches only this object's tables.
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

// One move of the descent's move set, owned by variable k. Release and
// acquire change k alone; a transfer hands units to k2, a sibling in k's
// class; a relocate hands them to k2, a variable of k's reservation in a
// class with a spare unit. `step` is 1, 2, 4 or 8: chunk moves cross the
// plateaus that threshold terms (spread, hoard) create, where per-unit
// deltas are zero but chunk deltas are not.
enum class MoveKind : uint8_t { kRelease, kAcquire, kTransfer, kRelocate };
struct Move {
  uint32_t k, k2;
  MoveKind kind;
  double step;
};

// Best-first descent over the move set, priced on an ObjectiveState. Every
// variable keeps exactly one heap entry: its best improving move, or none,
// as of its last pricing. Accepting a move marks stale every variable of the
// move's reservations and classes; a stale entry is priced again when it
// reaches the top. Staleness is a cheap approximation of which prices an
// accepted move changed, so once no fresh entry improves, a full pricing
// pass runs, and only a pass that finds nothing ends the descent.
class Descent {
 public:
  Descent(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
          const BuiltModel& built, ObjectiveState* state, int64_t max_priced_moves)
      : classes_(classes), built_(built), state_(*state), max_priced_(max_priced_moves) {
    res_to_vars_.resize(input.reservations.size());
    for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
      res_to_vars_[ResOf(k)].push_back(static_cast<int>(k));
    }
    stale_.assign(built.assignment_vars.size(), false);
  }

  // Runs to a certified local optimum or to the work cap.
  void Run(LocalSearchResult* result) {
    const size_t num_vars = built_.assignment_vars.size();
    while (true) {
      heap_.clear();
      bool found = false;
      for (size_t k = 0; k < num_vars && !OutOfWork(); ++k) {
        found |= Reprice(k);
      }
      if (OutOfWork()) {
        break;
      }
      if (!found) {
        result->local_optimum = true;
        break;
      }
      while (!OutOfWork()) {
        std::pop_heap(heap_.begin(), heap_.end(), Later);
        const Entry top = heap_.back();
        heap_.pop_back();
        if (stale_[top.move.k]) {
          Reprice(top.move.k);
        } else if (top.delta == kNone) {
          break;  // Nothing fresh improves; certify with a full pass.
        } else if (Price(top.move, /*keep=*/true)) {
          ++result->accepted;
          MarkStale(top.move);
          heap_.push_back(top);  // Stale now: priced again when it surfaces.
          std::push_heap(heap_.begin(), heap_.end(), Later);
        } else {
          Reprice(top.move.k);
        }
      }
    }
    result->priced_moves = priced_;
  }

 private:
  // A variable's entry: its best improving move and that move's delta, or
  // kNone when it has none.
  struct Entry {
    double delta;
    Move move;
  };
  static constexpr double kNone = std::numeric_limits<double>::infinity();
  // Heap order: lowest delta first, then lowest variable.
  static bool Later(const Entry& a, const Entry& b) {
    return a.delta != b.delta ? a.delta > b.delta : a.move.k > b.move.k;
  }

  size_t ClassOf(size_t k) const {
    return static_cast<size_t>(built_.assignment_vars[k].class_index);
  }
  size_t ResOf(size_t k) const {
    return static_cast<size_t>(built_.assignment_vars[k].reservation_index);
  }
  double Spare(size_t c) const {
    return static_cast<double>(classes_[c].count()) - state_.used(c);
  }
  bool OutOfWork() const { return priced_ >= max_priced_; }

  // The units m moves into k under the current state (negative when k gives
  // them up), or 0 when m is not a move now.
  double Amount(const Move& m) const {
    const double held = state_.counts()[m.k];
    switch (m.kind) {
      case MoveKind::kAcquire: {
        const double spare = Spare(ClassOf(m.k));
        return spare >= 1.0 ? std::min(m.step, spare) : 0.0;
      }
      case MoveKind::kRelocate: {
        const double spare = Spare(ClassOf(m.k2));
        return held >= 1.0 && spare >= 1.0 ? -std::min({m.step, held, spare}) : 0.0;
      }
      case MoveKind::kRelease:
      case MoveKind::kTransfer:
        break;
    }
    return held >= 1.0 ? -std::min(m.step, held) : 0.0;
  }

  // Prices m on the current state: applies it, scores the terms it touches,
  // and restores the state exactly unless `keep` and m improves. Returns
  // whether m improves; *delta gets the change in objective.
  bool Price(const Move& m, bool keep, double* delta = nullptr) {
    const double d1 = Amount(m);
    if (d1 == 0.0) {
      return false;
    }
    ++priced_;
    const size_t k = m.k;
    const size_t k2 = m.k2;
    const size_t r1 = ResOf(k);
    const size_t r2 = ResOf(k2);
    double before = state_.cost(r1) + state_.VarCost(k);
    if (k2 != k) {
      before += (r2 != r1 ? state_.cost(r2) : 0.0) + state_.VarCost(k2);
    }
    const auto saved1 = state_.Save(k);
    const auto saved2 = state_.Save(k2);
    state_.ApplyDelta(k, d1);
    if (k2 != k) {
      state_.ApplyDelta(k2, -d1);
    }
    const double cost1 = state_.ReservationCost(r1);
    double after = cost1 + state_.VarCost(k);
    double cost2 = 0.0;
    if (k2 != k) {
      cost2 = r2 != r1 ? state_.ReservationCost(r2) : 0.0;
      after += cost2 + state_.VarCost(k2);
    }
    // Every compared term is non-negative, so `before` bounds their
    // rounding noise; a gain inside it is not a gain.
    const bool improves = after < before - kRelativeTolerance * before;
    if (delta != nullptr) {
      *delta = after - before;
    }
    if (keep && improves) {
      state_.SetCost(r1, cost1);
      if (r2 != r1) {
        state_.SetCost(r2, cost2);
      }
    } else {
      state_.Restore(saved2);  // Exact revert, in reverse order of the applies.
      state_.Restore(saved1);
    }
    return improves;
  }

  // Prices every move of k at every step, in a fixed order, and pushes k's
  // entry. Returns whether k has an improving move.
  bool Reprice(size_t k) {
    stale_[k] = false;
    Entry best{kNone, {}};
    auto consider = [&](MoveKind kind, size_t k2) {
      double last = 0.0;
      for (double step : {1.0, 2.0, 4.0, 8.0}) {
        const Move m{static_cast<uint32_t>(k), static_cast<uint32_t>(k2), kind, step};
        const double amount = Amount(m);
        if (amount == last || OutOfWork()) {
          return;  // Not a move, or larger steps clamp to the one just priced.
        }
        last = amount;
        double delta = 0.0;
        if (Price(m, /*keep=*/false, &delta) && delta < best.delta) {
          best = {delta, m};
        }
      }
    };
    consider(MoveKind::kRelease, k);
    consider(MoveKind::kAcquire, k);
    if (state_.counts()[k] >= 1.0) {
      for (int k2 : built_.class_to_vars[ClassOf(k)]) {
        if (static_cast<size_t>(k2) != k) {
          consider(MoveKind::kTransfer, static_cast<size_t>(k2));
        }
      }
      for (int k2 : res_to_vars_[ResOf(k)]) {
        if (static_cast<size_t>(k2) != k) {
          consider(MoveKind::kRelocate, static_cast<size_t>(k2));
        }
      }
    }
    best.move.k = static_cast<uint32_t>(k);
    heap_.push_back(best);
    std::push_heap(heap_.begin(), heap_.end(), Later);
    return best.delta != kNone;
  }

  void MarkStale(const Move& m) {
    const std::vector<int>* touched[] = {
        &res_to_vars_[ResOf(m.k)], &res_to_vars_[ResOf(m.k2)],
        &built_.class_to_vars[ClassOf(m.k)], &built_.class_to_vars[ClassOf(m.k2)]};
    for (const std::vector<int>* vars : touched) {
      for (int k : *vars) {
        stale_[static_cast<size_t>(k)] = true;
      }
    }
  }

  // Relative threshold below which a priced gain counts as rounding noise.
  static constexpr double kRelativeTolerance = 1e-12;

  const std::vector<EquivalenceClass>& classes_;
  const BuiltModel& built_;
  ObjectiveState& state_;
  const int64_t max_priced_;
  int64_t priced_ = 0;
  std::vector<std::vector<int>> res_to_vars_;  // Per reservation: its variables.
  std::vector<bool> stale_;
  std::vector<Entry> heap_;
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
  Descent(input, classes, built, &state, options.max_priced_moves).Run(&result);
  result.counts = state.counts();
  result.final_objective = state.FullObjective();
  return result;
}

}  // namespace ras
