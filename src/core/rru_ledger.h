// RRU ledger: the one place that tallies where each reservation's RRU sits
// (total, per MSB, rack and datacenter) and applies Expression (6)'s rule. A
// reservation that needs a correlated-failure buffer is credited its total
// minus its worst MSB; any other (shared random buffers, elastic pools) its
// total. Tallies are std::maps filled in Add order, so adding in target or
// class order reproduces a per-key accumulation in that order bit for bit.
// ObjectiveState (local_search.cc) keeps a dense copy for its hot loop.

#ifndef RAS_SRC_CORE_RRU_LEDGER_H_
#define RAS_SRC_CORE_RRU_LEDGER_H_

#include <algorithm>
#include <cstddef>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/model_builder.h"
#include "src/core/solve_input.h"

namespace ras {

class RruLedger {
 public:
  // An empty ledger whose row r is reservations[r], which must outlive it.
  explicit RruLedger(const std::vector<ReservationSpec>& reservations);
  // Tallies, in target order, every target bound to a reservation of `input`.
  static RruLedger OfTargets(const SolveInput& input,
                             const std::vector<std::pair<ServerId, ReservationId>>& targets);
  // Tallies class counts aligned with built.assignment_vars, in variable
  // order. A class's rack key is its group: the rack at rack scope.
  static RruLedger OfCounts(const SolveInput& input, const std::vector<EquivalenceClass>& classes,
                            const BuiltModel& built, const std::vector<double>& counts);

  // Row of reservation `id`, or -1 when the ledger has none.
  int RowOf(ReservationId id) const;

  void Add(size_t r, const Server& s, double v) { Tally(r, s.msb, s.rack, s.dc, v); }
  void Add(size_t r, const EquivalenceClass& c, double v) { Tally(r, c.msb, c.group, c.dc, v); }
  // Takes back RRU a server added; a domain left holding at most 1e-9 RRU
  // is dropped from its tally.
  void Remove(size_t r, const Server& server, double rru);

  double Total(size_t r) const { return rows_[r].total; }
  const std::map<MsbId, double>& ByMsb(size_t r) const { return rows_[r].msb; }
  const std::map<DatacenterId, double>& ByDc(size_t r) const { return rows_[r].dc; }
  // RRU held in one domain (0 when none).
  double AtMsb(size_t r, MsbId msb) const { return At(rows_[r].msb, msb); }
  double AtRack(size_t r, RackId rack) const { return At(rows_[r].rack, rack); }
  double AtDc(size_t r, DatacenterId dc) const { return At(rows_[r].dc, dc); }

  // The embedded buffer: the largest per-MSB RRU, 0 when not buffered.
  double WorstMsb(size_t r) const;
  double Effective(size_t r) const { return Total(r) - WorstMsb(r); }
  double Shortfall(size_t r) const {
    return std::max(0.0, (*reservations_)[r].capacity_rru - Effective(r));
  }
  // Shortfall summed over the rows in row order.
  double TotalShortfall() const;
  // RRU above `limit`, summed over the MSBs (racks) the row holds.
  double MsbOverflow(size_t r, double limit) const { return Overflow(rows_[r].msb, limit); }
  double RackOverflow(size_t r, double limit) const { return Overflow(rows_[r].rack, limit); }

 private:
  struct Row {
    double total = 0.0;
    std::map<MsbId, double> msb;
    std::map<RackId, double> rack;
    std::map<DatacenterId, double> dc;
  };

  template <typename Key>
  static double At(const std::map<Key, double>& tally, Key key) {
    auto it = tally.find(key);
    return it == tally.end() ? 0.0 : it->second;
  }
  template <typename Key>
  static double Overflow(const std::map<Key, double>& tally, double threshold) {
    double overflow = 0.0;
    for (const auto& [key, rru] : tally) {
      overflow += std::max(0.0, rru - threshold);
    }
    return overflow;
  }
  void Tally(size_t r, MsbId msb, RackId rack, DatacenterId dc, double rru);

  const std::vector<ReservationSpec>* reservations_;
  std::vector<Row> rows_;
  // Lookup-only (never iterated): hash order cannot leak into a tally.
  std::unordered_map<ReservationId, int> row_of_;
};

}  // namespace ras

#endif  // RAS_SRC_CORE_RRU_LEDGER_H_
