#include "src/core/rru_ledger.h"

namespace ras {
namespace {

template <typename Key>
void Take(std::map<Key, double>& tally, Key key, double rru) {
  auto it = tally.find(key);
  if (it != tally.end() && (it->second -= rru) <= 1e-9) {
    tally.erase(it);
  }
}

}  // namespace

RruLedger::RruLedger(const std::vector<ReservationSpec>& reservations)
    : reservations_(&reservations), rows_(reservations.size()) {
  for (size_t r = 0; r < reservations.size(); ++r) {
    row_of_[reservations[r].id] = static_cast<int>(r);
  }
}

RruLedger RruLedger::OfTargets(const SolveInput& input,
                               const std::vector<std::pair<ServerId, ReservationId>>& targets) {
  RruLedger ledger(input.reservations);
  for (const auto& [server, res] : targets) {
    const int r = ledger.RowOf(res);
    if (r >= 0) {
      const Server& s = input.topology->server(server);
      ledger.Add(static_cast<size_t>(r), s, input.reservations[r].ValueOfType(s.type));
    }
  }
  return ledger;
}

RruLedger RruLedger::OfCounts(const SolveInput& input,
                              const std::vector<EquivalenceClass>& classes,
                              const BuiltModel& built, const std::vector<double>& counts) {
  RruLedger ledger(input.reservations);
  for (size_t k = 0; k < built.assignment_vars.size(); ++k) {
    const auto& av = built.assignment_vars[k];
    const EquivalenceClass& cls = classes[static_cast<size_t>(av.class_index)];
    const size_t r = static_cast<size_t>(av.reservation_index);
    ledger.Add(r, cls, input.reservations[r].ValueOfType(cls.type) * counts[k]);
  }
  return ledger;
}

int RruLedger::RowOf(ReservationId id) const {
  auto it = row_of_.find(id);
  return it == row_of_.end() ? -1 : it->second;
}

void RruLedger::Tally(size_t r, MsbId msb, RackId rack, DatacenterId dc, double rru) {
  Row& row = rows_[r];
  row.total += rru;
  row.msb[msb] += rru;
  row.rack[rack] += rru;
  row.dc[dc] += rru;
}

void RruLedger::Remove(size_t r, const Server& server, double rru) {
  Row& row = rows_[r];
  row.total -= rru;
  Take(row.msb, server.msb, rru);
  Take(row.rack, server.rack, rru);
  Take(row.dc, server.dc, rru);
}

double RruLedger::WorstMsb(size_t r) const {
  double worst = 0.0;
  if ((*reservations_)[r].needs_correlated_buffer) {
    for (const auto& [msb, rru] : rows_[r].msb) {
      worst = std::max(worst, rru);
    }
  }
  return worst;
}

double RruLedger::TotalShortfall() const {
  double shortfall = 0.0;
  for (size_t r = 0; r < rows_.size(); ++r) {
    shortfall += Shortfall(r);
  }
  return shortfall;
}

}  // namespace ras
