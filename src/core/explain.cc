#include "src/core/explain.h"

#include <cstdio>

#include "src/core/rru_ledger.h"

namespace ras {

AssignmentExplanation ExplainAssignment(const ResourceBroker& broker,
                                        const ReservationRegistry& registry,
                                        const HardwareCatalog& catalog,
                                        ReservationId reservation, const SolverConfig& config) {
  AssignmentExplanation out;
  out.reservation = reservation;
  const ReservationSpec* spec = registry.Find(reservation);
  if (spec == nullptr) {
    out.name = "<unknown reservation>";
    return out;
  }
  out.name = spec->name;
  out.capacity_rru = spec->capacity_rru;

  const RegionTopology& topo = broker.topology();
  const std::vector<ReservationSpec> specs = {*spec};
  RruLedger ledger(specs);
  for (ServerId id : broker.ServersInReservation(reservation)) {
    const Server& s = topo.server(id);
    double v = spec->ValueOfType(s.type);
    ++out.servers;
    auto& [count, rru] = out.by_type[s.type];
    ++count;
    rru += v;
    ledger.Add(0, s, v);
    const ServerRecord& rec = broker.record(id);
    const bool in_use = rec.has_containers && !rec.elastic_loan;
    out.in_use_servers += in_use ? 1 : 0;
    out.move_out_cost += in_use ? config.move_cost_in_use : config.move_cost_idle;
  }
  out.total_rru = ledger.Total(0);
  out.by_msb = ledger.ByMsb(0);
  out.by_dc = ledger.ByDc(0);
  out.buffered = spec->needs_correlated_buffer;
  out.worst_msb_rru = ledger.WorstMsb(0);
  out.effective_rru = ledger.Effective(0);
  out.shortfall_rru = ledger.Shortfall(0);
  out.spread_threshold = MsbSpreadThreshold(*spec, config, topo);
  for (const auto& [msb, rru] : out.by_msb) {
    out.msbs_over_threshold += rru > out.spread_threshold + 1e-9 ? 1 : 0;
  }
  (void)catalog;
  return out;
}

std::string AssignmentExplanation::ToString(const HardwareCatalog& catalog) const {
  std::string s;
  char line[256];
  std::snprintf(line, sizeof(line), "reservation %s (id %u): %zu servers, %.1f RRU for a %.1f "
                "RRU request\n",
                name.c_str(), reservation, servers, total_rru, capacity_rru);
  s += line;
  const char* short_note = shortfall_rru > 1e-6 ? " — SHORT of the request" : "";
  if (buffered) {
    std::snprintf(line, sizeof(line),
                  "  guarantee: %.1f RRU survives any single-MSB loss (worst MSB holds %.1f "
                  "RRU, the embedded correlated-failure buffer)%s\n",
                  effective_rru, worst_msb_rru, short_note);
  } else {
    std::snprintf(line, sizeof(line), "  guarantee: %.1f RRU, no correlated-failure buffer%s\n",
                  effective_rru, short_note);
  }
  s += line;
  s += "  hardware mix (why: request's RRU table values these types; the solver picks\n"
       "  whatever mix meets the RRU total cheapest):\n";
  for (const auto& [type, entry] : by_type) {
    std::snprintf(line, sizeof(line), "    %-8s x%-5zu -> %8.1f RRU\n",
                  catalog.type(type).name.c_str(), entry.first, entry.second);
    s += line;
  }
  std::snprintf(line, sizeof(line),
                "  fault-domain spread: %zu MSBs, per-MSB threshold %.1f RRU, %zu over it "
                "(why: Expression 3 penalizes concentration; the worst MSB bounds the "
                "embedded buffer)\n",
                by_msb.size(), spread_threshold, msbs_over_threshold);
  s += line;
  std::snprintf(line, sizeof(line),
                "  stability: %zu in use, %zu idle; moving all out costs %.0f (why: "
                "Expression 1 prices in-use moves above idle ones, so the solver releases "
                "idle servers first)\n",
                in_use_servers, servers - in_use_servers, move_out_cost);
  s += line;
  s += "  datacenter placement (why: affinity constraints, if any, pin shares; "
       "otherwise spread decides):\n";
  for (const auto& [dc, rru] : by_dc) {
    std::snprintf(line, sizeof(line), "    DC %-3u %8.1f RRU (%.0f%%)\n", dc, rru,
                  total_rru > 0 ? 100.0 * rru / total_rru : 0.0);
    s += line;
  }
  return s;
}

}  // namespace ras
