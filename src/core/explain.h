// Assignment explanation (the Section 5.3 lesson: operators must be able to
// describe to service owners why they received a certain composition of
// hardware generations or a particular spread across fault domains).
//
// Summarizes a reservation's current allocation — hardware mix, fault-domain
// spread, datacenter placement, buffer exposure — and annotates each
// dimension with the policy that produced it.

#ifndef RAS_SRC_CORE_EXPLAIN_H_
#define RAS_SRC_CORE_EXPLAIN_H_

#include <map>
#include <string>
#include <vector>

#include "src/broker/resource_broker.h"
#include "src/core/model_builder.h"
#include "src/core/reservation.h"

namespace ras {

struct AssignmentExplanation {
  ReservationId reservation = kUnassigned;
  std::string name;
  double capacity_rru = 0.0;

  size_t servers = 0;
  double total_rru = 0.0;
  // Per hardware type: (server count, RRU contribution).
  std::map<HardwareTypeId, std::pair<size_t, double>> by_type;
  // Per MSB: RRU held there.
  std::map<MsbId, double> by_msb;
  // Per datacenter: RRU held there.
  std::map<DatacenterId, double> by_dc;

  bool buffered = true;           // Needs a correlated-failure buffer.
  double worst_msb_rru = 0.0;     // The embedded buffer; 0 when not buffered.
  double effective_rru = 0.0;     // total - worst_msb_rru: the credited capacity.
  double shortfall_rru = 0.0;     // max(0, C_r - effective).
  double spread_threshold = 0.0;  // alpha_F * C_r actually applied.
  size_t msbs_over_threshold = 0;

  // Expression (1)'s tiers: servers running containers (loans count idle,
  // as the solver sees them) and what moving every server out would cost,
  // in-use ones at move_cost_in_use and idle ones at move_cost_idle.
  size_t in_use_servers = 0;
  double move_out_cost = 0.0;

  // Human-readable multi-line report.
  std::string ToString(const HardwareCatalog& catalog) const;
};

// Explains `reservation`'s current binding. `config` supplies the default
// spread threshold so the report can say which MSBs exceed it.
AssignmentExplanation ExplainAssignment(const ResourceBroker& broker,
                                        const ReservationRegistry& registry,
                                        const HardwareCatalog& catalog,
                                        ReservationId reservation,
                                        const SolverConfig& config = SolverConfig());

}  // namespace ras

#endif  // RAS_SRC_CORE_EXPLAIN_H_
