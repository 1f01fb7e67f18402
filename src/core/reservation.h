// Reservations: RAS's capacity abstraction (Section 3.1).
//
// A reservation is a logical cluster — a guaranteed amount of capacity
// expressed in relative resource units (RRUs) plus placement policy. The
// registry is the durable state behind the Capacity Portal: service owners
// create / modify / delete capacity requests, and the Async Solver reads the
// full request state at each solve.

#ifndef RAS_SRC_CORE_RESERVATION_H_
#define RAS_SRC_CORE_RESERVATION_H_

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/broker/resource_broker.h"
#include "src/topology/hardware.h"
#include "src/util/status.h"

namespace ras {

struct ReservationSpec {
  ReservationId id = kUnassigned;  // Assigned by the registry on Create.
  std::string name;

  // Requested guaranteed capacity C_r, in RRUs.
  double capacity_rru = 0.0;

  // V_{s,r}: RRU value of one server of each hardware type for this
  // reservation (indexed by HardwareTypeId; 0 = that type cannot serve it).
  // Count-based requests simply use 1.0 for every acceptable type.
  std::vector<double> rru_per_type;

  // Whether this reservation embeds a correlated-failure buffer
  // (Expressions 4 and 6). True for guaranteed reservations; false for the
  // shared random-failure buffer and elastic reservations.
  bool needs_correlated_buffer = true;

  // The per-hardware-type shared random-failure buffer (Section 3.3.1) is a
  // standalone special reservation.
  bool is_shared_random_buffer = false;

  // Elastic reservations receive opportunistic capacity from idle buffers
  // (Section 3.4). They are not part of the MIP: the Online Mover manages
  // their loans directly and revokes on failure.
  bool is_elastic = false;

  // Spread thresholds alpha_F (MSB) and alpha_K (rack) as a fraction of C_r;
  // 0 means "use the solver-config default".
  double msb_spread_alpha = 0.0;
  double rack_spread_alpha = 0.0;

  // Network affinity A_{r,G} (Expression 7): desired fraction of capacity per
  // datacenter, e.g. storage-locality ratios. Empty = no affinity constraint.
  std::map<DatacenterId, double> dc_affinity;
  double affinity_theta = 0.05;  // Tolerance around each A value.

  // Storage services consume their embedded buffer for redundant replicas
  // (Section 3.3.2). Replication-based storage additionally needs a *hard*
  // spread cap so a quorum survives any MSB loss: with max_msb_fraction_hard
  // = f > 0, no MSB may hold more than f of C_r (e.g. f = 0.33 keeps 2/3 of
  // a 3-way replicated quorum alive). Enforced as a near-hard constraint
  // (softened only above the affinity tier, per Section 3.5.1).
  bool is_storage = false;
  double max_msb_fraction_hard = 0.0;  // 0 = no hard cap.

  // Not yet migrated to RAS: servers bound to this reservation are managed
  // by the legacy greedy path (Section 1.1) — the solver neither counts them
  // as supply nor rebinds them. Flipping this to false is how a region
  // progressively "enables RAS" (Figures 12 and 14).
  bool externally_managed = false;

  // Twine Host Profile (Section 3.1): the OS configuration (kernel version &
  // settings) this reservation's servers must run. When a server moves
  // between reservations with different profiles, the Online Mover performs
  // host cleanup + OS reconfiguration before the binding completes. An empty
  // string is the fleet-default profile.
  std::string host_profile;

  // Returns the RRU value of `type` (0 when out of range).
  double ValueOfType(HardwareTypeId type) const {
    return type < rru_per_type.size() ? rru_per_type[type] : 0.0;
  }

  bool operator==(const ReservationSpec&) const = default;
};

// All capacity-request state, keyed by reservation id. Ids are stable for the
// lifetime of the registry (deleted ids are not reused).
class ReservationRegistry {
 public:
  // Every write path validates the spec the same way: capacity finite and,
  // for non-elastic requests, positive; some hardware type with a positive
  // RRU value; affinity shares in [0, 2]; affinity theta >= 0.
  //
  // Assigns the id.
  Result<ReservationId> Create(ReservationSpec spec);
  // Inserts a spec under its existing id (state restore); rejects duplicates
  // and keeps future Create() ids above the restored ones.
  Result<ReservationId> Restore(ReservationSpec spec);
  Status Update(const ReservationSpec& spec);  // spec.id must exist.
  Status Remove(ReservationId id);

  const ReservationSpec* Find(ReservationId id) const;
  size_t size() const { return specs_.size(); }
  // Bumped by every successful Create/Restore/Update/Remove: the state
  // digest re-serializes the reservation lines only when it moved.
  uint64_t mutations() const { return mutations_; }

  // Specs in id order. Stable iteration order keeps solves deterministic.
  std::vector<const ReservationSpec*> All() const;
  // Non-elastic, non-buffer reservations (the MIP's "guaranteed" set plus
  // shared buffers are returned by AllSolvable; elastic ones are skipped).
  std::vector<const ReservationSpec*> AllSolvable() const;
  std::vector<const ReservationSpec*> AllElastic() const;

 private:
  std::map<ReservationId, ReservationSpec> specs_;  // Ordered for determinism.
  ReservationId next_id_ = 1;
  uint64_t mutations_ = 0;
};

}  // namespace ras

#endif  // RAS_SRC_CORE_RESERVATION_H_
