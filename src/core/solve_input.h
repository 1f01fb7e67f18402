// Solve input: the immutable snapshot the Async Solver reads at the start of
// each solve (Figure 6, step 2) — the latest capacity-request state from the
// registry and the complete server fleet state from the Resource Broker —
// plus the symmetry reduction into equivalence classes (Section 3.5.2).

#ifndef RAS_SRC_CORE_SOLVE_INPUT_H_
#define RAS_SRC_CORE_SOLVE_INPUT_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "src/broker/resource_broker.h"
#include "src/core/reservation.h"
#include "src/topology/topology.h"

namespace ras {

// Per-server snapshot fields the solver cares about.
struct ServerSolveState {
  ReservationId current = kUnassigned;  // Elastic loans resolve to home.
  bool in_use = false;                  // Containers running => high move cost.
  bool available = true;                // False on unplanned unavailability.

  bool operator==(const ServerSolveState&) const = default;
};

struct SolveInput {
  const RegionTopology* topology = nullptr;
  const HardwareCatalog* catalog = nullptr;
  // Non-elastic reservations, id order (includes shared random buffers).
  std::vector<ReservationSpec> reservations;
  std::vector<ServerSolveState> servers;  // Indexed by ServerId.

  // Index of a reservation id in `reservations`, or -1.
  int ReservationIndex(ReservationId id) const;

  // Same region objects and field-for-field the same reservations and
  // servers: the round memo's key (src/core/resolve_cache.h).
  bool operator==(const SolveInput&) const = default;
};

// Snapshots broker + registry. Servers loaned to elastic reservations are
// attributed to their home reservation and treated as idle (their moves are
// "virtually free" — the loan is revocable by design).
SolveInput SnapshotSolveInput(const ResourceBroker& broker, const ReservationRegistry& registry,
                              const HardwareCatalog& catalog);

// Structural integrity check a snapshot must pass before it is solved (and
// before its solution may be persisted): topology/catalog present, the server
// vector covering the whole fleet, reservation ids unique with sane capacity
// specs, and every server binding resolving to a snapshotted reservation.
// O(servers + reservations). SnapshotSolveInput output always passes; a
// corrupted or torn snapshot does not.
Status ValidateSolveInput(const SolveInput& input);

// One equivalence class: servers that are interchangeable in the MIP's
// constraints — identical location group (MSB in phase 1, rack in phase 2)
// and hardware type. Bindings are not part of the key: the class carries, per
// reservation, how many of its servers that reservation holds in each
// movement tier (Expression 1's X), and the model prices moves against those
// counts. Merging turns |class| boolean x_{s,r} variables into a single
// integer variable per reservation.
struct EquivalenceClass {
  uint32_t group = 0;  // MSB id or rack id depending on granularity.
  MsbId msb = 0;
  DatacenterId dc = 0;
  HardwareTypeId type = kInvalidHardwareType;
  std::vector<ServerId> servers;  // Ascending id.

  // Servers of the class one reservation holds, by movement tier.
  struct Held {
    ReservationId reservation = kUnassigned;
    size_t idle = 0;
    size_t in_use = 0;

    size_t count() const { return idle + in_use; }
  };
  // Every reservation holding servers here, ascending id; free servers are
  // in no entry.
  std::vector<Held> held;

  size_t count() const { return servers.size(); }
  // What reservation `id` holds here: zero counts when it holds nothing.
  Held HeldBy(ReservationId id) const;
};

struct ClassFilter {
  // When non-null, only servers whose current reservation is in this set, or
  // that are free (kUnassigned), participate. Used by phase 2 to restrict the
  // problem to the reservations with the worst rack objectives.
  const std::unordered_set<ReservationId>* reservations = nullptr;
};

// Groups available servers into equivalence classes keyed by (location group,
// hardware type) at the given granularity (Scope::kMsb for phase 1,
// Scope::kRack for phase 2), with each class's per-reservation holdings.
// Unplanned-unavailable servers are excluded entirely: the availability
// constraint of Section 3.5.1. Deterministic order.
std::vector<EquivalenceClass> BuildEquivalenceClasses(const SolveInput& input, Scope granularity,
                                                      const ClassFilter& filter = {});

}  // namespace ras

#endif  // RAS_SRC_CORE_SOLVE_INPUT_H_
