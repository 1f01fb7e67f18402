// Resource Broker: the region's source of truth for server-to-reservation
// bindings (Figure 6, bottom).
//
// Each server carries a *current* binding (what the Online Mover has
// materialized), a *target* binding (the Async Solver's latest intent), an
// unavailability field maintained by the Health Check Service, and elastic
// loan state. Watchers (the Twine allocator and Online Mover in production)
// subscribe to record changes.
//
// The production broker is highly-available replicated storage; durability is
// orthogonal to the allocation behaviour reproduced here, so this is a
// versioned in-memory store with the same interface shape.

#ifndef RAS_SRC_BROKER_RESOURCE_BROKER_H_
#define RAS_SRC_BROKER_RESOURCE_BROKER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "src/topology/topology.h"
#include "src/util/mutex.h"
#include "src/util/status.h"
#include "src/util/thread_annotations.h"

namespace ras {

using ReservationId = uint32_t;
inline constexpr ReservationId kUnassigned = 0xffffffff;

enum class Unavailability : uint8_t {
  kNone = 0,
  kPlannedMaintenance,   // Usable capacity for solver purposes (Section 3.5.1).
  kUnplannedSoftware,    // Short-lived software failure.
  kUnplannedHardware,    // Long-lived hardware failure / repair.
};

bool IsUnplanned(Unavailability u);

struct ServerRecord {
  ServerId server = kInvalidServer;
  // Materialized binding: the reservation whose containers may use this
  // server right now. kUnassigned = region free pool.
  ReservationId current = kUnassigned;
  // Solver intent; the Online Mover converges current toward target.
  ReservationId target = kUnassigned;
  // When this server is loaned out as elastic capacity, `home` remembers the
  // guaranteed reservation it must be returned to on revocation.
  ReservationId home = kUnassigned;
  bool elastic_loan = false;
  Unavailability unavailability = Unavailability::kNone;
  // Maintained by the container allocator; feeds the stability objective's
  // in-use / idle movement-cost tiers.
  bool has_containers = false;
  uint64_t version = 0;
};

class ResourceBroker {
 public:
  explicit ResourceBroker(const RegionTopology* topology);

  const RegionTopology& topology() const { return *topology_; }
  size_t num_servers() const { return records_.size(); }
  const ServerRecord& record(ServerId id) const { return records_[id]; }

  // Store-wide mutation counter: bumped on every record change. Snapshot
  // consumers (the solver supervisor) compare generations to detect that the
  // world moved while a solve was in flight. The counter has its own mutex —
  // it is the one broker field a supervisor may poll from another thread
  // while a solve mutates records.
  uint64_t generation() const EXCLUDES(gen_mu_) {
    MutexLock lock(&gen_mu_);
    return generation_;
  }
  // Models an out-of-band mutation (an emergency operator write, a replica
  // catching up) without changing any record; invalidates open snapshots.
  void MarkExternalMutation() EXCLUDES(gen_mu_) { BumpGeneration(); }

  // --- Mutations (bump the record version and notify watchers) ---
  void SetTarget(ServerId id, ReservationId target);
  void SetCurrent(ServerId id, ReservationId current);
  void SetElasticLoan(ServerId id, ReservationId home, bool loaned);
  void SetUnavailability(ServerId id, Unavailability u);
  void SetHasContainers(ServerId id, bool has);

  // --- Fallible target writes (the production broker is replicated storage;
  // --- a write can fail on quorum loss) ---
  // Like SetTarget but subject to the write-fault hook; UNAVAILABLE when the
  // write is rejected, in which case the record is untouched.
  Status TrySetTarget(ServerId id, ReservationId target);
  // Persists a whole solve result atomically with respect to failure: on the
  // first rejected write, every earlier write of this batch is rolled back
  // and UNAVAILABLE is returned — the broker never holds a half-applied
  // target set.
  Status ApplyTargets(const std::vector<std::pair<ServerId, ReservationId>>& targets);

  // Fault injection: when set, TrySetTarget/ApplyTargets consult the hook and
  // fail the write when it returns true. `failed_writes()` counts rejections.
  using WriteFaultHook = std::function<bool(ServerId, ReservationId)>;
  void SetWriteFaultHook(WriteFaultHook hook) { write_fault_hook_ = std::move(hook); }
  size_t failed_writes() const { return failed_writes_; }

  // --- Queries ---
  // Servers currently bound to `reservation` (kUnassigned = free pool).
  const std::vector<ServerId>& ServersInReservation(ReservationId reservation) const;
  size_t CountInReservation(ReservationId reservation) const;
  // All servers whose current != target, i.e. pending Online Mover work.
  std::vector<ServerId> PendingMoves() const;

  // --- Watchers ---
  using Watcher = std::function<void(const ServerRecord&)>;
  int Subscribe(Watcher watcher);
  void Unsubscribe(int handle);

 private:
  void Notify(ServerId id);
  void BumpGeneration() EXCLUDES(gen_mu_) {
    MutexLock lock(&gen_mu_);
    ++generation_;
  }
  void IndexRemove(ReservationId reservation, ServerId id);
  void IndexAdd(ReservationId reservation, ServerId id);

  const RegionTopology* topology_;
  std::vector<ServerRecord> records_;
  // current-binding index; key kUnassigned holds the free pool. Lookup-only
  // (never iterated), so hash ordering cannot leak into any output. Each
  // list's order is its history of appends and swap-removes, and Twine's
  // placement tie-break reads it.
  std::unordered_map<ReservationId, std::vector<ServerId>> by_reservation_;
  // slot_[id] is id's position in by_reservation_[records_[id].current], so
  // IndexRemove swap-removes without searching the list.
  std::vector<size_t> slot_;
  // Ordered by handle: Notify() walks this map, and watcher callbacks have
  // side effects (Twine allocator, Online Mover), so the walk order must be
  // deterministic.
  std::map<int, Watcher> watchers_;
  int next_watcher_ = 1;
  std::vector<ServerId> empty_;
  mutable Mutex gen_mu_;
  uint64_t generation_ GUARDED_BY(gen_mu_) = 0;
  WriteFaultHook write_fault_hook_;
  size_t failed_writes_ = 0;
};

}  // namespace ras

#endif  // RAS_SRC_BROKER_RESOURCE_BROKER_H_
