// Twine Allocator: real-time container placement inside a reservation.
//
// The allocator only ever considers servers whose *current* binding is the
// job's reservation (the rigid capacity boundary of Section 5.4) and that are
// not unplanned-unavailable. Within those, placement prefers spreading a
// job's replicas across MSBs, then best-fit packs by remaining CPU so that
// containers from different jobs stack on shared servers (Section 3.1).

#ifndef RAS_SRC_TWINE_ALLOCATOR_H_
#define RAS_SRC_TWINE_ALLOCATOR_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "src/broker/resource_broker.h"
#include "src/twine/container.h"
#include "src/util/status.h"

namespace ras {

struct JobState {
  JobSpec spec;
  std::vector<ContainerId> running;
  // Running replicas per MSB: placement adds one, removal takes one away,
  // so it always equals a recount of `running` by server MSB.
  std::vector<size_t> replicas_per_msb;
  int pending = 0;  // Replicas that could not be placed yet.
};

class TwineAllocator {
 public:
  TwineAllocator(const HardwareCatalog* catalog, ResourceBroker* broker);

  // Submits a job; places as many replicas as fit immediately, the rest stay
  // pending and are retried by RetryPending(). Fails on invalid specs only —
  // lack of capacity is not an error, it is pending work.
  Result<JobId> SubmitJob(const JobSpec& spec);
  Status StopJob(JobId job);
  // Adjusts the replica count of a running job up or down.
  Status ResizeJob(JobId job, int replicas);

  // Evicts every container on `server` (server moved out of the reservation,
  // or failed) and — unless `replace_now` is false — immediately tries to
  // re-place them elsewhere in their reservation; otherwise they go pending
  // for a later RetryPending (used when many servers move in one batch).
  // Returns the number of containers that were displaced.
  size_t EvictServer(ServerId server, bool replace_now = true);

  // Attempts to place all pending replicas; returns how many were placed.
  // Called after capacity arrives (Online Mover replacement, solver round).
  size_t RetryPending();

  // --- Introspection ---
  const JobState* job(JobId id) const;
  size_t running_containers(JobId id) const;
  int pending_containers(JobId id) const;
  size_t total_pending() const;
  size_t containers_on(ServerId server) const;
  // Server running container `cid`; kInvalidServer if it is not running.
  ServerId server_of(ContainerId cid) const;
  // Replicas of `job` per MSB (spread diagnostics).
  std::vector<size_t> ReplicasPerMsb(JobId id) const;

 private:
  struct ServerUsage {
    double cpu_used = 0.0;
    double mem_used = 0.0;
    std::vector<ContainerId> containers;
  };
  struct ContainerState {
    JobId job;
    ServerId server;
  };
  // What placement reads of a server, fixed by its hardware and location.
  struct ServerShape {
    MsbId msb;
    ServerResources capacity;
  };

  // Places one replica of `job_state`; returns false if nothing fits.
  // `exclude` is skipped as a candidate (used during eviction). Linear in
  // the reservation's servers; independent of the job's replica count.
  bool PlaceOne(JobId id, JobState& job_state, ServerId exclude = kInvalidServer);
  void RemoveContainer(ContainerId cid);
  void UpdateHasContainers(ServerId server);

  const HardwareCatalog* catalog_;
  ResourceBroker* broker_;
  // Ordered by JobId: RetryPending() and the eviction paths iterate jobs_,
  // and placement order decides which job wins contended capacity — hash
  // order here would leak into allocation outcomes run-to-run.
  std::map<JobId, JobState> jobs_;
  // Lookup-only (never iterated); hash ordering cannot leak.
  std::unordered_map<ContainerId, ContainerState> containers_;
  std::vector<ServerUsage> usage_;
  std::vector<ServerShape> shape_;  // Indexed by ServerId.
  JobId next_job_ = 1;
  ContainerId next_container_ = 1;
};

}  // namespace ras

#endif  // RAS_SRC_TWINE_ALLOCATOR_H_
