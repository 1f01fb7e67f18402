// Reference Twine allocator for differential tests: the placement rule
// written the plain way. Every placement recounts the job's replicas per MSB
// from its running containers and scores every candidate in the
// reservation, reading capacity from the catalog. TwineAllocator keeps a
// per-job MSB tally, a flat per-server table and an early skip instead, and
// must make exactly the same choices.

#ifndef RAS_TESTS_TWINE_ALLOCATOR_ORACLE_H_
#define RAS_TESTS_TWINE_ALLOCATOR_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <vector>

#include "src/broker/resource_broker.h"
#include "src/twine/container.h"

namespace ras {

class AllocatorOracle {
 public:
  struct Job {
    JobSpec spec;
    std::vector<ContainerId> running;
    int pending = 0;
  };
  struct Placed {
    JobId job;
    ServerId server;
  };

  AllocatorOracle(const HardwareCatalog* catalog, ResourceBroker* broker)
      : catalog_(catalog), broker_(broker), usage_(broker->num_servers()) {}

  JobId SubmitJob(const JobSpec& spec) {
    JobId id = next_job_++;
    Job& job = jobs_[id];
    job.spec = spec;
    job.pending = spec.replicas;
    while (job.pending > 0 && PlaceOne(id, job)) {
      --job.pending;
    }
    return id;
  }

  void StopJob(JobId id) {
    std::vector<ContainerId> running = jobs_.at(id).running;
    for (ContainerId cid : running) {
      RemoveContainer(cid);
    }
    jobs_.erase(id);
  }

  void ResizeJob(JobId id, int replicas) {
    Job& job = jobs_.at(id);
    int total = static_cast<int>(job.running.size()) + job.pending;
    if (replicas >= total) {
      job.pending += replicas - total;
      while (job.pending > 0 && PlaceOne(id, job)) {
        --job.pending;
      }
    } else {
      int to_remove = total - replicas;
      int from_pending = std::min(to_remove, job.pending);
      job.pending -= from_pending;
      to_remove -= from_pending;
      for (; to_remove > 0 && !job.running.empty(); --to_remove) {
        RemoveContainer(job.running.back());
      }
    }
    job.spec.replicas = replicas;
  }

  size_t EvictServer(ServerId server, bool replace_now) {
    std::vector<ContainerId> evicted = usage_[server].containers;
    std::vector<JobId> owners;
    for (ContainerId cid : evicted) {
      owners.push_back(containers_.at(cid).job);
      RemoveContainer(cid);
    }
    for (JobId id : owners) {
      Job& job = jobs_.at(id);
      if (!replace_now || !PlaceOne(id, job, server)) {
        ++job.pending;
      }
    }
    return evicted.size();
  }

  size_t RetryPending() {
    size_t placed = 0;
    for (auto& [id, job] : jobs_) {
      while (job.pending > 0 && PlaceOne(id, job)) {
        --job.pending;
        ++placed;
      }
    }
    return placed;
  }

  const std::map<JobId, Job>& jobs() const { return jobs_; }
  const std::map<ContainerId, Placed>& containers() const { return containers_; }

  std::vector<size_t> ReplicasPerMsb(JobId id) const {
    const RegionTopology& topo = broker_->topology();
    std::vector<size_t> out(topo.num_msbs(), 0);
    for (ContainerId cid : jobs_.at(id).running) {
      out[topo.server(containers_.at(cid).server).msb]++;
    }
    return out;
  }

 private:
  struct Usage {
    double cpu_used = 0.0;
    double mem_used = 0.0;
    std::vector<ContainerId> containers;
  };

  bool PlaceOne(JobId id, Job& job, ServerId exclude = kInvalidServer) {
    const ContainerSpec& demand = job.spec.container;
    const RegionTopology& topo = broker_->topology();
    std::vector<size_t> replicas_per_msb = ReplicasPerMsb(id);
    ServerId best = kInvalidServer;
    size_t best_msb_load = SIZE_MAX;
    double best_remaining_cpu = 0.0;
    for (ServerId sid : broker_->ServersInReservation(job.spec.reservation)) {
      if (sid == exclude || broker_->record(sid).unavailability != Unavailability::kNone) {
        continue;
      }
      ServerResources cap = CapacityOf(catalog_->type(topo.server(sid).type));
      double cpu_left = cap.cpu - usage_[sid].cpu_used;
      double mem_left = cap.memory_gb - usage_[sid].mem_used;
      if (cpu_left < demand.cpu || mem_left < demand.memory_gb) {
        continue;
      }
      size_t msb_load = replicas_per_msb[topo.server(sid).msb];
      if (msb_load < best_msb_load ||
          (msb_load == best_msb_load &&
           (best == kInvalidServer || cpu_left < best_remaining_cpu))) {
        best = sid;
        best_msb_load = msb_load;
        best_remaining_cpu = cpu_left;
      }
    }
    if (best == kInvalidServer) {
      return false;
    }
    ContainerId cid = next_container_++;
    containers_[cid] = Placed{id, best};
    usage_[best].cpu_used += demand.cpu;
    usage_[best].mem_used += demand.memory_gb;
    usage_[best].containers.push_back(cid);
    job.running.push_back(cid);
    broker_->SetHasContainers(best, true);
    return true;
  }

  void RemoveContainer(ContainerId cid) {
    Placed placed = containers_.at(cid);
    containers_.erase(cid);
    Job& job = jobs_.at(placed.job);
    job.running.erase(std::remove(job.running.begin(), job.running.end(), cid),
                      job.running.end());
    Usage& u = usage_[placed.server];
    u.containers.erase(std::remove(u.containers.begin(), u.containers.end(), cid),
                       u.containers.end());
    u.cpu_used -= job.spec.container.cpu;
    u.mem_used -= job.spec.container.memory_gb;
    if (u.containers.empty()) {
      u.cpu_used = 0.0;
      u.mem_used = 0.0;
    }
    broker_->SetHasContainers(placed.server, !u.containers.empty());
  }

  const HardwareCatalog* catalog_;
  ResourceBroker* broker_;
  std::map<JobId, Job> jobs_;
  std::map<ContainerId, Placed> containers_;
  std::vector<Usage> usage_;
  JobId next_job_ = 1;
  ContainerId next_container_ = 1;
};

}  // namespace ras

#endif  // RAS_TESTS_TWINE_ALLOCATOR_ORACLE_H_
