#include "src/twine/allocator.h"

#include <algorithm>
#include <cassert>

namespace ras {

ServerResources CapacityOf(const HardwareType& type) {
  return ServerResources{type.compute_units * kCoresPerComputeUnit, type.memory_gb};
}

TwineAllocator::TwineAllocator(const HardwareCatalog* catalog, ResourceBroker* broker)
    : catalog_(catalog), broker_(broker) {
  assert(catalog != nullptr && broker != nullptr);
  usage_.resize(broker->num_servers());
  const RegionTopology& topo = broker->topology();
  shape_.reserve(broker->num_servers());
  for (ServerId id = 0; id < broker->num_servers(); ++id) {
    const Server& server = topo.server(id);
    shape_.push_back({server.msb, CapacityOf(catalog->type(server.type))});
  }
}

Result<JobId> TwineAllocator::SubmitJob(const JobSpec& spec) {
  if (spec.replicas < 0) {
    return Status::InvalidArgument("negative replica count");
  }
  if (spec.container.cpu <= 0 || spec.container.memory_gb <= 0) {
    return Status::InvalidArgument("container demands must be positive");
  }
  if (spec.reservation == kUnassigned) {
    return Status::InvalidArgument("job must reference a reservation");
  }
  JobId id = next_job_++;
  JobState& state = jobs_[id];
  state.spec = spec;
  state.replicas_per_msb.assign(broker_->topology().num_msbs(), 0);
  state.pending = spec.replicas;
  while (state.pending > 0 && PlaceOne(id, state)) {
    --state.pending;
  }
  return id;
}

Status TwineAllocator::StopJob(JobId job) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return Status::NotFound("no such job");
  }
  // Copy: RemoveContainer mutates the running list.
  std::vector<ContainerId> running = it->second.running;
  for (ContainerId cid : running) {
    RemoveContainer(cid);
  }
  jobs_.erase(it);
  return Status::Ok();
}

Status TwineAllocator::ResizeJob(JobId job, int replicas) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return Status::NotFound("no such job");
  }
  if (replicas < 0) {
    return Status::InvalidArgument("negative replica count");
  }
  JobState& state = it->second;
  int current_total = static_cast<int>(state.running.size()) + state.pending;
  if (replicas >= current_total) {
    state.pending += replicas - current_total;
    while (state.pending > 0 && PlaceOne(job, state)) {
      --state.pending;
    }
    state.spec.replicas = replicas;
    return Status::Ok();
  }
  int to_remove = current_total - replicas;
  // Drop pending first, then tear down running replicas (newest first).
  int from_pending = std::min(to_remove, state.pending);
  state.pending -= from_pending;
  to_remove -= from_pending;
  while (to_remove > 0 && !state.running.empty()) {
    RemoveContainer(state.running.back());
    --to_remove;
  }
  state.spec.replicas = replicas;
  return Status::Ok();
}

bool TwineAllocator::PlaceOne(JobId id, JobState& job_state, ServerId exclude) {
  const ContainerSpec& demand = job_state.spec.container;
  const auto& candidates = broker_->ServersInReservation(job_state.spec.reservation);
  const std::vector<size_t>& replicas_per_msb = job_state.replicas_per_msb;

  // Prefer the least-loaded MSB (spread), then the fullest server that still
  // fits (best-fit packing for stacking efficiency), then the first in
  // candidate order.
  ServerId best = kInvalidServer;
  size_t best_msb_load = SIZE_MAX;
  double best_remaining_cpu = 0.0;
  for (ServerId sid : candidates) {
    const ServerShape& shape = shape_[sid];
    const size_t msb_load = replicas_per_msb[shape.msb];
    // A heavier MSB than the best so far can never win, and the best's load
    // only falls, so skipping it first changes no choice.
    if (msb_load > best_msb_load || sid == exclude) {
      continue;
    }
    // No new placements on any unavailable server. (The solver counts
    // planned-maintenance servers as capacity — Section 3.5.1 — because the
    // embedded buffer covers the window; the real-time allocator still must
    // not land fresh containers on a host about to be worked on.)
    if (broker_->record(sid).unavailability != Unavailability::kNone) {
      continue;
    }
    const ServerUsage& u = usage_[sid];
    double cpu_left = shape.capacity.cpu - u.cpu_used;
    double mem_left = shape.capacity.memory_gb - u.mem_used;
    if (cpu_left < demand.cpu || mem_left < demand.memory_gb) {
      continue;
    }
    if (msb_load < best_msb_load || best == kInvalidServer || cpu_left < best_remaining_cpu) {
      best = sid;
      best_msb_load = msb_load;
      best_remaining_cpu = cpu_left;
    }
  }
  if (best == kInvalidServer) {
    return false;
  }

  ContainerId cid = next_container_++;
  containers_[cid] = ContainerState{id, best};
  ServerUsage& u = usage_[best];
  u.cpu_used += demand.cpu;
  u.mem_used += demand.memory_gb;
  u.containers.push_back(cid);
  job_state.running.push_back(cid);
  ++job_state.replicas_per_msb[shape_[best].msb];
  UpdateHasContainers(best);
  return true;
}

void TwineAllocator::RemoveContainer(ContainerId cid) {
  auto it = containers_.find(cid);
  if (it == containers_.end()) {
    return;
  }
  ContainerState state = it->second;
  containers_.erase(it);

  JobState& job_state = jobs_[state.job];
  auto& running = job_state.running;
  running.erase(std::remove(running.begin(), running.end(), cid), running.end());
  --job_state.replicas_per_msb[shape_[state.server].msb];

  ServerUsage& u = usage_[state.server];
  u.containers.erase(std::remove(u.containers.begin(), u.containers.end(), cid),
                     u.containers.end());
  u.cpu_used -= job_state.spec.container.cpu;
  u.mem_used -= job_state.spec.container.memory_gb;
  if (u.containers.empty()) {
    u.cpu_used = 0.0;  // Wash out float residue on empty servers.
    u.mem_used = 0.0;
  }
  UpdateHasContainers(state.server);
}

size_t TwineAllocator::EvictServer(ServerId server, bool replace_now) {
  std::vector<ContainerId> evicted = usage_[server].containers;
  std::vector<JobId> owners;
  owners.reserve(evicted.size());
  for (ContainerId cid : evicted) {
    owners.push_back(containers_[cid].job);
    RemoveContainer(cid);
  }
  // Re-place displaced replicas wherever their reservation has room — but
  // never back onto the server being evicted.
  for (JobId jid : owners) {
    JobState& state = jobs_[jid];
    if (!replace_now || !PlaceOne(jid, state, server)) {
      ++state.pending;
    }
  }
  return evicted.size();
}

size_t TwineAllocator::RetryPending() {
  size_t placed = 0;
  for (auto& [id, state] : jobs_) {
    while (state.pending > 0 && PlaceOne(id, state)) {
      --state.pending;
      ++placed;
    }
  }
  return placed;
}

const JobState* TwineAllocator::job(JobId id) const {
  auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : &it->second;
}

size_t TwineAllocator::running_containers(JobId id) const {
  const JobState* state = job(id);
  return state == nullptr ? 0 : state->running.size();
}

int TwineAllocator::pending_containers(JobId id) const {
  const JobState* state = job(id);
  return state == nullptr ? 0 : state->pending;
}

size_t TwineAllocator::total_pending() const {
  size_t total = 0;
  for (const auto& [id, state] : jobs_) {
    total += static_cast<size_t>(state.pending);
  }
  return total;
}

size_t TwineAllocator::containers_on(ServerId server) const {
  return usage_[server].containers.size();
}

ServerId TwineAllocator::server_of(ContainerId cid) const {
  auto it = containers_.find(cid);
  return it == containers_.end() ? kInvalidServer : it->second.server;
}

std::vector<size_t> TwineAllocator::ReplicasPerMsb(JobId id) const {
  const JobState* state = job(id);
  return state == nullptr ? std::vector<size_t>(broker_->topology().num_msbs(), 0)
                          : state->replicas_per_msb;
}

void TwineAllocator::UpdateHasContainers(ServerId server) {
  broker_->SetHasContainers(server, !usage_[server].containers.empty());
}

}  // namespace ras
