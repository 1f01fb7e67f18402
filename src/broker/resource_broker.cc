#include "src/broker/resource_broker.h"

#include <cassert>

#include "src/obs/metrics.h"

namespace ras {

bool IsUnplanned(Unavailability u) {
  return u == Unavailability::kUnplannedSoftware || u == Unavailability::kUnplannedHardware;
}

ResourceBroker::ResourceBroker(const RegionTopology* topology) : topology_(topology) {
  assert(topology != nullptr && topology->finalized());
  records_.resize(topology->num_servers());
  auto& free_pool = by_reservation_[kUnassigned];
  free_pool.reserve(records_.size());
  slot_.resize(records_.size());
  for (ServerId id = 0; id < records_.size(); ++id) {
    records_[id].server = id;
    slot_[id] = id;
    free_pool.push_back(id);
  }
}

void ResourceBroker::SetTarget(ServerId id, ReservationId target) {
  ServerRecord& r = records_[id];
  if (r.target == target) {
    return;
  }
  r.target = target;
  ++r.version;
  Notify(id);
}

Status ResourceBroker::TrySetTarget(ServerId id, ReservationId target) {
  if (write_fault_hook_ && write_fault_hook_(id, target)) {
    ++failed_writes_;
    static obs::Counter& failed = obs::MetricRegistry::Default().counter(
        "ras_broker_failed_writes_total", "Target writes rejected by the (simulated) store.");
    failed.Add();
    return Status::Unavailable("broker target write failed for server " + std::to_string(id));
  }
  SetTarget(id, target);
  return Status::Ok();
}

Status ResourceBroker::ApplyTargets(
    const std::vector<std::pair<ServerId, ReservationId>>& targets) {
  std::vector<std::pair<ServerId, ReservationId>> undo;
  undo.reserve(targets.size());
  for (const auto& [server, res] : targets) {
    ReservationId previous = records_[server].target;
    Status status = TrySetTarget(server, res);
    if (!status.ok()) {
      // Roll back what this batch already wrote. The rollback itself is a
      // local undo of uncommitted state, not a replicated write, so it
      // bypasses the fault hook and cannot fail.
      for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
        SetTarget(it->first, it->second);
      }
      static obs::Counter& rollbacks = obs::MetricRegistry::Default().counter(
          "ras_broker_rollbacks_total", "Target batches rolled back on a failed write.");
      rollbacks.Add();
      return status;
    }
    undo.emplace_back(server, previous);
  }
  return Status::Ok();
}

void ResourceBroker::SetCurrent(ServerId id, ReservationId current) {
  ServerRecord& r = records_[id];
  if (r.current == current) {
    return;
  }
  IndexRemove(r.current, id);
  r.current = current;
  IndexAdd(current, id);
  ++r.version;
  Notify(id);
}

void ResourceBroker::SetElasticLoan(ServerId id, ReservationId home, bool loaned) {
  ServerRecord& r = records_[id];
  r.home = home;
  r.elastic_loan = loaned;
  ++r.version;
  Notify(id);
}

void ResourceBroker::SetUnavailability(ServerId id, Unavailability u) {
  ServerRecord& r = records_[id];
  if (r.unavailability == u) {
    return;
  }
  r.unavailability = u;
  ++r.version;
  Notify(id);
}

void ResourceBroker::SetHasContainers(ServerId id, bool has) {
  ServerRecord& r = records_[id];
  if (r.has_containers == has) {
    return;
  }
  r.has_containers = has;
  ++r.version;
  Notify(id);
}

const std::vector<ServerId>& ResourceBroker::ServersInReservation(
    ReservationId reservation) const {
  auto it = by_reservation_.find(reservation);
  return it == by_reservation_.end() ? empty_ : it->second;
}

size_t ResourceBroker::CountInReservation(ReservationId reservation) const {
  return ServersInReservation(reservation).size();
}

std::vector<ServerId> ResourceBroker::PendingMoves() const {
  std::vector<ServerId> pending;
  for (const ServerRecord& r : records_) {
    if (r.current != r.target) {
      pending.push_back(r.server);
    }
  }
  return pending;
}

int ResourceBroker::Subscribe(Watcher watcher) {
  int handle = next_watcher_++;
  watchers_[handle] = std::move(watcher);
  return handle;
}

void ResourceBroker::Unsubscribe(int handle) { watchers_.erase(handle); }

void ResourceBroker::Notify(ServerId id) {
  BumpGeneration();
  {
    obs::MetricRegistry& reg = obs::MetricRegistry::Default();
    static obs::Counter& bumps = reg.counter("ras_broker_generation_bumps_total",
                                             "Store-wide generation bumps (record mutations).");
    static obs::Gauge& generation_gauge =
        reg.gauge("ras_broker_generation", "Current broker generation.");
    bumps.Add();
    generation_gauge.Set(static_cast<double>(generation()));
  }
  // watchers_ is an ordered map: independent watchers see changes in handle
  // order, so replaying a scenario notifies them identically every run.
  for (auto& [handle, watcher] : watchers_) {
    watcher(records_[id]);
  }
}

void ResourceBroker::IndexRemove(ReservationId reservation, ServerId id) {
  // Every server sits in its current binding's list, at slot_[id]: move the
  // last entry into that slot and drop the tail.
  auto& vec = by_reservation_.at(reservation);
  const size_t pos = slot_[id];
  assert(pos < vec.size() && vec[pos] == id);
  const ServerId moved = vec.back();
  vec[pos] = moved;
  slot_[moved] = pos;
  vec.pop_back();
}

void ResourceBroker::IndexAdd(ReservationId reservation, ServerId id) {
  auto& vec = by_reservation_[reservation];
  slot_[id] = vec.size();
  vec.push_back(id);
}

}  // namespace ras
