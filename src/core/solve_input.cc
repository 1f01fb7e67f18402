#include "src/core/solve_input.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <utility>

namespace ras {

int SolveInput::ReservationIndex(ReservationId id) const {
  for (size_t i = 0; i < reservations.size(); ++i) {
    if (reservations[i].id == id) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

SolveInput SnapshotSolveInput(const ResourceBroker& broker, const ReservationRegistry& registry,
                              const HardwareCatalog& catalog) {
  SolveInput input;
  input.topology = &broker.topology();
  input.catalog = &catalog;
  for (const ReservationSpec* spec : registry.AllSolvable()) {
    input.reservations.push_back(*spec);
  }
  input.servers.resize(broker.num_servers());
  for (ServerId id = 0; id < broker.num_servers(); ++id) {
    const ServerRecord& rec = broker.record(id);
    ServerSolveState& state = input.servers[id];
    if (rec.elastic_loan) {
      // Loaned-out buffer capacity belongs to its home reservation for
      // solving purposes, and is freely movable.
      state.current = rec.home;
      state.in_use = false;
    } else {
      state.current = rec.current;
      state.in_use = rec.has_containers;
    }
    state.available = !IsUnplanned(rec.unavailability);
    if (state.current != kUnassigned) {
      const ReservationSpec* owner = registry.Find(state.current);
      if (owner == nullptr) {
        // A deleted reservation leaves dangling bindings; treat them as free
        // so the next solve reclaims the servers.
        state.current = kUnassigned;
        state.in_use = false;
      } else if (owner->externally_managed) {
        // Legacy-managed capacity is invisible to the solver: neither supply
        // nor rebind target.
        state.available = false;
      }
    }
  }
  return input;
}

Status ValidateSolveInput(const SolveInput& input) {
  if (input.topology == nullptr || input.catalog == nullptr) {
    return Status::InvalidArgument("snapshot missing topology or catalog");
  }
  if (input.servers.size() != input.topology->num_servers()) {
    return Status::Internal("snapshot covers " + std::to_string(input.servers.size()) +
                            " servers, fleet has " +
                            std::to_string(input.topology->num_servers()));
  }
  std::unordered_set<ReservationId> ids;
  ids.reserve(input.reservations.size());
  for (const ReservationSpec& spec : input.reservations) {
    if (spec.id == kUnassigned) {
      return Status::Internal("snapshot reservation '" + spec.name + "' has no id");
    }
    if (!ids.insert(spec.id).second) {
      return Status::Internal("snapshot has duplicate reservation id " +
                              std::to_string(spec.id));
    }
    if (spec.capacity_rru < 0.0) {
      return Status::Internal("snapshot reservation " + std::to_string(spec.id) +
                              " has negative capacity");
    }
    if (spec.rru_per_type.empty()) {
      return Status::Internal("snapshot reservation " + std::to_string(spec.id) +
                              " has an empty RRU vector");
    }
  }
  for (ServerId id = 0; id < input.servers.size(); ++id) {
    ReservationId current = input.servers[id].current;
    if (current != kUnassigned && ids.count(current) == 0) {
      return Status::Internal("snapshot server " + std::to_string(id) +
                              " bound to unknown reservation " + std::to_string(current));
    }
  }
  return Status::Ok();
}

EquivalenceClass::Held EquivalenceClass::HeldBy(ReservationId id) const {
  auto it = std::lower_bound(held.begin(), held.end(), id,
                             [](const Held& h, ReservationId r) { return h.reservation < r; });
  return it != held.end() && it->reservation == id ? *it : Held{id, 0, 0};
}

std::vector<EquivalenceClass> BuildEquivalenceClasses(const SolveInput& input, Scope granularity,
                                                      const ClassFilter& filter) {
  assert(input.topology != nullptr);
  const RegionTopology& topo = *input.topology;
  using Key = std::pair<uint32_t, HardwareTypeId>;
  std::map<Key, EquivalenceClass> classes;  // Ordered => deterministic output.

  for (ServerId id = 0; id < input.servers.size(); ++id) {
    const ServerSolveState& state = input.servers[id];
    if (!state.available) {
      continue;  // Availability constraint: failed servers are not capacity.
    }
    if (filter.reservations != nullptr && state.current != kUnassigned &&
        filter.reservations->count(state.current) == 0) {
      continue;  // Phase-2 restriction: other reservations' servers are fixed.
    }
    const Server& s = topo.server(id);
    uint32_t group = topo.GroupOf(granularity, id);
    auto [it, inserted] = classes.try_emplace(Key{group, s.type});
    EquivalenceClass& cls = it->second;
    if (inserted) {
      cls.group = group;
      cls.msb = s.msb;
      cls.dc = s.dc;
      cls.type = s.type;
    }
    cls.servers.push_back(id);
    if (state.current != kUnassigned) {
      auto held = std::find_if(cls.held.begin(), cls.held.end(),
                               [&state](const auto& h) { return h.reservation == state.current; });
      if (held == cls.held.end()) {
        held = cls.held.insert(cls.held.end(), {state.current, 0, 0});
      }
      ++(state.in_use ? held->in_use : held->idle);
    }
  }

  std::vector<EquivalenceClass> out;
  out.reserve(classes.size());
  for (auto& [key, cls] : classes) {
    std::sort(cls.held.begin(), cls.held.end(),
              [](const auto& a, const auto& b) { return a.reservation < b.reservation; });
    out.push_back(std::move(cls));
  }
  return out;
}

}  // namespace ras
