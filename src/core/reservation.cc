#include "src/core/reservation.h"

#include <algorithm>
#include <cmath>

namespace ras {

namespace {

// The checks every registry write path (Create, Update, Restore) applies, so
// no spec the model builder cannot bound ever reaches a solve.
Status ValidateSpec(const ReservationSpec& spec) {
  if (!std::isfinite(spec.capacity_rru)) {
    return Status::InvalidArgument("reservation capacity must be finite: " + spec.name);
  }
  if (!spec.is_elastic && spec.capacity_rru <= 0.0) {
    return Status::InvalidArgument("reservation capacity must be positive: " + spec.name);
  }
  if (spec.rru_per_type.empty()) {
    return Status::InvalidArgument("reservation must define RRU values: " + spec.name);
  }
  bool any_positive = std::any_of(spec.rru_per_type.begin(), spec.rru_per_type.end(),
                                  [](double v) { return v > 0.0; });
  if (!any_positive) {
    return Status::InvalidArgument("reservation accepts no hardware type: " + spec.name);
  }
  for (const auto& [dc, share] : spec.dc_affinity) {
    // Shares are relative to C_r and may exceed 1: a reservation whose data
    // lives entirely in one datacenter wants capacity *plus its embedded
    // buffer* there, i.e. A ~ 1.1-1.4.
    if (share < 0.0 || share > 2.0) {
      return Status::InvalidArgument("affinity shares must be in [0,2]: " + spec.name);
    }
  }
  // A negative tolerance crosses every affinity band (A + theta < A - theta).
  if (!(spec.affinity_theta >= 0.0)) {
    return Status::InvalidArgument("affinity theta must be non-negative: " + spec.name);
  }
  return Status::Ok();
}

}  // namespace

Result<ReservationId> ReservationRegistry::Create(ReservationSpec spec) {
  Status valid = ValidateSpec(spec);
  if (!valid.ok()) {
    return valid;
  }
  ReservationId id = next_id_++;
  spec.id = id;
  specs_[id] = std::move(spec);
  ++mutations_;
  return id;
}

Result<ReservationId> ReservationRegistry::Restore(ReservationSpec spec) {
  if (spec.id == kUnassigned) {
    return Status::InvalidArgument("restore requires an id: " + spec.name);
  }
  if (specs_.count(spec.id) != 0) {
    return Status::AlreadyExists("id already present: " + std::to_string(spec.id));
  }
  Status valid = ValidateSpec(spec);
  if (!valid.ok()) {
    return valid;
  }
  ReservationId id = spec.id;
  specs_[id] = std::move(spec);
  if (id >= next_id_) {
    next_id_ = id + 1;
  }
  ++mutations_;
  return id;
}

Status ReservationRegistry::Update(const ReservationSpec& spec) {
  auto it = specs_.find(spec.id);
  if (it == specs_.end()) {
    return Status::NotFound("no reservation with id " + std::to_string(spec.id));
  }
  Status valid = ValidateSpec(spec);
  if (!valid.ok()) {
    return valid;
  }
  it->second = spec;
  ++mutations_;
  return Status::Ok();
}

Status ReservationRegistry::Remove(ReservationId id) {
  if (specs_.erase(id) == 0) {
    return Status::NotFound("no reservation with id " + std::to_string(id));
  }
  ++mutations_;
  return Status::Ok();
}

const ReservationSpec* ReservationRegistry::Find(ReservationId id) const {
  auto it = specs_.find(id);
  return it == specs_.end() ? nullptr : &it->second;
}

std::vector<const ReservationSpec*> ReservationRegistry::All() const {
  std::vector<const ReservationSpec*> out;
  out.reserve(specs_.size());
  for (const auto& [id, spec] : specs_) {
    out.push_back(&spec);
  }
  return out;
}

std::vector<const ReservationSpec*> ReservationRegistry::AllSolvable() const {
  std::vector<const ReservationSpec*> out;
  for (const auto& [id, spec] : specs_) {
    if (!spec.is_elastic && !spec.externally_managed) {
      out.push_back(&spec);
    }
  }
  return out;
}

std::vector<const ReservationSpec*> ReservationRegistry::AllElastic() const {
  std::vector<const ReservationSpec*> out;
  for (const auto& [id, spec] : specs_) {
    if (spec.is_elastic) {
      out.push_back(&spec);
    }
  }
  return out;
}

}  // namespace ras
