#include "src/journal/digest_tree.h"

#include <algorithm>
#include <numeric>

#include "src/core/state_io.h"

namespace ras {
namespace journal {

void StateDigestTree::Build(const ResourceBroker& broker, const ReservationRegistry& registry) {
  num_servers_ = broker.num_servers();
  nodes_.assign(num_servers_ == 0 ? 0 : 2 * num_servers_ - 1, Crc32Run());
  is_dirty_.assign(num_servers_, false);
  // Every leaf is dirty once; the id list is dropped after, so the tree's
  // steady footprint is its nodes plus one bit per server.
  std::vector<ServerId> all(num_servers_);
  std::iota(all.begin(), all.end(), ServerId{0});
  if (!all.empty()) {
    Refresh(broker, 0, 0, static_cast<ServerId>(num_servers_), all.data(),
            all.data() + all.size());
  }
  dirty_.clear();
  RefreshHeader(registry);
}

void StateDigestTree::RefreshHeader(const ReservationRegistry& registry) {
  line_.clear();
  AppendRegionHeader(line_, num_servers_, registry);
  header_ = Crc32RunOf(line_);
  header_mutations_ = registry.mutations();
}

void StateDigestTree::MarkDirty(ServerId id) {
  if (id < is_dirty_.size() && !is_dirty_[id]) {
    is_dirty_[id] = true;
    dirty_.push_back(id);
  }
}

uint32_t StateDigestTree::Digest(const ResourceBroker& broker,
                                 const ReservationRegistry& registry) {
  if (registry.mutations() != header_mutations_) {
    RefreshHeader(registry);
  }
  if (!dirty_.empty()) {
    std::sort(dirty_.begin(), dirty_.end());
    Refresh(broker, 0, 0, static_cast<ServerId>(num_servers_), dirty_.data(),
            dirty_.data() + dirty_.size());
    for (ServerId id : dirty_) {
      is_dirty_[id] = false;
    }
    dirty_.clear();
  }
  return nodes_.empty() ? header_.crc : Crc32Combine(header_, nodes_[0]).crc;
}

// Recomputes the leaves in [first, last) (ascending ids, all in [lo, hi))
// under `node`, then every node on their paths back up to `node`.
void StateDigestTree::Refresh(const ResourceBroker& broker, size_t node, ServerId lo,
                              ServerId hi, const ServerId* first, const ServerId* last) {
  if (hi - lo == 1) {
    line_.clear();
    AppendServerLine(line_, broker.record(lo));
    nodes_[node] = Crc32RunOf(line_);
    return;
  }
  const ServerId mid = lo + (hi - lo) / 2;
  const size_t left = node + 1;
  const size_t right = node + 2 * static_cast<size_t>(mid - lo);
  const ServerId* split = std::lower_bound(first, last, mid);
  if (first != split) {
    Refresh(broker, left, lo, mid, first, split);
  }
  if (split != last) {
    Refresh(broker, right, mid, hi, split, last);
  }
  nodes_[node] = Crc32Combine(nodes_[left], nodes_[right]);
}

}  // namespace journal
}  // namespace ras
