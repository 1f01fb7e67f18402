// The state digest kept up to date in O(changes).
//
// StateDigest (checkpoint.h) is the CRC32 of SerializeRegionState: the
// header and reservation lines, then one line per server in id order (an
// all-default server writes nothing). This tree holds the same value
// without re-serializing the region. Its leaves are the servers: each leaf
// keeps the Crc32Run of its server's line, and each inner node the run of
// its two children's text in order (Crc32Combine). The digest is the header
// run followed by the root's.
//
// A server's leaf is recomputed only after MarkDirty, and the header only
// when the registry's mutation count moved, so a digest after d server
// writes costs d line serializations and O(d log n) combines. The tree has
// 2n - 1 nodes of 8 bytes: node i covers [l, r), its left child i + 1 covers
// [l, m) and its right child i + 2(m - l) covers [m, r).

#ifndef RAS_SRC_JOURNAL_DIGEST_TREE_H_
#define RAS_SRC_JOURNAL_DIGEST_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/broker/resource_broker.h"
#include "src/core/reservation.h"
#include "src/journal/crc32.h"

namespace ras {
namespace journal {

class StateDigestTree {
 public:
  // Rebuilds every leaf and the header from `broker` and `registry`.
  void Build(const ResourceBroker& broker, const ReservationRegistry& registry);

  // Records that server `id` may have changed. A no-op before Build, which
  // reads every server anyway.
  void MarkDirty(ServerId id);

  // Equals StateDigest(broker, registry) for the pair Build read, provided
  // every broker write since was marked.
  uint32_t Digest(const ResourceBroker& broker, const ReservationRegistry& registry);

 private:
  void RefreshHeader(const ReservationRegistry& registry);
  void Refresh(const ResourceBroker& broker, size_t node, ServerId lo, ServerId hi,
               const ServerId* first, const ServerId* last);

  size_t num_servers_ = 0;
  std::vector<Crc32Run> nodes_;
  std::vector<bool> is_dirty_;
  std::vector<ServerId> dirty_;
  Crc32Run header_;
  uint64_t header_mutations_ = 0;
  std::string line_;  // Scratch for one serialized line.
};

}  // namespace journal
}  // namespace ras

#endif  // RAS_SRC_JOURNAL_DIGEST_TREE_H_
