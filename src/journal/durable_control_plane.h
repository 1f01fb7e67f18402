// Durable control plane: the write-ahead journal + checkpoint + recovery
// layer for the region's control-plane state.
//
// The RAS paper gets durability for free from a highly-available replicated
// Resource Broker; this reproduction's broker is in-memory, so durability is
// reconstructed here the way single-node allocation engines do it: every
// control-plane mutation — reservation admit/update/remove, the Async
// Solver's ApplyTargets batches, and the per-server deltas made by the
// Online Mover / Twine allocator / Health Check Service — is journaled to an
// append-only file with per-record CRCs and monotonic generation numbers,
// and periodically compacted into an atomic checkpoint.
//
// Protocols:
//
//  - ApplyTargets is *journal-then-apply*: the targets the batch changes —
//    each named server's final target, where it differs from the broker's
//    target before the batch — are appended (and fsynced) as an intent
//    record before the broker sees a single write. Replay of that intent is
//    exact: every earlier broker mutation is journaled, so replay reaches
//    the intent with the same pre-batch targets, and a server the intent
//    leaves out already holds its final target. A crash between append and
//    apply therefore loses nothing — the continuously-optimized assignment
//    is redone from the intent at recovery. The broker still applies the
//    full batch; a write failure after append produces an abort record so
//    replay skips the rolled-back batch. Per-server watcher deltas are
//    suppressed inside the barrier (the intent record already carries the
//    batch's changes).
//  - Registry mutations are *apply-then-journal-then-acknowledge*: the
//    registry assigns the id, the admit record is fsynced, and only then
//    does the caller learn the id. A crash in the window loses a mutation
//    the caller was never told succeeded.
//  - Every other broker mutation is captured post-hoc as a server-delta
//    record through a broker watcher.
//  - A digest record (CRC32 of the canonical serialized state) is appended
//    after every applied batch and at every round barrier. The live process
//    keeps that CRC in a tree over server ids (digest_tree.h), updated from
//    the broker watcher and the registry's mutation count, so a digest costs
//    O(changes); recovery verifies each record against StateDigest of the
//    replayed state, computed from scratch.
//  - Group commit: server deltas are written and flushed but not fsynced.
//    Every other record (admit/update/remove, targets/abort, digest) is a
//    commit record, fsynced before its call returns; since the journal is one
//    append-only file, that fsync also commits every delta before it. The
//    Online Mover's deltas of a round thus commit at the RoundBarrier digest
//    (or the next persist intent). A process death loses no flushed delta. A
//    power loss loses at most the deltas after the last commit record: the
//    scan stops cleanly there, every surviving digest covers only durable
//    deltas, and the targets those moves served are durable in their intent
//    record, so the next ReconcileAll redoes the lost moves.
//
// Recovery: load the newest checkpoint that validates (falling back to older
// ones — DeserializeRegionState has no partial effects, so a failed
// candidate leaves the state clean), replay journal records with generations
// past the checkpoint's, truncate the torn tail at the first bad CRC,
// verify every digest record passed, then write a fresh checkpoint so the
// next crash replays from here.
//
// Crash injection: a CrashPointInjector (src/faults/crash_points.h) can arm
// any named site; when it fires, the instance goes permanently dead —
// every later operation returns UNAVAILABLE without touching disk, exactly
// like a process that no longer exists.

#ifndef RAS_SRC_JOURNAL_DURABLE_CONTROL_PLANE_H_
#define RAS_SRC_JOURNAL_DURABLE_CONTROL_PLANE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/solver_supervisor.h"
#include "src/faults/crash_points.h"
#include "src/journal/checkpoint.h"
#include "src/journal/digest_tree.h"
#include "src/journal/wal.h"

namespace ras {
namespace journal {

struct DurableOptions {
  // Checkpoint + truncate the journal once this many records accumulate
  // since the last compaction (checked at round barriers).
  size_t compact_every_records = 512;
};

struct RecoveryReport {
  Status status;  // Overall recovery outcome.
  bool recovered_state = false;   // False when the directory was empty (bootstrap).
  uint64_t checkpoint_generation = 0;
  int checkpoints_tried = 0;      // Candidates inspected before one validated.
  size_t records_replayed = 0;
  size_t torn_records_dropped = 0;  // 1 when a torn tail was truncated.
  size_t torn_bytes_dropped = 0;
  size_t aborted_batches_skipped = 0;
  size_t digests_checked = 0;
  bool digest_verified = false;   // Every digest record matched the replay.
  uint64_t next_generation = 1;
  std::string log;  // Human-readable drill log, also written to recovery.log.
};

class DurableControlPlane final : public TargetPersistence {
 public:
  explicit DurableControlPlane(std::string dir, DurableOptions options = DurableOptions());
  ~DurableControlPlane() override;

  DurableControlPlane(const DurableControlPlane&) = delete;
  DurableControlPlane& operator=(const DurableControlPlane&) = delete;

  // True when `dir` holds any checkpoint or a non-empty journal — i.e. a
  // restart should recover rather than bootstrap.
  static bool HasState(const std::string& dir);

  // Wires the instance to the region's broker + registry and subscribes the
  // server-delta watcher. Must be called exactly once, before OpenOrRecover.
  Status Attach(ResourceBroker* broker, ReservationRegistry* registry);

  // Recovers from `dir` into the attached (empty) broker/registry when the
  // directory holds state; otherwise bootstraps by writing an initial
  // checkpoint of whatever the attached pair already contains. Either way
  // the journal is open for append afterwards. The report's `status` is
  // also the returned status — a failed recovery leaves the attached pair
  // partially mutated and the caller must discard it.
  RecoveryReport OpenOrRecover();

  // --- Journaled registry mutations ---
  Result<ReservationId> AdmitReservation(ReservationSpec spec);
  Status UpdateReservation(const ReservationSpec& spec);
  Status RemoveReservation(ReservationId id);

  // TargetPersistence: the journal-then-apply barrier used by the
  // SolverSupervisor in place of a bare broker ApplyTargets. `broker` must
  // be the attached one: its watcher journals and digests the writes.
  Status PersistTargets(ResourceBroker& broker,
                        const std::vector<std::pair<ServerId, ReservationId>>& targets) override;

  // End-of-round barrier: appends a digest record and compacts if due.
  // Called by RegionScenario::SolveRound after the Online Mover reconciles.
  Status RoundBarrier();

  // Forces checkpoint compaction now (also used by RoundBarrier).
  Status Compact();

  // Crash injection; not owned. Pass nullptr to clear.
  void SetCrashInjector(CrashPointInjector* injector) { crash_ = injector; }

  // True once a crash point fired: the "process" is gone and every
  // operation returns UNAVAILABLE.
  bool dead() const { return dead_; }
  const std::string& dir() const { return dir_; }
  // Next journal generation: strictly monotonic across restarts.
  uint64_t generation() const { return wal_ != nullptr ? wal_->next_generation() : 0; }
  // Digest appended by the most recent successful PersistTargets.
  uint32_t last_persist_digest() const { return last_persist_digest_; }
  // The attached state's digest from the maintained tree: equal to
  // StateDigest(broker, registry). Valid once OpenOrRecover succeeded.
  uint32_t MaintainedDigest() { return digest_.Digest(*broker_, *registry_); }
  size_t records_since_compact() const { return records_since_compact_; }

 private:
  Status Append(RecordKind kind, const std::string& payload);
  // Consults the injector; on fire, marks the instance dead and returns the
  // UNAVAILABLE "process died" status.
  bool Crashed(CrashPoint point, Status* out);
  // UNAVAILABLE once dead, FAILED_PRECONDITION before OpenOrRecover, else OK.
  // Every public mutation checks it before touching the registry or disk.
  Status LiveStatus() const;
  void OnBrokerChange(const ServerRecord& record);
  // Replays one journal scan on top of the attached state; fills `report`.
  Status Replay(const JournalScan& scan, uint64_t checkpoint_generation,
                RecoveryReport* report);

  std::string dir_;
  DurableOptions options_;
  ResourceBroker* broker_ = nullptr;
  ReservationRegistry* registry_ = nullptr;
  std::unique_ptr<WriteAheadJournal> wal_;
  CrashPointInjector* crash_ = nullptr;
  int watcher_handle_ = -1;
  bool opened_ = false;
  bool dead_ = false;
  // Watcher suppression: inside the targets barrier the intent record
  // already covers the batch; during replay the journal must not re-ingest
  // its own history.
  bool suppress_deltas_ = false;
  size_t records_since_compact_ = 0;
  uint32_t last_persist_digest_ = 0;
  // The state digest, kept current from every broker write (OnBrokerChange)
  // and rebuilt from scratch by OpenOrRecover.
  StateDigestTree digest_;
};

}  // namespace journal
}  // namespace ras

#endif  // RAS_SRC_JOURNAL_DURABLE_CONTROL_PLANE_H_
