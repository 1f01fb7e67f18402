// Named crash points: process-death injection sites around the durable
// control plane's journal/apply barrier.
//
// The FaultPlan/FaultInjector machinery models *transient* faults — a solve
// that times out, a write that bounces — which the supervisor survives within
// a round. Crash points model the other failure class from the RAS paper's
// availability posture: the control-plane process dying outright, at the
// worst possible instant. Each site names one instant in the write-ahead
// protocol (before the intent record hits disk, halfway through a record
// write, between journal append and broker apply, mid-checkpoint, ...).
//
// A CrashPointInjector is armed at one site (optionally the nth time that
// site is reached). When the site fires, the durable control plane stops
// performing IO permanently — from the outside, the process died there — and
// the test discards the in-memory region and drives recovery from disk. The
// injector is deterministic: no randomness, just site hit counts.

#ifndef RAS_SRC_FAULTS_CRASH_POINTS_H_
#define RAS_SRC_FAULTS_CRASH_POINTS_H_

#include <cstddef>
#include <cstdint>

namespace ras {

enum class CrashPoint : uint8_t {
  // --- The ApplyTargets journal/apply barrier ---
  kBeforeJournalAppend = 0,  // Intent record never reaches the journal.
  kTornJournalAppend,        // Half the intent record's bytes hit disk.
  kAfterJournalAppend,       // Intent durable; broker apply never ran.
  kMidApply,                 // Broker apply died halfway through the batch.
  kAfterApply,               // Applied; digest record never written.
  kAfterDigest,              // Barrier complete; compaction never ran.
  // --- Checkpoint compaction ---
  kBeforeCheckpointWrite,   // Compaction decided, no checkpoint written.
  kAfterCheckpointWrite,    // Checkpoint renamed in; journal not truncated.
  kAfterJournalTruncate,    // Truncated; old checkpoints not pruned.
  // --- Registry admission ---
  kAfterAdmitApply,  // Reservation created in memory, admit record lost.
  // --- Group-committed server deltas ---
  kMidDeltaBatch,     // Process dies at the nth delta append; flushed prefix stays.
  kLostUnsyncedTail,  // Power loss at RoundBarrier: deltas since the last fsync lost.
};

inline constexpr int kNumCrashPoints = 12;

const char* CrashPointName(CrashPoint point);

class CrashPointInjector {
 public:
  // Arms `point`: the injector reports a crash the `nth` time the site is
  // reached (1-based; counts since the last Arm/Reset). Only one site is
  // armed at a time — a process dies once.
  void Arm(CrashPoint point, int nth = 1);
  void Disarm();

  // Called by the durable control plane at each site. Counts the hit and
  // returns true exactly once, when the armed site reaches its nth hit.
  bool ShouldCrash(CrashPoint point);

  bool crashed() const { return crashed_; }
  CrashPoint crashed_at() const { return crashed_at_; }
  size_t hits(CrashPoint point) const { return hits_[static_cast<int>(point)]; }

  // Clears hit counts and the crashed flag (a fresh process after restart);
  // leaves nothing armed.
  void Reset();

 private:
  bool armed_ = false;
  CrashPoint armed_point_ = CrashPoint::kBeforeJournalAppend;
  int armed_nth_ = 1;
  bool crashed_ = false;
  CrashPoint crashed_at_ = CrashPoint::kBeforeJournalAppend;
  size_t hits_[kNumCrashPoints] = {};
};

}  // namespace ras

#endif  // RAS_SRC_FAULTS_CRASH_POINTS_H_
