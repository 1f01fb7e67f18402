#include "src/faults/crash_points.h"

namespace ras {

const char* CrashPointName(CrashPoint point) {
  switch (point) {
    case CrashPoint::kBeforeJournalAppend:
      return "BEFORE_JOURNAL_APPEND";
    case CrashPoint::kTornJournalAppend:
      return "TORN_JOURNAL_APPEND";
    case CrashPoint::kAfterJournalAppend:
      return "AFTER_JOURNAL_APPEND";
    case CrashPoint::kMidApply:
      return "MID_APPLY";
    case CrashPoint::kAfterApply:
      return "AFTER_APPLY";
    case CrashPoint::kAfterDigest:
      return "AFTER_DIGEST";
    case CrashPoint::kBeforeCheckpointWrite:
      return "BEFORE_CHECKPOINT_WRITE";
    case CrashPoint::kAfterCheckpointWrite:
      return "AFTER_CHECKPOINT_WRITE";
    case CrashPoint::kAfterJournalTruncate:
      return "AFTER_JOURNAL_TRUNCATE";
    case CrashPoint::kAfterAdmitApply:
      return "AFTER_ADMIT_APPLY";
    case CrashPoint::kMidDeltaBatch:
      return "MID_DELTA_BATCH";
    case CrashPoint::kLostUnsyncedTail:
      return "LOST_UNSYNCED_TAIL";
  }
  return "UNKNOWN";
}

void CrashPointInjector::Arm(CrashPoint point, int nth) {
  armed_ = true;
  armed_point_ = point;
  armed_nth_ = nth;
  hits_[static_cast<int>(point)] = 0;
}

void CrashPointInjector::Disarm() { armed_ = false; }

bool CrashPointInjector::ShouldCrash(CrashPoint point) {
  size_t count = ++hits_[static_cast<int>(point)];
  if (!armed_ || crashed_ || point != armed_point_ ||
      count != static_cast<size_t>(armed_nth_)) {
    return false;
  }
  crashed_ = true;
  crashed_at_ = point;
  return true;
}

void CrashPointInjector::Reset() {
  armed_ = false;
  crashed_ = false;
  for (size_t& h : hits_) {
    h = 0;
  }
}

}  // namespace ras
