// Append-only write-ahead journal of control-plane mutations.
//
// One record per line:
//
//   w|<generation>|<kind>|<payload-escaped>|<crc32 hex>
//
// The CRC covers "<generation>|<kind>|<payload>" exactly as written, so a
// flipped byte anywhere in a record fails verification. Generations are
// strictly monotonic across the journal's whole lifetime — they continue
// from the last checkpoint rather than restarting — which is what lets
// recovery order journal records against checkpoints and lets tests assert
// that a restarted control plane never moves backwards.
//
// Scanning tolerates exactly one kind of damage silently: a *torn tail*. A
// crash mid-append leaves a final record that is short, unparsable, or
// CRC-mismatched; Scan() stops at the first bad record and reports how many
// bytes/records it dropped. Anything after the first bad record is
// unreachable by design — a journal is only ever appended to, so valid
// records cannot follow damage except through corruption, and corrupted
// history must not be replayed.
//
// Group commit: every append is written and flushed to the OS before it
// returns, so a process death loses nothing that was appended. Only a
// *committing* append also fsyncs. Because the file is append-only, one
// fsync makes every earlier byte durable too: a power loss can drop only
// the records appended after the last commit, and they form a clean tail
// the scan never reaches past.

#ifndef RAS_SRC_JOURNAL_WAL_H_
#define RAS_SRC_JOURNAL_WAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace ras {
namespace journal {

enum class RecordKind : uint8_t {
  kReservationAdmit = 0,  // Payload: one state_io "reservation|..." line.
  kReservationUpdate,     // Payload: one state_io "reservation|..." line.
  kReservationRemove,     // Payload: decimal reservation id.
  kApplyTargets,          // Payload: "<server>=<reservation>,..." the targets an
                          // intent batch changes ("-" = unassigned).
  kApplyAbort,            // Payload: generation of the rolled-back intent.
  kServerDelta,           // Payload: one state_io "server|..." line.
  kDigest,                // Payload: 8-hex CRC32 of the serialized region state.
};

inline constexpr int kNumRecordKinds = 7;

const char* RecordKindName(RecordKind kind);
// NOT_FOUND for names no writer ever produced.
Result<RecordKind> RecordKindFromName(const std::string& name);

struct JournalRecord {
  uint64_t generation = 0;
  RecordKind kind = RecordKind::kServerDelta;
  std::string payload;
};

// Result of scanning a journal file from disk.
struct JournalScan {
  std::vector<JournalRecord> records;
  // Length of the valid prefix; bytes past this are the torn tail.
  size_t valid_bytes = 0;
  size_t torn_bytes = 0;
  // Why the scan stopped early (empty when the whole file was valid).
  std::string torn_reason;

  bool torn() const { return torn_bytes > 0; }
};

class WriteAheadJournal {
 public:
  explicit WriteAheadJournal(std::string path);
  ~WriteAheadJournal();

  WriteAheadJournal(const WriteAheadJournal&) = delete;
  WriteAheadJournal& operator=(const WriteAheadJournal&) = delete;

  // Reads every valid record of the file at `path`, stopping at the first
  // record with a bad CRC, unparsable framing, or a non-increasing
  // generation. A missing file scans as empty. Only irrecoverable IO errors
  // fail.
  static Result<JournalScan> Scan(const std::string& path);

  // Opens for appending; subsequent records are numbered from
  // `next_generation` up. Creates the file if missing.
  Status OpenAppend(uint64_t next_generation);

  // Appends one record and flushes it, so it survives a process death.
  // With `commit`, also fsyncs, which makes it and every record before it
  // survive a power loss. Returns the record's generation.
  Result<uint64_t> Append(RecordKind kind, const std::string& payload, bool commit = true);

  // Fsyncs every byte appended since the last fsync. A no-op when nothing
  // is pending.
  Status Sync();

  // Crash simulation: writes only the first half of the record's bytes (no
  // trailing newline), flushes, and closes the journal — the on-disk state a
  // process death mid-write leaves behind. The journal is unusable after.
  Status AppendTorn(RecordKind kind, const std::string& payload);

  // Crash simulation: a power loss. Truncates the file to the last fsynced
  // offset, so every record appended since the last commit is gone, and
  // closes the journal. The journal is unusable after.
  Status DropUnsyncedTail();

  // Truncates the file to `valid_bytes` (drops a torn tail in place).
  // The journal must not be open for append.
  Status TruncateTo(size_t valid_bytes);

  // Empties the journal (after checkpoint compaction). Keeps the append
  // handle usable; generations continue, they do not restart.
  Status Reset();

  void Close();

  bool open() const { return file_ != nullptr; }
  uint64_t next_generation() const { return next_generation_; }
  size_t records_appended() const { return records_appended_; }

 private:
  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t next_generation_ = 1;
  size_t records_appended_ = 0;
  // File length after the last append, and the prefix the last fsync covered.
  // Bytes already in the file at OpenAppend count as unsynced.
  size_t written_bytes_ = 0;
  size_t synced_bytes_ = 0;
};

}  // namespace journal
}  // namespace ras

#endif  // RAS_SRC_JOURNAL_WAL_H_
