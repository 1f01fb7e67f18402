#include "src/journal/wal.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "src/core/state_io.h"
#include "src/journal/crc32.h"
#include "src/obs/metrics.h"
#include "src/util/file_io.h"
#include "src/util/monotonic_time.h"

namespace ras {
namespace journal {
namespace {

const char* const kKindNames[kNumRecordKinds] = {
    "admit", "update", "remove", "targets", "abort", "server", "digest",
};

std::string CrcHex(uint32_t crc) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", crc);
  return buf;
}

// The byte sequence of one complete record, trailing newline included.
std::string FrameRecord(uint64_t generation, RecordKind kind, const std::string& payload) {
  std::string body = std::to_string(generation) + "|" + RecordKindName(kind) + "|" +
                     EscapeStateField(payload);
  return "w|" + body + "|" + CrcHex(Crc32(body)) + "\n";
}

// Parses one line (no newline). Returns false with `why` set on any damage.
bool ParseRecord(const std::string& line, uint64_t min_generation, JournalRecord* out,
                 std::string* why) {
  if (line.rfind("w|", 0) != 0) {
    *why = "bad record prefix";
    return false;
  }
  // Fields: "w", generation, kind, payload, crc. Payload is escaped, so the
  // split is unambiguous.
  size_t p1 = line.find('|', 2);
  size_t p2 = p1 == std::string::npos ? p1 : line.find('|', p1 + 1);
  size_t p3 = p2 == std::string::npos ? p2 : line.find('|', p2 + 1);
  if (p3 == std::string::npos || line.find('|', p3 + 1) != std::string::npos) {
    *why = "bad field count";
    return false;
  }
  std::string gen_text = line.substr(2, p1 - 2);
  std::string kind_text = line.substr(p1 + 1, p2 - p1 - 1);
  std::string payload_text = line.substr(p2 + 1, p3 - p2 - 1);
  std::string crc_text = line.substr(p3 + 1);

  char* end = nullptr;
  errno = 0;
  unsigned long long generation = std::strtoull(gen_text.c_str(), &end, 10);
  if (gen_text.empty() || end == nullptr || *end != '\0' || errno == ERANGE) {
    *why = "bad generation";
    return false;
  }
  Result<RecordKind> kind = RecordKindFromName(kind_text);
  if (!kind.ok()) {
    *why = "unknown record kind: " + kind_text;
    return false;
  }
  uint32_t expected = Crc32(gen_text + "|" + kind_text + "|" + payload_text);
  if (crc_text != CrcHex(expected)) {
    *why = "CRC mismatch";
    return false;
  }
  if (generation < min_generation) {
    *why = "generation went backwards";
    return false;
  }
  out->generation = generation;
  out->kind = *kind;
  out->payload = UnescapeStateField(payload_text);
  return true;
}

}  // namespace

const char* RecordKindName(RecordKind kind) { return kKindNames[static_cast<int>(kind)]; }

Result<RecordKind> RecordKindFromName(const std::string& name) {
  for (int k = 0; k < kNumRecordKinds; ++k) {
    if (name == kKindNames[k]) {
      return static_cast<RecordKind>(k);
    }
  }
  return Status::NotFound("unknown journal record kind: " + name);
}

WriteAheadJournal::WriteAheadJournal(std::string path) : path_(std::move(path)) {}

WriteAheadJournal::~WriteAheadJournal() { Close(); }

Result<JournalScan> WriteAheadJournal::Scan(const std::string& path) {
  JournalScan scan;
  Result<std::string> content = ReadFileToString(path);
  if (!content.ok()) {
    if (content.status().code() == StatusCode::kNotFound) {
      return scan;  // No journal yet: empty history.
    }
    return content.status();
  }
  const std::string& text = *content;
  size_t offset = 0;
  uint64_t min_generation = 1;
  while (offset < text.size()) {
    size_t newline = text.find('\n', offset);
    if (newline == std::string::npos) {
      // A final line without its newline is a record whose write never
      // finished — the canonical torn tail.
      scan.torn_reason = "record missing trailing newline";
      break;
    }
    JournalRecord record;
    std::string why;
    if (!ParseRecord(text.substr(offset, newline - offset), min_generation, &record, &why)) {
      scan.torn_reason = why;
      break;
    }
    min_generation = record.generation + 1;
    scan.records.push_back(std::move(record));
    offset = newline + 1;
    scan.valid_bytes = offset;
  }
  scan.torn_bytes = text.size() - scan.valid_bytes;
  return scan;
}

Status WriteAheadJournal::OpenAppend(uint64_t next_generation) {
  if (file_ != nullptr) {
    return Status::FailedPrecondition("journal already open: " + path_);
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    return Status::Internal("open journal " + path_ + ": " + std::strerror(errno));
  }
  long end = std::fseek(file_, 0, SEEK_END) == 0 ? std::ftell(file_) : -1;
  if (end < 0) {
    Close();
    return Status::Internal("seek journal " + path_ + ": " + std::strerror(errno));
  }
  written_bytes_ = static_cast<size_t>(end);
  synced_bytes_ = 0;
  next_generation_ = next_generation;
  return Status::Ok();
}

Result<uint64_t> WriteAheadJournal::Append(RecordKind kind, const std::string& payload,
                                           bool commit) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal not open for append: " + path_);
  }
  uint64_t generation = next_generation_;
  std::string frame = FrameRecord(generation, kind, payload);
  const double t0 = util::MonotonicSeconds();
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0) {
    return Status::Internal("journal append failed: " + path_);
  }
  written_bytes_ += frame.size();
  if (commit) {
    Status synced = Sync();
    if (!synced.ok()) {
      return synced;
    }
  }
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  static obs::Counter& appends =
      reg.counter("ras_journal_appends_total", "Records written and flushed to the WAL.");
  static obs::Histogram& append_seconds = reg.histogram(
      "ras_journal_append_seconds",
      "Latency of one WAL append: write + flush, plus the fsync when the record commits.", 0.0,
      0.1, 100);
  appends.Add();
  append_seconds.Observe(util::MonotonicSeconds() - t0);
  ++next_generation_;
  ++records_appended_;
  return generation;
}

Status WriteAheadJournal::Sync() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal not open for append: " + path_);
  }
  if (synced_bytes_ == written_bytes_) {
    return Status::Ok();
  }
  if (::fsync(fileno(file_)) != 0) {
    return Status::Internal("journal fsync failed: " + path_);
  }
  static obs::Counter& syncs = obs::MetricRegistry::Default().counter(
      "ras_journal_syncs_total", "Commit fsyncs of the WAL; each covers every earlier append.");
  syncs.Add();
  synced_bytes_ = written_bytes_;
  return Status::Ok();
}

Status WriteAheadJournal::AppendTorn(RecordKind kind, const std::string& payload) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal not open for append: " + path_);
  }
  std::string frame = FrameRecord(next_generation_, kind, payload);
  size_t half = frame.size() / 2;
  if (std::fwrite(frame.data(), 1, half, file_) != half || std::fflush(file_) != 0) {
    return Status::Internal("journal torn append failed: " + path_);
  }
  ::fsync(fileno(file_));
  Close();
  return Status::Ok();
}

Status WriteAheadJournal::DropUnsyncedTail() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal not open for append: " + path_);
  }
  Close();
  return TruncateTo(synced_bytes_);
}

Status WriteAheadJournal::TruncateTo(size_t valid_bytes) {
  if (file_ != nullptr) {
    return Status::FailedPrecondition("cannot truncate an open journal: " + path_);
  }
  if (::truncate(path_.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    return Status::Internal("truncate journal " + path_ + ": " + std::strerror(errno));
  }
  return Status::Ok();
}

Status WriteAheadJournal::Reset() {
  if (file_ != nullptr && std::fclose(file_) != 0) {
    file_ = nullptr;
    return Status::Internal("close journal " + path_ + ": " + std::strerror(errno));
  }
  file_ = std::fopen(path_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::Internal("reset journal " + path_ + ": " + std::strerror(errno));
  }
  if (std::fflush(file_) != 0 || ::fsync(fileno(file_)) != 0) {
    return Status::Internal("sync reset journal " + path_);
  }
  written_bytes_ = 0;
  synced_bytes_ = 0;
  return Status::Ok();
}

void WriteAheadJournal::Close() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

}  // namespace journal
}  // namespace ras
