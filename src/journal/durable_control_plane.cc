#include "src/journal/durable_control_plane.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <sstream>
#include <string_view>

#include "src/core/state_io.h"
#include "src/obs/metrics.h"
#include "src/util/file_io.h"
#include "src/util/logging.h"
#include "src/util/monotonic_time.h"

namespace ras {
namespace journal {
namespace {

constexpr char kJournalFile[] = "journal.wal";
constexpr char kRecoveryLogFile[] = "recovery.log";
// Checkpoints retained after compaction; older ones are pruned. Two, so a
// corrupt newest checkpoint still leaves a fallback.
constexpr size_t kCheckpointsToKeep = 2;

std::string DigestHex(uint32_t digest) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", digest);
  return buf;
}

// For each server the batch names, its final target (a later pair for the
// same server overrides an earlier one), kept only when it differs from the
// broker's target before the batch. Listed in batch order.
std::vector<std::pair<ServerId, ReservationId>> ChangedTargets(
    const ResourceBroker& broker, const std::vector<std::pair<ServerId, ReservationId>>& batch) {
  std::vector<bool> named(broker.num_servers(), false);
  std::vector<std::pair<ServerId, ReservationId>> changed;
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    if (named[it->first]) {
      continue;
    }
    named[it->first] = true;
    if (broker.record(it->first).target != it->second) {
      changed.push_back(*it);
    }
  }
  std::reverse(changed.begin(), changed.end());
  return changed;
}

std::string EncodeTargets(const std::vector<std::pair<ServerId, ReservationId>>& targets) {
  std::string out;
  out.reserve(16 * targets.size());
  for (const auto& [server, reservation] : targets) {
    if (!out.empty()) {
      out += ',';
    }
    AppendServerId(out, server);
    out += '=';
    AppendReservationId(out, reservation);
  }
  return out;
}

Status DecodeTargets(const std::string& payload, size_t num_servers,
                     std::vector<std::pair<ServerId, ReservationId>>* out) {
  out->clear();
  if (payload.empty()) {
    return Status::Ok();
  }
  std::string_view rest = payload;
  while (true) {
    size_t comma = rest.find(',');
    std::string_view pair = rest.substr(0, comma);
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("bad target pair: " + std::string(pair));
    }
    ServerId server = kInvalidServer;
    if (!ParseServerId(pair.substr(0, eq), num_servers, &server)) {
      return Status::InvalidArgument("bad target server id: " + std::string(pair));
    }
    ReservationId reservation = kUnassigned;
    if (!ParseReservationId(pair.substr(eq + 1), &reservation)) {
      return Status::InvalidArgument("bad target reservation id: " + std::string(pair));
    }
    out->emplace_back(server, reservation);
    if (comma == std::string_view::npos) {
      break;
    }
    rest.remove_prefix(comma + 1);
  }
  return Status::Ok();
}

// The group-commit rule. A server delta is only written and flushed; every
// other record is a commit record, fsynced before its call returns, and its
// fsync also makes every delta before it durable. The deltas of a round
// therefore commit at the next persist intent or RoundBarrier digest.
bool Commits(RecordKind kind) { return kind != RecordKind::kServerDelta; }

}  // namespace

DurableControlPlane::DurableControlPlane(std::string dir, DurableOptions options)
    : dir_(std::move(dir)), options_(options) {}

DurableControlPlane::~DurableControlPlane() {
  if (watcher_handle_ >= 0 && broker_ != nullptr) {
    broker_->Unsubscribe(watcher_handle_);
  }
}

bool DurableControlPlane::HasState(const std::string& dir) {
  if (!ListCheckpoints(dir).empty()) {
    return true;
  }
  Result<std::string> content = ReadFileToString(dir + "/" + kJournalFile);
  return content.ok() && !content->empty();
}

Status DurableControlPlane::Attach(ResourceBroker* broker, ReservationRegistry* registry) {
  if (broker_ != nullptr) {
    return Status::FailedPrecondition("durable control plane already attached");
  }
  broker_ = broker;
  registry_ = registry;
  watcher_handle_ =
      broker_->Subscribe([this](const ServerRecord& record) { OnBrokerChange(record); });
  return Status::Ok();
}

Status DurableControlPlane::LiveStatus() const {
  if (dead_) {
    return Status::Unavailable("control plane process is dead (injected crash)");
  }
  if (!opened_) {
    return Status::FailedPrecondition("durable control plane not open");
  }
  return Status::Ok();
}

bool DurableControlPlane::Crashed(CrashPoint point, Status* out) {
  if (crash_ == nullptr || !crash_->ShouldCrash(point)) {
    return false;
  }
  dead_ = true;
  RAS_LOG(kWarning) << "crash point " << CrashPointName(point)
                    << " fired; control plane presumed dead";
  *out = LiveStatus();
  return true;
}

Status DurableControlPlane::Append(RecordKind kind, const std::string& payload) {
  Result<uint64_t> appended = wal_->Append(kind, payload, Commits(kind));
  if (!appended.ok()) {
    return appended.status();
  }
  ++records_since_compact_;
  return Status::Ok();
}

void DurableControlPlane::OnBrokerChange(const ServerRecord& record) {
  // Every write reaches the digest, journaled or not: deltas, the batch a
  // persist suppresses, its rollback, and replay.
  digest_.MarkDirty(record.server);
  if (!opened_ || dead_ || suppress_deltas_) {
    return;
  }
  Status crash_status;
  if (Crashed(CrashPoint::kMidDeltaBatch, &crash_status)) {
    // The process dies before this delta is written; the flushed deltas
    // before it survive even though no commit record covers them yet.
    return;
  }
  Status appended = Append(RecordKind::kServerDelta, SerializeServerRecord(record));
  if (!appended.ok()) {
    // A control plane that cannot journal must stop acknowledging work:
    // going dead here means recovery serves the last durable state instead
    // of silently diverging from the journal.
    RAS_LOG(kWarning) << "journal append failed (" << appended.ToString()
                      << "); control plane going dead";
    dead_ = true;
  }
}

RecoveryReport DurableControlPlane::OpenOrRecover() {
  RecoveryReport report;
  std::ostringstream log;
  if (broker_ == nullptr || registry_ == nullptr) {
    report.status = Status::FailedPrecondition("OpenOrRecover before Attach");
    return report;
  }
  Status dir_ok = EnsureDirectory(dir_);
  if (!dir_ok.ok()) {
    report.status = dir_ok;
    return report;
  }
  const std::string journal_path = dir_ + "/" + kJournalFile;
  wal_ = std::make_unique<WriteAheadJournal>(journal_path);

  if (!HasState(dir_)) {
    // Bootstrap: the attached pair's current contents become checkpoint 0.
    report.status = WriteCheckpoint(dir_, 0, *broker_, *registry_);
    if (report.status.ok()) {
      report.status = wal_->OpenAppend(1);
    }
    if (report.status.ok()) {
      opened_ = true;
      digest_.Build(*broker_, *registry_);
      report.next_generation = wal_->next_generation();
      log << "bootstrap: new durable dir, checkpoint 0 written\n";
      report.log = log.str();
      // Best-effort: the recovery log is an operator breadcrumb, and the
      // bootstrap itself already succeeded; failing it must not fail Open.
      (void)AtomicWriteFile(dir_ + "/" + kRecoveryLogFile, report.log);
    }
    return report;
  }

  report.recovered_state = true;

  // 1. Scan the journal once; the same scan serves every checkpoint
  // candidate.
  Result<JournalScan> scanned = WriteAheadJournal::Scan(journal_path);
  if (!scanned.ok()) {
    report.status = scanned.status();
    return report;
  }
  const JournalScan& scan = *scanned;
  if (scan.torn()) {
    log << "torn tail: " << scan.torn_bytes << " bytes dropped (" << scan.torn_reason << ")\n";
  }

  // 2. Newest checkpoint that both validates and deserializes wins.
  // DeserializeRegionState has no partial effects, so a failed candidate
  // leaves the attached pair clean for the next one.
  std::vector<CheckpointInfo> candidates = ListCheckpoints(dir_);
  bool loaded = false;
  uint64_t checkpoint_generation = 0;
  for (const CheckpointInfo& candidate : candidates) {
    ++report.checkpoints_tried;
    uint64_t generation = 0;
    Result<std::string> body = LoadCheckpointBody(candidate.path, &generation);
    if (!body.ok()) {
      log << "checkpoint " << candidate.path << " rejected: " << body.status().ToString() << "\n";
      continue;
    }
    Status restored = DeserializeRegionState(*body, *broker_, *registry_);
    if (!restored.ok()) {
      log << "checkpoint " << candidate.path << " undeserializable: " << restored.ToString()
          << "\n";
      continue;
    }
    checkpoint_generation = generation;
    loaded = true;
    log << "checkpoint generation " << generation << " loaded (" << candidate.path << ")\n";
    break;
  }
  if (!loaded) {
    report.status = Status::Internal("no valid checkpoint among " +
                                     std::to_string(candidates.size()) + " candidates");
    report.log = log.str();
    return report;
  }
  report.checkpoint_generation = checkpoint_generation;

  // 3. Replay the journal past the checkpoint.
  suppress_deltas_ = true;
  Status replayed = Replay(scan, checkpoint_generation, &report);
  suppress_deltas_ = false;
  if (!replayed.ok()) {
    report.status = replayed;
    report.log = log.str();
    return report;
  }
  report.digest_verified = true;
  log << "replayed " << report.records_replayed << " journal records, "
      << report.digests_checked << " digests verified, " << report.aborted_batches_skipped
      << " aborted batches skipped\n";

  // 4. Drop the torn tail on disk, then continue the generation sequence.
  if (scan.torn()) {
    report.torn_records_dropped = 1;
    report.torn_bytes_dropped = scan.torn_bytes;
    Status truncated = wal_->TruncateTo(scan.valid_bytes);
    if (!truncated.ok()) {
      report.status = truncated;
      report.log = log.str();
      return report;
    }
  }
  uint64_t next_generation = checkpoint_generation + 1;
  if (!scan.records.empty()) {
    next_generation = std::max(next_generation, scan.records.back().generation + 1);
  }
  Status open = wal_->OpenAppend(next_generation);
  if (!open.ok()) {
    report.status = open;
    report.log = log.str();
    return report;
  }
  opened_ = true;

  // 5. Compact immediately: the next crash replays from here, not from the
  // pre-crash checkpoint plus the whole replayed journal.
  Status compacted = Compact();
  if (!compacted.ok()) {
    report.status = compacted;
    report.log = log.str();
    return report;
  }
  report.next_generation = wal_->next_generation();
  digest_.Build(*broker_, *registry_);
  log << "recovered to generation " << report.next_generation << ", state digest "
      << DigestHex(digest_.Digest(*broker_, *registry_)) << "\n";
  report.log = log.str();
  // Best-effort, as in the bootstrap path: recovery already committed; a
  // failed breadcrumb write is not a recovery failure.
  (void)AtomicWriteFile(dir_ + "/" + kRecoveryLogFile, report.log);
  return report;
}

Status DurableControlPlane::Replay(const JournalScan& scan, uint64_t checkpoint_generation,
                                   RecoveryReport* report) {
  // Pre-scan abort records: an intent whose batch was rolled back by the
  // live broker must not be redone.
  std::set<uint64_t> aborted;
  for (const JournalRecord& record : scan.records) {
    if (record.kind != RecordKind::kApplyAbort) {
      continue;
    }
    char* end = nullptr;
    aborted.insert(std::strtoull(record.payload.c_str(), &end, 10));
  }

  for (const JournalRecord& record : scan.records) {
    if (record.generation <= checkpoint_generation) {
      continue;  // Already reflected in the checkpoint.
    }
    auto bad = [&record](const std::string& why) {
      return Status::Internal("journal generation " + std::to_string(record.generation) + ": " +
                              why);
    };
    switch (record.kind) {
      case RecordKind::kReservationAdmit: {
        ReservationSpec spec;
        Status parsed = ParseReservationRecord(record.payload, &spec);
        if (!parsed.ok()) {
          return bad(parsed.message());
        }
        Result<ReservationId> restored = registry_->Restore(std::move(spec));
        if (!restored.ok()) {
          return bad(restored.status().message());
        }
        break;
      }
      case RecordKind::kReservationUpdate: {
        ReservationSpec spec;
        Status parsed = ParseReservationRecord(record.payload, &spec);
        if (!parsed.ok()) {
          return bad(parsed.message());
        }
        Status updated = registry_->Update(spec);
        if (!updated.ok()) {
          return bad(updated.message());
        }
        break;
      }
      case RecordKind::kReservationRemove: {
        char* end = nullptr;
        unsigned long id = std::strtoul(record.payload.c_str(), &end, 10);
        Status removed = registry_->Remove(static_cast<ReservationId>(id));
        if (!removed.ok()) {
          return bad(removed.message());
        }
        break;
      }
      case RecordKind::kApplyTargets: {
        if (aborted.count(record.generation) != 0) {
          ++report->aborted_batches_skipped;
          break;
        }
        std::vector<std::pair<ServerId, ReservationId>> targets;
        Status decoded = DecodeTargets(record.payload, broker_->num_servers(), &targets);
        if (!decoded.ok()) {
          return bad(decoded.message());
        }
        // Redo directly: replay must not consult the write-fault hook — the
        // batch already committed (or was intended) on the dead process.
        for (const auto& [server, reservation] : targets) {
          broker_->SetTarget(server, reservation);
        }
        break;
      }
      case RecordKind::kApplyAbort:
        break;
      case RecordKind::kServerDelta: {
        ServerStateRecord server;
        Status parsed = ParseServerRecord(record.payload, broker_->num_servers(), &server);
        if (!parsed.ok()) {
          return bad(parsed.message());
        }
        ApplyServerRecord(server, *broker_);
        break;
      }
      case RecordKind::kDigest: {
        ++report->digests_checked;
        std::string actual = DigestHex(StateDigest(*broker_, *registry_));
        if (actual != record.payload) {
          return bad("state digest mismatch: journaled " + record.payload + ", replayed " +
                     actual);
        }
        break;
      }
    }
    ++report->records_replayed;
  }
  return Status::Ok();
}

Result<ReservationId> DurableControlPlane::AdmitReservation(ReservationSpec spec) {
  Status live = LiveStatus();
  if (!live.ok()) {
    return live;
  }
  Result<ReservationId> created = registry_->Create(spec);
  if (!created.ok()) {
    return created.status();
  }
  spec.id = *created;
  Status crash_status;
  if (Crashed(CrashPoint::kAfterAdmitApply, &crash_status)) {
    // The reservation exists in memory but was never journaled: the caller
    // is never acknowledged, and recovery will not know the id.
    return crash_status;
  }
  Status appended = Append(RecordKind::kReservationAdmit, SerializeReservationRecord(spec));
  if (!appended.ok()) {
    return appended;
  }
  return *created;
}

Status DurableControlPlane::UpdateReservation(const ReservationSpec& spec) {
  Status live = LiveStatus();
  if (!live.ok()) {
    return live;
  }
  Status updated = registry_->Update(spec);
  if (!updated.ok()) {
    return updated;
  }
  return Append(RecordKind::kReservationUpdate, SerializeReservationRecord(spec));
}

Status DurableControlPlane::RemoveReservation(ReservationId id) {
  Status live = LiveStatus();
  if (!live.ok()) {
    return live;
  }
  Status removed = registry_->Remove(id);
  if (!removed.ok()) {
    return removed;
  }
  return Append(RecordKind::kReservationRemove, std::to_string(id));
}

Status DurableControlPlane::PersistTargets(
    ResourceBroker& broker, const std::vector<std::pair<ServerId, ReservationId>>& targets) {
  Status live = LiveStatus();
  if (!live.ok()) {
    return live;
  }
  if (&broker != broker_) {
    return Status::InvalidArgument("persist to a broker the control plane is not attached to");
  }
  Status crash_status;
  if (Crashed(CrashPoint::kBeforeJournalAppend, &crash_status)) {
    return crash_status;
  }
  // The intent carries only what the batch changes. Every broker mutation
  // since OpenOrRecover is journaled, so replay reaches this record holding
  // the targets the broker holds now, and setting the changed ones lands on
  // the state the full batch reaches.
  std::string payload = EncodeTargets(ChangedTargets(broker, targets));
  if (Crashed(CrashPoint::kTornJournalAppend, &crash_status)) {
    // Crash injection: the append is *supposed* to be damaged, and the fault
    // we return is the simulated crash, not the write's own status.
    (void)wal_->AppendTorn(RecordKind::kApplyTargets, payload);
    return crash_status;
  }
  uint64_t intent_generation = wal_->next_generation();
  Status appended = Append(RecordKind::kApplyTargets, payload);
  if (!appended.ok()) {
    return appended;
  }
  if (Crashed(CrashPoint::kAfterJournalAppend, &crash_status)) {
    return crash_status;
  }

  // The intent record already carries the batch's changes; per-server
  // watcher deltas inside the apply would only duplicate it (and a
  // rolled-back batch is handled by the abort record, not by delta replay).
  suppress_deltas_ = true;
  if (Crashed(CrashPoint::kMidApply, &crash_status)) {
    // The process dies halfway through the broker writes: apply a prefix and
    // leave no abort record. Recovery redoes the batch from the intent.
    std::vector<std::pair<ServerId, ReservationId>> half(targets.begin(),
                                                         targets.begin() + targets.size() / 2);
    // Crash injection: the half-applied batch models a process death, so its
    // status is intentionally unobserved — recovery redoes the intent.
    (void)broker.ApplyTargets(half);
    suppress_deltas_ = false;
    return crash_status;
  }
  Status applied = broker.ApplyTargets(targets);
  suppress_deltas_ = false;
  if (!applied.ok()) {
    Status abort = Append(RecordKind::kApplyAbort, std::to_string(intent_generation));
    if (!abort.ok()) {
      return abort;
    }
    return applied;
  }
  if (Crashed(CrashPoint::kAfterApply, &crash_status)) {
    return crash_status;
  }
  uint32_t digest = digest_.Digest(*broker_, *registry_);
  Status digested = Append(RecordKind::kDigest, DigestHex(digest));
  if (!digested.ok()) {
    return digested;
  }
  last_persist_digest_ = digest;
  if (Crashed(CrashPoint::kAfterDigest, &crash_status)) {
    return crash_status;
  }
  if (records_since_compact_ >= options_.compact_every_records) {
    return Compact();
  }
  return Status::Ok();
}

Status DurableControlPlane::RoundBarrier() {
  Status live = LiveStatus();
  if (!live.ok()) {
    return live;
  }
  Status crash_status;
  if (Crashed(CrashPoint::kLostUnsyncedTail, &crash_status)) {
    // Power loss before the barrier's digest commits: the round's deltas
    // were flushed but never fsynced, so the disk keeps only the prefix up
    // to the last commit record. Crash injection: the truncation is the
    // simulated fault, so its own status is not the one reported.
    (void)wal_->DropUnsyncedTail();
    return crash_status;
  }
  Status appended = Append(RecordKind::kDigest, DigestHex(digest_.Digest(*broker_, *registry_)));
  if (!appended.ok()) {
    return appended;
  }
  if (records_since_compact_ >= options_.compact_every_records) {
    return Compact();
  }
  return Status::Ok();
}

Status DurableControlPlane::Compact() {
  Status live = LiveStatus();
  if (!live.ok()) {
    return live;
  }
  Status crash_status;
  if (Crashed(CrashPoint::kBeforeCheckpointWrite, &crash_status)) {
    return crash_status;
  }
  // Every record numbered up to next_generation - 1 is reflected in the
  // attached state; the checkpoint absorbs them all.
  uint64_t generation = wal_->next_generation() - 1;
  const double t0 = util::MonotonicSeconds();
  Status written = WriteCheckpoint(dir_, generation, *broker_, *registry_);
  if (!written.ok()) {
    return written;
  }
  obs::MetricRegistry& reg = obs::MetricRegistry::Default();
  static obs::Counter& compactions =
      reg.counter("ras_journal_compactions_total", "Checkpoint-compactions of the WAL.");
  static obs::Histogram& checkpoint_seconds = reg.histogram(
      "ras_journal_checkpoint_seconds", "Wall time of one checkpoint write.", 0.0, 1.0, 100);
  compactions.Add();
  checkpoint_seconds.Observe(util::MonotonicSeconds() - t0);
  if (Crashed(CrashPoint::kAfterCheckpointWrite, &crash_status)) {
    return crash_status;
  }
  Status reset = wal_->Reset();
  if (!reset.ok()) {
    return reset;
  }
  records_since_compact_ = 0;
  if (Crashed(CrashPoint::kAfterJournalTruncate, &crash_status)) {
    return crash_status;
  }
  return PruneCheckpoints(dir_, kCheckpointsToKeep);
}

}  // namespace journal
}  // namespace ras
