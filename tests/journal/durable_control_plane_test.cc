#include "src/journal/durable_control_plane.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <vector>

#include "src/fleet/fleet_gen.h"
#include "src/obs/metrics.h"
#include "src/util/file_io.h"
#include "src/util/rng.h"

namespace ras {
namespace journal {
namespace {

FleetOptions SmallFleet() {
  FleetOptions opts;
  opts.num_datacenters = 1;
  opts.msbs_per_datacenter = 2;
  opts.racks_per_msb = 2;
  opts.servers_per_rack = 6;
  return opts;  // 24 servers.
}

// Deletes every regular file under `dir` so each test starts from an empty
// durable directory even when the temp dir survives across runs.
void WipeDir(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return;
  }
  while (struct dirent* entry = ::readdir(d)) {
    std::string name = entry->d_name;
    if (name != "." && name != "..") {
      ::unlink((dir + "/" + name).c_str());
    }
  }
  ::closedir(d);
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/dcp-" + name;
  WipeDir(dir);
  return dir;
}

// One "control-plane process": a fresh in-memory region attached to the
// durable directory. Constructing a second Proc on the same dir after the
// first died models a restart.
struct Proc {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;
  std::unique_ptr<DurableControlPlane> durable;
  RecoveryReport report;

  explicit Proc(const std::string& dir, DurableOptions options = DurableOptions())
      : fleet(GenerateFleet(SmallFleet())) {
    broker = std::make_unique<ResourceBroker>(&fleet.topology);
    durable = std::make_unique<DurableControlPlane>(dir, options);
    EXPECT_TRUE(durable->Attach(broker.get(), &registry).ok());
    report = durable->OpenOrRecover();
  }

  uint32_t Digest() const { return StateDigest(*broker, registry); }

  ReservationId Admit(const std::string& name, double capacity) {
    ReservationSpec spec;
    spec.name = name;
    spec.capacity_rru = capacity;
    spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
    Result<ReservationId> id = durable->AdmitReservation(std::move(spec));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return id.ok() ? *id : kUnassigned;
  }
};

std::vector<std::pair<ServerId, ReservationId>> Batch1(ReservationId id) {
  return {{0, id}, {1, id}, {2, id}, {3, id}, {4, id}, {5, id}};
}

std::vector<std::pair<ServerId, ReservationId>> Batch2(ReservationId id) {
  return {{0, kUnassigned}, {6, id}, {7, id}, {8, id}, {9, id}, {10, id}};
}

// Payload of the newest targets intent in `dir`'s journal.
std::string LastIntent(const std::string& dir) {
  Result<JournalScan> scan = WriteAheadJournal::Scan(dir + "/journal.wal");
  EXPECT_TRUE(scan.ok());
  std::string payload = "<none>";
  if (scan.ok()) {
    for (const JournalRecord& record : scan->records) {
      if (record.kind == RecordKind::kApplyTargets) {
        payload = record.payload;
      }
    }
  }
  return payload;
}

// Restarts on `dir` and checks the replay verified every digest and landed
// on `live_digest`.
void ExpectRecoversTo(const std::string& dir, uint32_t live_digest) {
  Proc q(dir);
  ASSERT_TRUE(q.report.status.ok()) << q.report.status.ToString();
  EXPECT_TRUE(q.report.digest_verified);
  EXPECT_GT(q.report.digests_checked, 0u);
  EXPECT_EQ(q.Digest(), live_digest);
}

TEST(DurableControlPlaneTest, BootstrapPersistRestartRecovers) {
  std::string dir = FreshDir("bootstrap");
  uint32_t live_digest = 0;
  uint64_t live_generation = 0;
  size_t granted = 0;
  {
    Proc p(dir);
    ASSERT_TRUE(p.report.status.ok()) << p.report.status.ToString();
    EXPECT_FALSE(p.report.recovered_state);
    ReservationId id = p.Admit("svc", 10);
    ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch1(id)).ok());
    // Out-of-band broker mutations flow through the watcher.
    p.broker->SetCurrent(0, id);
    p.broker->SetUnavailability(5, Unavailability::kUnplannedHardware);
    ASSERT_TRUE(p.durable->RoundBarrier().ok());
    live_digest = p.Digest();
    live_generation = p.durable->generation();
    granted = p.broker->CountInReservation(id);
    EXPECT_GT(granted, 0u);
  }
  Proc q(dir);
  ASSERT_TRUE(q.report.status.ok()) << q.report.status.ToString();
  EXPECT_TRUE(q.report.recovered_state);
  EXPECT_TRUE(q.report.digest_verified);
  EXPECT_GT(q.report.digests_checked, 0u);
  EXPECT_EQ(q.Digest(), live_digest);
  EXPECT_GE(q.durable->generation(), live_generation);
  const ReservationSpec* spec = q.registry.Find(1);
  ASSERT_NE(spec, nullptr);
  EXPECT_EQ(spec->name, "svc");
  EXPECT_EQ(q.broker->CountInReservation(1), granted) << "granted capacity lost in recovery";
  EXPECT_EQ(q.broker->record(5).unavailability, Unavailability::kUnplannedHardware);
  // The drill log artifact exists.
  EXPECT_TRUE(FileExists(dir + "/recovery.log"));
}

TEST(DurableControlPlaneTest, CrashSiteMatrixRecoversToExpectedState) {
  // Crash-free twin: the reference digests each crash site must recover to.
  uint32_t after_b1 = 0;
  uint32_t after_b2 = 0;
  {
    Proc ref(FreshDir("matrix-ref"));
    ReservationId id = ref.Admit("svc", 10);
    ASSERT_TRUE(ref.durable->PersistTargets(*ref.broker, Batch1(id)).ok());
    after_b1 = ref.Digest();
    ASSERT_TRUE(ref.durable->PersistTargets(*ref.broker, Batch2(id)).ok());
    after_b2 = ref.Digest();
  }
  ASSERT_NE(after_b1, after_b2);

  struct Site {
    CrashPoint point;
    bool batch2_survives;  // Recovery includes the crashed batch's effects.
  };
  const Site kSites[] = {
      {CrashPoint::kBeforeJournalAppend, false},
      {CrashPoint::kTornJournalAppend, false},
      {CrashPoint::kAfterJournalAppend, true},  // Intent durable: redone.
      {CrashPoint::kMidApply, true},
      {CrashPoint::kAfterApply, true},
      {CrashPoint::kAfterDigest, true},
  };
  for (const Site& site : kSites) {
    SCOPED_TRACE(CrashPointName(site.point));
    std::string dir = FreshDir(std::string("matrix-") + CrashPointName(site.point));
    uint64_t crash_generation = 0;
    {
      Proc p(dir);
      ReservationId id = p.Admit("svc", 10);
      ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch1(id)).ok());
      CrashPointInjector injector;
      p.durable->SetCrashInjector(&injector);
      injector.Arm(site.point);
      crash_generation = p.durable->generation();
      Status crashed = p.durable->PersistTargets(*p.broker, Batch2(id));
      EXPECT_EQ(crashed.code(), StatusCode::kUnavailable);
      EXPECT_TRUE(p.durable->dead());
      EXPECT_TRUE(injector.crashed());
      EXPECT_EQ(injector.crashed_at(), site.point);
      // A dead process performs no further durable work.
      EXPECT_EQ(p.durable->RoundBarrier().code(), StatusCode::kUnavailable);
      EXPECT_EQ(p.durable->AdmitReservation(ReservationSpec()).status().code(),
                StatusCode::kUnavailable);
    }
    Proc q(dir);
    ASSERT_TRUE(q.report.status.ok()) << q.report.status.ToString();
    EXPECT_TRUE(q.report.digest_verified);
    EXPECT_EQ(q.Digest(), site.batch2_survives ? after_b2 : after_b1);
    EXPECT_GE(q.durable->generation(), crash_generation)
        << "generation must never move backwards across a restart";
  }
}

TEST(DurableControlPlaneTest, CompactionCrashSitesAllRecoverLosslessly) {
  uint32_t after_b2 = 0;
  {
    Proc ref(FreshDir("compact-ref"));
    ReservationId id = ref.Admit("svc", 10);
    ASSERT_TRUE(ref.durable->PersistTargets(*ref.broker, Batch1(id)).ok());
    ASSERT_TRUE(ref.durable->PersistTargets(*ref.broker, Batch2(id)).ok());
    after_b2 = ref.Digest();
  }
  const CrashPoint kSites[] = {
      CrashPoint::kBeforeCheckpointWrite,
      CrashPoint::kAfterCheckpointWrite,
      CrashPoint::kAfterJournalTruncate,
  };
  for (CrashPoint point : kSites) {
    SCOPED_TRACE(CrashPointName(point));
    std::string dir = FreshDir(std::string("compact-") + CrashPointName(point));
    {
      Proc p(dir);
      ReservationId id = p.Admit("svc", 10);
      ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch1(id)).ok());
      ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch2(id)).ok());
      CrashPointInjector injector;
      p.durable->SetCrashInjector(&injector);
      injector.Arm(point);
      EXPECT_EQ(p.durable->Compact().code(), StatusCode::kUnavailable);
    }
    Proc q(dir);
    ASSERT_TRUE(q.report.status.ok()) << q.report.status.ToString();
    EXPECT_EQ(q.Digest(), after_b2) << "compaction must never lose state";
  }
}

TEST(DurableControlPlaneTest, AdmitCrashLosesOnlyTheUnacknowledgedReservation) {
  std::string dir = FreshDir("admit-crash");
  {
    Proc p(dir);
    ASSERT_NE(p.Admit("acknowledged", 5), kUnassigned);
    CrashPointInjector injector;
    p.durable->SetCrashInjector(&injector);
    injector.Arm(CrashPoint::kAfterAdmitApply);
    ReservationSpec spec;
    spec.name = "never-acknowledged";
    spec.capacity_rru = 5;
    spec.rru_per_type.assign(p.fleet.catalog.size(), 1.0);
    Result<ReservationId> id = p.durable->AdmitReservation(std::move(spec));
    EXPECT_EQ(id.status().code(), StatusCode::kUnavailable);
  }
  Proc q(dir);
  ASSERT_TRUE(q.report.status.ok());
  ASSERT_EQ(q.registry.size(), 1u);
  EXPECT_EQ(q.registry.All()[0]->name, "acknowledged");
}

TEST(DurableControlPlaneTest, UnopenedInstanceLeavesTheRegistryUntouched) {
  std::string dir = FreshDir("unopened");
  Fleet fleet = GenerateFleet(SmallFleet());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  ReservationSpec spec;
  spec.name = "svc";
  spec.capacity_rru = 10;
  spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
  Result<ReservationId> id = registry.Create(spec);
  ASSERT_TRUE(id.ok());
  spec.id = *id;
  ReservationSpec resized = spec;
  resized.capacity_rru = 20;

  DurableControlPlane never_attached(dir);
  EXPECT_EQ(never_attached.UpdateReservation(resized).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(never_attached.RemoveReservation(*id).code(), StatusCode::kFailedPrecondition);

  DurableControlPlane attached(dir);
  ASSERT_TRUE(attached.Attach(&broker, &registry).ok());
  EXPECT_EQ(attached.UpdateReservation(resized).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(attached.RemoveReservation(*id).code(), StatusCode::kFailedPrecondition);

  ASSERT_EQ(registry.size(), 1u);
  ASSERT_NE(registry.Find(*id), nullptr);
  EXPECT_EQ(registry.Find(*id)->capacity_rru, 10.0);
  EXPECT_FALSE(DurableControlPlane::HasState(dir)) << "nothing may reach disk";
}

TEST(DurableControlPlaneTest, ServerDeltasCommitWithTheNextCommitRecord) {
  std::string dir = FreshDir("group-commit");
  uint32_t committed = 0;
  {
    Proc p(dir);
    ReservationId id = p.Admit("svc", 10);
    ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch1(id)).ok());
    obs::Counter& syncs = obs::MetricRegistry::Default().counter("ras_journal_syncs_total", "");
    const int64_t before = syncs.Value();
    for (ServerId s = 0; s < 4; ++s) {
      p.broker->SetCurrent(s, id);
    }
    EXPECT_EQ(syncs.Value(), before) << "server deltas must not fsync";
    ASSERT_TRUE(p.durable->RoundBarrier().ok());
    EXPECT_EQ(syncs.Value(), before + 1) << "one fsync commits the whole batch";
    committed = p.Digest();

    // More deltas, then a power loss at the next barrier: they never
    // committed, so the disk keeps exactly the state the last digest covered.
    p.broker->SetCurrent(4, id);
    p.broker->SetCurrent(5, id);
    ASSERT_NE(p.Digest(), committed);
    CrashPointInjector injector;
    p.durable->SetCrashInjector(&injector);
    injector.Arm(CrashPoint::kLostUnsyncedTail);
    EXPECT_EQ(p.durable->RoundBarrier().code(), StatusCode::kUnavailable);
  }
  Proc q(dir);
  ASSERT_TRUE(q.report.status.ok()) << q.report.status.ToString();
  EXPECT_TRUE(q.report.digest_verified);
  EXPECT_EQ(q.report.torn_bytes_dropped, 0u) << "a lost tail ends on a record boundary";
  EXPECT_EQ(q.Digest(), committed);
}

TEST(DurableControlPlaneTest, AbortedBatchIsNotReplayed) {
  std::string dir = FreshDir("abort");
  uint32_t live_digest = 0;
  {
    Proc p(dir);
    ReservationId id = p.Admit("svc", 10);
    // Quorum loss: every write bounces, the broker rolls the batch back, and
    // the journal records the abort after its already-durable intent.
    p.broker->SetWriteFaultHook([](ServerId, ReservationId) { return true; });
    EXPECT_FALSE(p.durable->PersistTargets(*p.broker, Batch1(id)).ok());
    p.broker->SetWriteFaultHook(nullptr);
    ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch2(id)).ok());
    live_digest = p.Digest();
  }
  Proc q(dir);
  ASSERT_TRUE(q.report.status.ok()) << q.report.status.ToString();
  EXPECT_EQ(q.report.aborted_batches_skipped, 1u);
  EXPECT_EQ(q.Digest(), live_digest);
  EXPECT_EQ(q.broker->record(0).target, kUnassigned) << "aborted batch leaked into recovery";
}

TEST(DurableControlPlaneTest, FallsBackToOlderCheckpointWhenNewestIsCorrupt) {
  std::string dir = FreshDir("fallback");
  uint32_t at_first_checkpoint = 0;
  {
    Proc p(dir);
    ReservationId id = p.Admit("svc", 10);
    ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch1(id)).ok());
    ASSERT_TRUE(p.durable->Compact().ok());
    at_first_checkpoint = p.Digest();
    ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch2(id)).ok());
    ASSERT_TRUE(p.durable->Compact().ok());
  }
  std::vector<CheckpointInfo> checkpoints = ListCheckpoints(dir);
  ASSERT_GE(checkpoints.size(), 2u);
  // Flip one body byte of the newest checkpoint.
  Result<std::string> content = ReadFileToString(checkpoints[0].path);
  ASSERT_TRUE(content.ok());
  std::string corrupted = *content;
  corrupted[corrupted.size() / 2] ^= 0x40;
  ASSERT_TRUE(AtomicWriteFile(checkpoints[0].path, corrupted).ok());

  Proc q(dir);
  ASSERT_TRUE(q.report.status.ok()) << q.report.status.ToString();
  EXPECT_EQ(q.report.checkpoints_tried, 2);
  // The journal was truncated at the newer compaction, so the fallback is
  // consistent but stale: exactly the older checkpoint's state.
  EXPECT_EQ(q.Digest(), at_first_checkpoint);
}

TEST(DurableControlPlaneTest, IntentListsOnlyTheServersABatchChanges) {
  std::string dir = FreshDir("intent-one-change");
  uint32_t live_digest = 0;
  {
    Proc p(dir);
    ReservationId id = p.Admit("svc", 10);
    ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch1(id)).ok());
    std::vector<std::pair<ServerId, ReservationId>> batch = Batch1(id);
    batch.emplace_back(6, id);
    ASSERT_TRUE(p.durable->PersistTargets(*p.broker, batch).ok());
    EXPECT_EQ(LastIntent(dir), "6=" + std::to_string(id));
    live_digest = p.Digest();
  }
  ExpectRecoversTo(dir, live_digest);
}

TEST(DurableControlPlaneTest, UnchangedBatchJournalsAnEmptyIntent) {
  std::string dir = FreshDir("intent-unchanged");
  uint32_t live_digest = 0;
  {
    Proc p(dir);
    ReservationId id = p.Admit("svc", 10);
    ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch1(id)).ok());
    ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch1(id)).ok());
    EXPECT_EQ(LastIntent(dir), "");
    live_digest = p.Digest();
  }
  ExpectRecoversTo(dir, live_digest);
}

TEST(DurableControlPlaneTest, RepeatedServerJournalsItsFinalTarget) {
  std::string dir = FreshDir("intent-repeated");
  uint32_t live_digest = 0;
  ReservationId b = kUnassigned;
  {
    Proc p(dir);
    ReservationId a = p.Admit("a", 10);
    b = p.Admit("b", 10);
    // Server 7 is named twice and ends on b; server 9 is named twice and
    // ends where it started, so the intent leaves it out.
    ASSERT_TRUE(
        p.durable->PersistTargets(*p.broker, {{7, a}, {9, a}, {7, b}, {9, kUnassigned}}).ok());
    EXPECT_EQ(LastIntent(dir), "7=" + std::to_string(b));
    EXPECT_EQ(p.broker->record(7).target, b);
    EXPECT_EQ(p.broker->record(9).target, kUnassigned);
    live_digest = p.Digest();
  }
  Proc q(dir);
  ASSERT_TRUE(q.report.status.ok()) << q.report.status.ToString();
  EXPECT_TRUE(q.report.digest_verified);
  EXPECT_EQ(q.Digest(), live_digest);
  EXPECT_EQ(q.broker->record(7).target, b);
  EXPECT_EQ(q.broker->record(9).target, kUnassigned);
}

TEST(DurableControlPlaneTest, ThresholdCompactionTruncatesTheJournal) {
  std::string dir = FreshDir("threshold");
  DurableOptions options;
  options.compact_every_records = 4;
  Proc p(dir, options);
  ReservationId id = p.Admit("svc", 10);
  for (int round = 0; round < 6; ++round) {
    ASSERT_TRUE(
        p.durable->PersistTargets(*p.broker, round % 2 == 0 ? Batch1(id) : Batch2(id)).ok());
  }
  EXPECT_LT(p.durable->records_since_compact(), 4u);
  EXPECT_FALSE(ListCheckpoints(dir).empty());
  Result<JournalScan> scan = WriteAheadJournal::Scan(dir + "/journal.wal");
  ASSERT_TRUE(scan.ok());
  EXPECT_LT(scan->records.size(), 12u) << "journal never truncated";
}

TEST(DurableControlPlaneTest, UnjournaledRegistryEditFailsDigestVerification) {
  // The digest covers the live registry, not just what was journaled: an
  // edit that bypasses the control plane shows up as a replay mismatch.
  std::string dir = FreshDir("unjournaled-edit");
  {
    Proc p(dir);
    ReservationId id = p.Admit("svc", 10);
    ASSERT_TRUE(p.durable->PersistTargets(*p.broker, Batch1(id)).ok());
    ReservationSpec resized = *p.registry.Find(id);
    resized.capacity_rru = 20;
    ASSERT_TRUE(p.registry.Update(resized).ok());
    ASSERT_TRUE(p.durable->RoundBarrier().ok());
  }
  Proc q(dir);
  EXPECT_FALSE(q.report.status.ok());
  EXPECT_FALSE(q.report.digest_verified);
}

// Whole-region serializations so far in this process.
int64_t Serializations() {
  return obs::MetricRegistry::Default().counter("ras_state_serializations_total", "").Value();
}

TEST(DurableControlPlaneTest, LiveDigestsSerializeNothing) {
  std::string dir = FreshDir("live-digests");
  DurableOptions options;
  options.compact_every_records = 1000000;  // Compaction out of reach.
  {
    Proc p(dir, options);
    ReservationId id = p.Admit("svc", 10);
    const int64_t before = Serializations();
    for (int round = 0; round < 20; ++round) {
      ASSERT_TRUE(
          p.durable->PersistTargets(*p.broker, round % 2 == 0 ? Batch1(id) : Batch2(id)).ok());
      p.broker->SetCurrent(static_cast<ServerId>(round % 12), id);
      ASSERT_TRUE(p.durable->RoundBarrier().ok());
    }
    EXPECT_EQ(Serializations(), before) << "a live digest re-serialized the region";
  }
  // Recovery still checks every digest record against a from-scratch
  // digest, plus one serialization for its closing checkpoint.
  const int64_t before = Serializations();
  Proc q(dir, options);
  ASSERT_TRUE(q.report.status.ok()) << q.report.status.ToString();
  EXPECT_TRUE(q.report.digest_verified);
  EXPECT_EQ(q.report.digests_checked, 40u);
  EXPECT_EQ(Serializations() - before, static_cast<int64_t>(q.report.digests_checked) + 1);
}

TEST(DurableControlPlaneTest, MaintainedDigestEqualsStateDigestAfterEveryStep) {
  std::string dir = FreshDir("maintained-digest");
  DurableOptions options;
  options.compact_every_records = 1000000;  // Compaction only when drawn.
  auto p = std::make_unique<Proc>(dir, options);
  ASSERT_EQ(p->durable->MaintainedDigest(), p->Digest());
  Rng rng(34);
  // Registry edits made behind the journal's back: recovery can only see
  // them through a checkpoint, so a drawn restart compacts first.
  bool unjournaled = false;
  size_t recoveries = 0;
  size_t rollbacks = 0;
  const ServerId num_servers = static_cast<ServerId>(p->broker->num_servers());
  auto any_server = [&] { return static_cast<ServerId>(rng.UniformInt(0, num_servers - 1)); };
  auto any_binding = [&] {
    std::vector<const ReservationSpec*> all = p->registry.All();
    size_t pick = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(all.size())));
    return pick == all.size() ? kUnassigned : all[pick]->id;
  };
  auto any_spec = [&]() -> const ReservationSpec* {
    std::vector<const ReservationSpec*> all = p->registry.All();
    return all.empty() ? nullptr : all[static_cast<size_t>(rng.UniformInt(0, all.size() - 1))];
  };
  auto batch = [&] {
    std::vector<std::pair<ServerId, ReservationId>> out;
    for (int64_t n = rng.UniformInt(1, 8); n > 0; --n) {
      out.emplace_back(any_server(), any_binding());
    }
    return out;
  };
  // A write-fault hook that rejects the k-th write from now, if k > 0.
  auto fail_at = [&](int64_t k) {
    auto writes = std::make_shared<int64_t>(0);
    p->broker->SetWriteFaultHook(
        [writes, k](ServerId, ReservationId) { return k > 0 && ++*writes == k; });
  };
  for (int step = 0; step < 600; ++step) {
    const int64_t kind = rng.UniformInt(0, 15);
    SCOPED_TRACE("step " + std::to_string(step) + " kind " + std::to_string(kind));
    switch (kind) {
      case 0:
        p->broker->SetTarget(any_server(), any_binding());
        break;
      case 1:
        p->broker->SetCurrent(any_server(), any_binding());
        break;
      case 2:
        p->broker->SetElasticLoan(any_server(), any_binding(), rng.Bernoulli(0.5));
        break;
      case 3:
        p->broker->SetUnavailability(any_server(),
                                     static_cast<Unavailability>(rng.UniformInt(0, 3)));
        break;
      case 4:
        p->broker->SetHasContainers(any_server(), rng.Bernoulli(0.5));
        break;
      case 5: {  // Straight to the broker; a rejected write rolls the batch back.
        std::vector<std::pair<ServerId, ReservationId>> targets = batch();
        fail_at(rng.Bernoulli(0.5) ? rng.UniformInt(1, static_cast<int64_t>(targets.size())) : 0);
        rollbacks += p->broker->ApplyTargets(targets).ok() ? 0 : 1;
        p->broker->SetWriteFaultHook(nullptr);
        break;
      }
      case 6: {  // Through the journal; a rejected write leaves an abort record.
        std::vector<std::pair<ServerId, ReservationId>> targets = batch();
        fail_at(rng.Bernoulli(0.3) ? rng.UniformInt(1, static_cast<int64_t>(targets.size())) : 0);
        Status persisted = p->durable->PersistTargets(*p->broker, targets);
        rollbacks += persisted.ok() ? 0 : 1;
        p->broker->SetWriteFaultHook(nullptr);
        break;
      }
      case 7: {
        ReservationSpec spec;
        spec.name = "r" + std::to_string(step);
        spec.capacity_rru = static_cast<double>(rng.UniformInt(1, 30));
        spec.rru_per_type.assign(p->fleet.catalog.size(), 1.0);
        if (rng.Bernoulli(0.5)) {
          ASSERT_TRUE(p->durable->AdmitReservation(spec).ok());
        } else {
          ASSERT_TRUE(p->registry.Create(spec).ok());
          unjournaled = true;
        }
        break;
      }
      case 8:
        if (const ReservationSpec* found = any_spec()) {
          ReservationSpec spec = *found;
          spec.capacity_rru += 1.0;
          if (rng.Bernoulli(0.5)) {
            ASSERT_TRUE(p->durable->UpdateReservation(spec).ok());
          } else {
            ASSERT_TRUE(p->registry.Update(spec).ok());
            unjournaled = true;
          }
        }
        break;
      case 9:
        if (const ReservationSpec* found = any_spec()) {
          const ReservationId id = found->id;
          if (rng.Bernoulli(0.5)) {
            ASSERT_TRUE(p->durable->RemoveReservation(id).ok());
          } else {
            ASSERT_TRUE(p->registry.Remove(id).ok());
            unjournaled = true;
          }
        }
        break;
      case 10: {
        ReservationSpec spec;
        spec.id = static_cast<ReservationId>(1000 + step);
        spec.name = "restored";
        spec.capacity_rru = 5.0;
        spec.rru_per_type.assign(p->fleet.catalog.size(), 1.0);
        ASSERT_TRUE(p->registry.Restore(spec).ok());
        unjournaled = true;
        break;
      }
      case 11:
      case 12:
        ASSERT_TRUE(p->durable->RoundBarrier().ok());
        break;
      case 13:
        ASSERT_TRUE(p->durable->Compact().ok());
        unjournaled = false;
        break;
      default: {  // Restart on the same directory.
        if (unjournaled) {
          ASSERT_TRUE(p->durable->Compact().ok());
          unjournaled = false;
        }
        const uint32_t live = p->Digest();
        p.reset();
        p = std::make_unique<Proc>(dir, options);
        ASSERT_TRUE(p->report.status.ok()) << p->report.status.ToString();
        EXPECT_TRUE(p->report.digest_verified);
        EXPECT_EQ(p->Digest(), live);
        ++recoveries;
        break;
      }
    }
    ASSERT_EQ(p->durable->MaintainedDigest(), p->Digest());
  }
  EXPECT_GT(recoveries, 0u);
  EXPECT_GT(rollbacks, 0u);
}

}  // namespace
}  // namespace journal
}  // namespace ras
