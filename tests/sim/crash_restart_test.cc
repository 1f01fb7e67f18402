// Crash-restart chaos drill: kill the control plane mid-round at every
// injection site, recover it from the write-ahead journal + checkpoints, and
// assert the recovered region is exactly what a crash-free reference run
// durably held at that instant — zero lost grants, exact partition
// conservation, and broker generations that never move backwards.
//
// The drill log of every recovery is concatenated into recovery_drill.log in
// the working directory; CI archives it as the crash-recovery artifact.

#include "src/sim/scenario.h"

#include <gtest/gtest.h>

#include <dirent.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/journal/checkpoint.h"
#include "src/util/file_io.h"

namespace ras {
namespace {

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

ScenarioOptions DrillScenario(const std::string& durable_dir) {
  ScenarioOptions opts;
  opts.fleet.num_datacenters = 2;
  opts.fleet.msbs_per_datacenter = 2;
  opts.fleet.racks_per_msb = 3;
  opts.fleet.servers_per_rack = 6;
  opts.fleet.seed = 11;
  opts.seed = 11;
  opts.durable_dir = durable_dir;
  return opts;  // 72 servers.
}

ReservationSpec AnySpec(const RegionScenario& s, const std::string& name, double capacity) {
  ReservationSpec spec;
  spec.name = name;
  spec.capacity_rru = capacity;
  spec.rru_per_type.assign(s.fleet.catalog.size(), 1.0);
  return spec;
}

// Every server must sit in exactly one current-binding bucket, and every
// bound reservation must exist: the integer-RRU conservation invariant.
void ExpectConservation(const RegionScenario& s) {
  size_t bound = 0;
  for (const ReservationSpec* spec : s.registry.All()) {
    bound += s.broker->CountInReservation(spec->id);
  }
  size_t free_pool = s.broker->CountInReservation(kUnassigned);
  EXPECT_EQ(bound + free_pool, s.broker->num_servers())
      << "servers leaked out of the reservation partition";
  std::set<ReservationId> live;
  for (const ReservationSpec* spec : s.registry.All()) {
    live.insert(spec->id);
  }
  for (ServerId id = 0; id < s.broker->num_servers(); ++id) {
    const ServerRecord& r = s.broker->record(id);
    if (r.current != kUnassigned) {
      EXPECT_TRUE(live.count(r.current)) << "server " << id << " bound to a ghost reservation";
    }
  }
}

std::vector<ReservationId> Bindings(const RegionScenario& s) {
  std::vector<ReservationId> current;
  for (ServerId id = 0; id < s.broker->num_servers(); ++id) {
    current.push_back(s.broker->record(id).current);
  }
  return current;
}

std::map<ReservationId, size_t> GrantedCounts(const RegionScenario& s) {
  std::map<ReservationId, size_t> counts;
  for (const ReservationSpec* spec : s.registry.All()) {
    counts[spec->id] = s.broker->CountInReservation(spec->id);
  }
  return counts;
}

TEST(CrashRestartTest, EveryCrashSiteRecoversToTheReferenceDigest) {
  // Crash-free reference: two admission+solve rounds, capturing both the
  // post-apply digest of each round's persist and the end-of-round digest.
  std::string ref_dir = ::testing::TempDir() + "/crash-ref";
  WipeDir(ref_dir);
  uint32_t ref_persist_round2 = 0;  // Post-apply digest of round 2's batch.
  uint32_t ref_after_admit_b = 0;   // Round 1 complete + svc-b acknowledged.
  std::vector<ReservationId> ref_reconciled_round2;  // Bindings after round 2.
  {
    RegionScenario ref(DrillScenario(ref_dir));
    ASSERT_TRUE(ref.recovery.status.ok()) << ref.recovery.status.ToString();
    ASSERT_TRUE(ref.AdmitReservation(AnySpec(ref, "svc-a", 20)).ok());
    ASSERT_TRUE(ref.SolveRound().ok());  // Round 1.
    ASSERT_TRUE(ref.AdmitReservation(AnySpec(ref, "svc-b", 12)).ok());
    ref_after_admit_b = journal::StateDigest(*ref.broker, ref.registry);
    ASSERT_TRUE(ref.SolveRound().ok());  // Round 2.
    ref_persist_round2 = ref.durable->last_persist_digest();
    ASSERT_NE(ref_persist_round2, 0u);
    ASSERT_NE(journal::StateDigest(*ref.broker, ref.registry), ref_persist_round2)
        << "round 2 must reconcile moves, or the delta sites test nothing";
    ref_reconciled_round2 = Bindings(ref);
  }

  // The durable instant each site's recovery must land on.
  enum class Lands {
    kAdmitB,         // The intent never reached the journal (or half of it).
    kPersistRound2,  // The intent was durable; no reconcile delta is.
    kMidReconcile,   // Some flushed reconcile deltas survive, not all.
  };
  struct Site {
    CrashPoint point;
    Lands lands;
    int nth = 1;
  };
  const Site kSites[] = {
      {CrashPoint::kBeforeJournalAppend, Lands::kAdmitB},
      {CrashPoint::kTornJournalAppend, Lands::kAdmitB},
      {CrashPoint::kAfterJournalAppend, Lands::kPersistRound2},
      {CrashPoint::kMidApply, Lands::kPersistRound2},
      {CrashPoint::kAfterApply, Lands::kPersistRound2},
      {CrashPoint::kAfterDigest, Lands::kPersistRound2},
      // Dies at the third reconcile delta: two flushed deltas survive.
      {CrashPoint::kMidDeltaBatch, Lands::kMidReconcile, 3},
      // Power loss at the barrier: every reconcile delta was unsynced.
      {CrashPoint::kLostUnsyncedTail, Lands::kPersistRound2},
  };
  std::string drill_log;
  for (const Site& site : kSites) {
    SCOPED_TRACE(CrashPointName(site.point));
    std::string dir =
        ::testing::TempDir() + "/crash-" + std::string(CrashPointName(site.point));
    WipeDir(dir);
    CrashPointInjector injector;
    uint64_t generation_at_crash = 0;
    std::map<ReservationId, size_t> granted_round1;
    std::vector<ReservationId> pre_reconcile;
    {
      RegionScenario s(DrillScenario(dir));
      ASSERT_TRUE(s.recovery.status.ok());
      ASSERT_TRUE(s.AdmitReservation(AnySpec(s, "svc-a", 20)).ok());
      ASSERT_TRUE(s.SolveRound().ok());
      granted_round1 = GrantedCounts(s);
      ASSERT_TRUE(s.AdmitReservation(AnySpec(s, "svc-b", 12)).ok());
      // Persisting targets moves no binding, so these are also the bindings
      // round 2's reconcile starts from.
      pre_reconcile = Bindings(s);
      s.durable->SetCrashInjector(&injector);
      injector.Arm(site.point, site.nth);
      generation_at_crash = s.durable->generation();
      // Round 2: the control plane dies inside the persist barrier. The
      // round itself still completes in memory (the supervisor degrades),
      // but nothing after the crash instant is durable.
      (void)s.SolveRound();
      EXPECT_TRUE(injector.crashed());
      EXPECT_TRUE(s.durable->dead());
    }
    // Restart: a fresh scenario over the same durable directory.
    RegionScenario r(DrillScenario(dir));
    ASSERT_TRUE(r.recovery.status.ok()) << r.recovery.status.ToString();
    ASSERT_TRUE(r.recovery.recovered_state);
    EXPECT_TRUE(r.recovery.digest_verified);
    EXPECT_GE(r.durable->generation(), generation_at_crash)
        << "broker generation moved backwards across the restart";
    uint32_t recovered = journal::StateDigest(*r.broker, r.registry);
    ExpectConservation(r);
    // What each reservation must still hold: by default its round-1 grant.
    std::map<ReservationId, size_t> granted_floor = granted_round1;
    switch (site.lands) {
      case Lands::kAdmitB:
        // The durable truth is the end of round 1 plus the acknowledged admit.
        EXPECT_EQ(recovered, ref_after_admit_b);
        break;
      case Lands::kPersistRound2:
        // Recovery redid the round-2 apply from its intent and must land
        // exactly on the crash-free run's post-apply state.
        EXPECT_EQ(recovered, ref_persist_round2);
        break;
      case Lands::kMidReconcile: {
        EXPECT_NE(recovered, ref_persist_round2) << "no flushed delta survived the crash";
        // Each server either still holds its pre-reconcile binding or has
        // reached its target; no move is half done.
        for (ServerId id = 0; id < r.broker->num_servers(); ++id) {
          const ServerRecord& rec = r.broker->record(id);
          EXPECT_TRUE(rec.current == pre_reconcile[id] || rec.current == rec.target)
              << "server " << id << " recovered to a binding no move produced";
        }
        // Round 2's durable targets may shed surplus servers, and the mover
        // reconciles in no fixed order. Only a server whose pre-reconcile
        // binding and round-2 target are the same reservation is owed to it
        // at every instant of the reconcile.
        granted_floor.clear();
        for (ServerId id = 0; id < r.broker->num_servers(); ++id) {
          const ReservationId kept = pre_reconcile[id];
          if (kept != kUnassigned && r.broker->record(id).target == kept) {
            ++granted_floor[kept];
          }
        }
        // The targets are durable, so one reconcile finishes the round.
        r.mover->ReconcileAll();
        EXPECT_EQ(Bindings(r), ref_reconciled_round2);
        ExpectConservation(r);
        break;
      }
    }
    // No reservation lost granted capacity relative to the last durable
    // round that bound it.
    for (const auto& [id, count] : granted_floor) {
      EXPECT_GE(r.broker->CountInReservation(id), count)
          << "reservation " << id << " lost granted servers in recovery";
    }
    drill_log += "=== " + std::string(CrashPointName(site.point)) + " ===\n" + r.recovery.log;
  }
  ASSERT_TRUE(AtomicWriteFile("recovery_drill.log", drill_log).ok());
}

TEST(CrashRestartTest, RepeatedCrashRestartLineageStaysConsistent) {
  std::string dir = ::testing::TempDir() + "/crash-lineage";
  WipeDir(dir);
  // The delta sites come early: once the region is full, admitting another
  // small reservation moves too few servers to die mid-batch.
  const CrashPoint kRotation[] = {
      CrashPoint::kAfterJournalAppend,    CrashPoint::kMidDeltaBatch,
      CrashPoint::kBeforeCheckpointWrite, CrashPoint::kTornJournalAppend,
      CrashPoint::kLostUnsyncedTail,      CrashPoint::kAfterCheckpointWrite,
      CrashPoint::kMidApply,              CrashPoint::kAfterDigest,
  };
  uint64_t last_generation = 0;
  size_t expected_reservations = 0;
  bool first_cycle = true;
  int cycle = 0;
  for (CrashPoint point : kRotation) {
    SCOPED_TRACE(CrashPointName(point));
    CrashPointInjector injector;
    RegionScenario s(DrillScenario(dir));
    ASSERT_TRUE(s.recovery.status.ok()) << s.recovery.status.ToString();
    if (!first_cycle) {
      ASSERT_TRUE(s.recovery.recovered_state);
      EXPECT_TRUE(s.recovery.digest_verified);
      // GE, not GT: a crash that never durably consumed a generation (a torn
      // append, a pre-append death) legitimately resumes at the same number.
      EXPECT_GE(s.durable->generation(), last_generation)
          << "generation lineage broke across restart " << cycle;
      EXPECT_EQ(s.registry.size(), expected_reservations)
          << "a recovered reservation vanished";
    }
    ExpectConservation(s);
    // Grow the region a little each cycle, then die at this cycle's site.
    Result<ReservationId> id =
        s.AdmitReservation(AnySpec(s, "svc-" + std::to_string(cycle), 6 + cycle));
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    expected_reservations = s.registry.size();
    s.durable->SetCrashInjector(&injector);
    if (point == CrashPoint::kMidDeltaBatch) {
      // Only the round that places the new reservation moves servers; the
      // re-solve after it has no reconcile delta to die at. Die at the
      // second one, so one flushed delta survives.
      last_generation = s.durable->generation();
      injector.Arm(point, 2);
    }
    ASSERT_TRUE(s.SolveRound().ok());
    if (!injector.crashed()) {
      last_generation = s.durable->generation();
      injector.Arm(point);
      (void)s.SolveRound();
      if (point == CrashPoint::kBeforeCheckpointWrite ||
          point == CrashPoint::kAfterCheckpointWrite) {
        // Compaction sites are reached via an explicit compaction, not the
        // persist barrier.
        (void)s.durable->Compact();
      }
    }
    EXPECT_TRUE(injector.crashed());
    EXPECT_EQ(injector.crashed_at(), point);
    first_cycle = false;
    ++cycle;
  }
  // One final clean restart: the whole lineage replays.
  RegionScenario final_scenario(DrillScenario(dir));
  ASSERT_TRUE(final_scenario.recovery.status.ok())
      << final_scenario.recovery.status.ToString();
  EXPECT_TRUE(final_scenario.recovery.digest_verified);
  EXPECT_EQ(final_scenario.registry.size(), expected_reservations);
  ExpectConservation(final_scenario);
  EXPECT_GT(final_scenario.durable->generation(), last_generation);
}

TEST(CrashRestartTest, RecoveryColdStartsTheResolveCache) {
  // Durable-control-plane recovery restores broker + registry state but never
  // cross-round solver warm state: the restarted process builds a new solver,
  // so the first round after a recovery runs cold (delta_servers == -1).
  std::string dir = ::testing::TempDir() + "/resolve-cold";
  WipeDir(dir);
  {
    RegionScenario s(DrillScenario(dir));
    ASSERT_TRUE(s.recovery.status.ok()) << s.recovery.status.ToString();
    ASSERT_TRUE(s.AdmitReservation(AnySpec(s, "svc", 16)).ok());
    Result<SolveStats> first = s.SolveRound();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(first->delta_servers, -1);  // First-ever round: cold.
    Result<SolveStats> second = s.SolveRound();
    ASSERT_TRUE(second.ok());
    EXPECT_GE(second->delta_servers, 0) << "continuity lost across healthy rounds";
  }
  RegionScenario r(DrillScenario(dir));
  ASSERT_TRUE(r.recovery.status.ok()) << r.recovery.status.ToString();
  ASSERT_TRUE(r.recovery.recovered_state);
  Result<SolveStats> after = r.SolveRound();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->delta_servers, -1) << "the round after recovery was not cold";
  ExpectConservation(r);
}

}  // namespace
}  // namespace ras
