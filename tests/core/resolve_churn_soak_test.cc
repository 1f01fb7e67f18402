// Randomized churn soak for the incremental re-solve layer: two identical
// regions evolve under the same seeded churn (reservation add / remove /
// resize, server kills and revivals, binding materialization); one is solved
// with the incremental resolve cache on, the other strictly from scratch.
// Every round, the two must produce identical targets and identical
// serialized region state — the determinism record behind
// SolverConfig::incremental_resolve's "timings, not targets" contract.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/async_solver.h"
#include "src/core/state_io.h"
#include "src/fleet/fleet_gen.h"
#include "src/util/rng.h"

namespace ras {
namespace {

constexpr int kRounds = 50;

FleetOptions SoakFleetOptions() {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 2;
  opts.racks_per_msb = 3;
  opts.servers_per_rack = 8;
  opts.seed = 11;
  return opts;  // 96 servers.
}

ReservationSpec AnyTypeReservation(const HardwareCatalog& catalog, const std::string& name,
                                   double capacity) {
  ReservationSpec spec;
  spec.name = name;
  spec.capacity_rru = capacity;
  spec.rru_per_type.assign(catalog.size(), 1.0);
  return spec;
}

struct SoakRegion {
  Fleet fleet;
  std::unique_ptr<ResourceBroker> broker;
  ReservationRegistry registry;
  std::vector<ReservationId> services;

  SoakRegion() : fleet(GenerateFleet(SoakFleetOptions())) {
    broker = std::make_unique<ResourceBroker>(&fleet.topology);
    for (int i = 0; i < 3; ++i) {
      auto id = registry.Create(
          AnyTypeReservation(fleet.catalog, "svc" + std::to_string(i), 12));
      EXPECT_TRUE(id.ok());
      services.push_back(*id);
    }
  }
};

// One round of churn, fully determined by (rng state, round index). Both
// regions consume identical operation streams from identically-seeded rngs,
// so their worlds stay in lockstep by construction — the solvers are the only
// difference between them.
void ApplyChurn(SoakRegion& region, Rng& rng, int round) {
  const int64_t roll = rng.UniformInt(0, 99);
  // ~1/5 of rounds are quiet: the skip-solve path must fire there.
  if (roll < 20) {
    return;
  }
  if (roll < 55 && !region.services.empty()) {
    // Resize an existing service.
    size_t which = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(region.services.size()) - 1));
    ReservationSpec spec = *region.registry.Find(region.services[which]);
    spec.capacity_rru = std::max(4.0, spec.capacity_rru + rng.Uniform(-4.0, 5.0));
    EXPECT_TRUE(region.registry.Update(spec).ok());
    return;
  }
  if (roll < 70) {
    // Kill a healthy server (or revive a dead one on odd rounds).
    ServerId id = static_cast<ServerId>(
        rng.UniformInt(0, static_cast<int64_t>(region.broker->num_servers()) - 1));
    if (round % 2 == 1 && region.broker->record(id).unavailability != Unavailability::kNone) {
      region.broker->SetUnavailability(id, Unavailability::kNone);
    } else {
      region.broker->SetUnavailability(id, Unavailability::kUnplannedHardware);
    }
    return;
  }
  if (roll < 85) {
    // Admit a new service.
    auto id = region.registry.Create(AnyTypeReservation(
        region.fleet.catalog, "churn" + std::to_string(round), 4 + rng.Uniform(0.0, 4.0)));
    EXPECT_TRUE(id.ok());
    region.services.push_back(*id);
    return;
  }
  if (region.services.size() > 1) {
    // Remove the youngest churn service.
    EXPECT_TRUE(region.registry.Remove(region.services.back()).ok());
    region.services.pop_back();
  }
}

// Materialize solver intent into current bindings, as the Online Mover would.
void MaterializeTargets(SoakRegion& region) {
  for (ServerId id = 0; id < region.broker->num_servers(); ++id) {
    region.broker->SetCurrent(id, region.broker->record(id).target);
  }
}

std::map<ServerId, ReservationId> Targets(const SoakRegion& region) {
  std::map<ServerId, ReservationId> targets;
  for (ServerId id = 0; id < region.broker->num_servers(); ++id) {
    targets[id] = region.broker->record(id).target;
  }
  return targets;
}

SolverConfig SoakConfig(bool incremental) {
  SolverConfig config;
  config.incremental_resolve = incremental;
  config.phase1_mip.max_nodes = 8;  // Keep 2 x 50 solves fast; skip-solve on
  config.phase2_mip.max_nodes = 4;  // an unchanged round needs no proof.
  return config;
}

TEST(ResolveChurnSoakTest, FiftyRoundsOfChurnMatchFromScratchBitForBit) {
  SoakRegion incremental;
  SoakRegion cold;
  AsyncSolver inc_solver(SoakConfig(/*incremental=*/true));
  AsyncSolver cold_solver(SoakConfig(/*incremental=*/false));
  Rng inc_rng(4242);
  Rng cold_rng(4242);

  int patched_rounds = 0;
  int skipped_rounds = 0;
  int warm_rounds = 0;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    ApplyChurn(incremental, inc_rng, round);
    ApplyChurn(cold, cold_rng, round);
    if (round == 17 || round == 34) {
      // Binding materialization moves every class's X at once: with classes
      // keyed by (location, type), a bound update the cache patches.
      MaterializeTargets(incremental);
      MaterializeTargets(cold);
    }

    auto inc_stats = inc_solver.SolveOnce(*incremental.broker, incremental.registry,
                                          incremental.fleet.catalog);
    auto cold_stats =
        cold_solver.SolveOnce(*cold.broker, cold.registry, cold.fleet.catalog);
    ASSERT_TRUE(inc_stats.ok()) << inc_stats.status().ToString();
    ASSERT_TRUE(cold_stats.ok()) << cold_stats.status().ToString();

    // The from-scratch solver must never report reuse.
    EXPECT_FALSE(cold_stats->model_patched);
    EXPECT_FALSE(cold_stats->solve_skipped);
    EXPECT_EQ(cold_stats->delta_servers, -1);
    // Phase-1 fields: phase 2 solves a different (smaller) problem whose
    // node-limited rounds may legitimately re-solve instead of skipping.
    patched_rounds += inc_stats->phase1.model_patched;
    skipped_rounds += inc_stats->phase1.solve_skipped;
    warm_rounds += inc_stats->delta_servers >= 0;

    ASSERT_EQ(Targets(incremental), Targets(cold)) << "targets diverged";
    ASSERT_EQ(SerializeRegionState(*incremental.broker, incremental.registry),
              SerializeRegionState(*cold.broker, cold.registry))
        << "serialized region state diverged";
  }

  // The soak only proves parity if the reuse machinery actually engaged.
  EXPECT_GT(patched_rounds, 0) << "no round ever patched the cached model";
  EXPECT_GT(skipped_rounds, 0) << "no quiet round ever took the skip-solve path";
  EXPECT_GT(warm_rounds, patched_rounds / 2);
}

// What a fresh cold solver computes for the region as it stands.
std::vector<std::pair<ServerId, ReservationId>> FreshColdTargets(const SoakRegion& region) {
  AsyncSolver cold(SoakConfig(/*incremental=*/false));
  DecodedAssignment decoded;
  EXPECT_TRUE(
      cold.SolveSnapshot(SnapshotSolveInput(*region.broker, region.registry, region.fleet.catalog),
                         &decoded)
          .ok());
  return decoded.targets;
}

// The broker holds `targets` (a solve's decoded list) for every server they
// name.
void ExpectBrokerHolds(const SoakRegion& region,
                       const std::vector<std::pair<ServerId, ReservationId>>& targets) {
  ASSERT_FALSE(targets.empty());
  for (const auto& [server, res] : targets) {
    ASSERT_EQ(region.broker->record(server).target, res) << "server " << server;
  }
}

void Resize(SoakRegion& region, size_t service, double delta) {
  ReservationSpec spec = *region.registry.Find(region.services[service]);
  spec.capacity_rru += delta;
  ASSERT_TRUE(region.registry.Update(spec).ok());
}

TEST(ResolveChurnSoakTest, RoundAfterARolledBackPersistMatchesAColdSolve) {
  // A broker write fault rolls the whole target batch back, and the cache
  // keeps the round that never landed. The next round sees that round's
  // snapshot again, so it replays the round: exactly what a cold solve of
  // the same snapshot computes.
  SoakRegion region;
  AsyncSolver solver(SoakConfig(/*incremental=*/true));
  ASSERT_TRUE(
      solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog).ok());

  Resize(region, 0, 6);
  region.broker->SetWriteFaultHook([](ServerId, ReservationId) { return true; });
  EXPECT_FALSE(
      solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog).ok());
  region.broker->SetWriteFaultHook(nullptr);

  const auto cold = FreshColdTargets(region);
  auto replayed = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->solve_skipped) << "the unchanged snapshot did not replay the memo";
  ExpectBrokerHolds(region, cold);

  // A changed snapshot after a rollback misses the memo and still ships the
  // cold answer.
  Resize(region, 1, 5);
  region.broker->SetWriteFaultHook([](ServerId, ReservationId) { return true; });
  EXPECT_FALSE(
      solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog).ok());
  region.broker->SetWriteFaultHook(nullptr);
  Resize(region, 2, 4);
  const auto cold_changed = FreshColdTargets(region);
  auto changed = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(changed->solve_skipped);
  ExpectBrokerHolds(region, cold_changed);
}

// Churn that changes no reservation — the mover applying the last targets,
// containers starting and stopping, a server failing and coming back — moves
// only the classes' X and supplies. Every such round patches the cached
// phase-1 model and ships what a fresh cold solver computes.
TEST(ResolveChurnSoakTest, ChurnOnlyRoundsPatchAndMatchAColdSolve) {
  SoakRegion region;
  AsyncSolver solver(SoakConfig(/*incremental=*/true));
  auto first = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->reuse_miss, ReuseMiss::kNoCachedModel);

  Rng rng(99);
  ServerId failed = 0;
  bool down = false;
  for (int round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    MaterializeTargets(region);
    for (int flips = 0; flips < 4; ++flips) {
      const ServerId id = static_cast<ServerId>(
          rng.UniformInt(0, static_cast<int64_t>(region.broker->num_servers()) - 1));
      if (region.broker->record(id).current != kUnassigned) {
        region.broker->SetHasContainers(id, !region.broker->record(id).has_containers);
      }
    }
    if (down) {
      region.broker->SetUnavailability(failed, Unavailability::kNone);
    } else {
      failed = static_cast<ServerId>(
          rng.UniformInt(0, static_cast<int64_t>(region.broker->num_servers()) - 1));
      region.broker->SetUnavailability(failed, Unavailability::kUnplannedHardware);
    }
    down = !down;

    const auto cold = FreshColdTargets(region);
    auto stats = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
    ASSERT_TRUE(stats.ok());
    EXPECT_TRUE(stats->model_patched) << "a churn-only round rebuilt phase 1's model";
    EXPECT_FALSE(stats->solve_skipped);
    EXPECT_EQ(stats->reuse_miss, ReuseMiss::kSnapshotChanged);
    ExpectBrokerHolds(region, cold);
  }
}

TEST(ResolveChurnSoakTest, RoundAfterADegradedModeSolveMatchesAColdSolve) {
  SoakRegion region;
  AsyncSolver solver(SoakConfig(/*incremental=*/true));
  ASSERT_TRUE(
      solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog).ok());

  // An unchanged full round rides the cache.
  auto warm = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(warm.ok());
  EXPECT_GE(warm->delta_servers, 0);
  EXPECT_TRUE(warm->phase1.solve_skipped);

  // A degraded-mode solve (supervisor ladder rung) on a resized region reads
  // no warm state and leaves the cache as it was...
  Resize(region, 0, 6);
  auto degraded = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog,
                                   SolveMode::kPhase1Only);
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->delta_servers, -1);

  // ...so the next full round re-bounds the model of the last full round and
  // ships the cold answer.
  const auto cold = FreshColdTargets(region);
  auto after = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after->model_patched) << "the degraded round dropped the warm state";
  EXPECT_FALSE(after->solve_skipped);
  ExpectBrokerHolds(region, cold);

  // A degraded round on an unchanged snapshot: the next full round replays.
  ASSERT_TRUE(solver
                  .SolveOnce(*region.broker, region.registry, region.fleet.catalog,
                             SolveMode::kIncumbentOnly)
                  .ok());
  const auto cold_again = FreshColdTargets(region);
  auto replayed = solver.SolveOnce(*region.broker, region.registry, region.fleet.catalog);
  ASSERT_TRUE(replayed.ok());
  EXPECT_TRUE(replayed->solve_skipped);
  ExpectBrokerHolds(region, cold_again);
}

}  // namespace
}  // namespace ras
