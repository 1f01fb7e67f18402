#include "src/core/rru_ledger.h"

#include <gtest/gtest.h>

#include "src/fleet/fleet_gen.h"
#include "src/util/rng.h"

namespace ras {
namespace {

Fleet SmallFleet() {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 3;
  opts.racks_per_msb = 4;
  opts.servers_per_rack = 6;
  return GenerateFleet(opts);  // 144 servers.
}

ReservationSpec Spec(ReservationId id, double capacity, std::vector<double> rru, bool buffered) {
  ReservationSpec spec;
  spec.id = id;
  spec.name = "r" + std::to_string(id);
  spec.capacity_rru = capacity;
  spec.rru_per_type = std::move(rru);
  spec.needs_correlated_buffer = buffered;
  return spec;
}

TEST(RruLedgerTest, RemoveAfterAddRestoresTotalsAndWorstMsb) {
  Fleet fleet = SmallFleet();
  const RegionTopology& topo = fleet.topology;
  // Dyadic RRU values keep every sum exact, so the test checks the
  // bookkeeping (dropped domains, the recomputed worst MSB), not rounding.
  const std::vector<ReservationSpec> specs = {
      Spec(1, 12, std::vector<double>(fleet.catalog.size(), 1.5), /*buffered=*/true)};
  RruLedger ledger(specs);
  for (ServerId s : topo.ServersInMsb(0)) {
    if (ledger.Total(0) >= 9.0) {
      break;
    }
    ledger.Add(0, topo.server(s), 1.5);
  }
  ledger.Add(0, topo.server(topo.ServersInMsb(1).front()), 1.5);
  const double total = ledger.Total(0);
  const double worst = ledger.WorstMsb(0);
  const std::map<MsbId, double> by_msb = ledger.ByMsb(0);
  const std::map<DatacenterId, double> by_dc = ledger.ByDc(0);
  ASSERT_EQ(worst, 9.0);
  ASSERT_EQ(ledger.Shortfall(0), 12.0 - 1.5);

  // A new worst MSB, a new datacenter, then everything taken back.
  std::vector<ServerId> added;
  for (ServerId s : topo.ServersInMsb(5)) {
    if (added.size() == 8) {
      break;
    }
    ledger.Add(0, topo.server(s), 1.5);
    added.push_back(s);
  }
  EXPECT_EQ(ledger.WorstMsb(0), 12.0);
  EXPECT_EQ(ledger.ByDc(0).size(), 2u);
  for (ServerId s : added) {
    ledger.Remove(0, topo.server(s), 1.5);
  }
  EXPECT_EQ(ledger.Total(0), total);
  EXPECT_EQ(ledger.WorstMsb(0), worst);
  EXPECT_EQ(ledger.ByMsb(0), by_msb);
  EXPECT_EQ(ledger.ByDc(0), by_dc);
  EXPECT_EQ(ledger.AtMsb(0, 5), 0.0);
}

TEST(RruLedgerTest, UnbufferedReservationIsCreditedItsTotal) {
  Fleet fleet = SmallFleet();
  const RegionTopology& topo = fleet.topology;
  const std::vector<double> ones(fleet.catalog.size(), 1.0);
  const std::vector<ReservationSpec> specs = {Spec(1, 10, ones, /*buffered=*/true),
                                              Spec(2, 10, ones, /*buffered=*/false)};
  RruLedger ledger(specs);
  const std::vector<ServerId>& msb0 = topo.ServersInMsb(0);
  for (size_t i = 0; i < 10; ++i) {
    ledger.Add(0, topo.server(msb0[i]), 1.0);
    ledger.Add(1, topo.server(msb0[10 + i]), 1.0);
  }
  EXPECT_EQ(ledger.WorstMsb(0), 10.0);
  EXPECT_EQ(ledger.Shortfall(0), 10.0);
  EXPECT_EQ(ledger.WorstMsb(1), 0.0);
  EXPECT_EQ(ledger.Effective(1), 10.0);
  EXPECT_EQ(ledger.Shortfall(1), 0.0);
  EXPECT_EQ(ledger.TotalShortfall(), 10.0);
}

// Server-level and class-level scoring of one assignment agree: the ledger
// over server targets and MakeWarmStart over the same assignment's class
// counts report the same shortfall, buffer and MSB overflow per reservation.
TEST(RruLedgerTest, TargetsAndClassCountsScoreAlike) {
  Fleet fleet = SmallFleet();
  SolveInput input;
  input.topology = &fleet.topology;
  input.catalog = &fleet.catalog;
  std::vector<double> graded(fleet.catalog.size());
  for (size_t t = 0; t < graded.size(); ++t) {
    graded[t] = 1.0 + 0.3 * static_cast<double>(t % 4);
  }
  input.reservations = {Spec(1, 30, std::vector<double>(fleet.catalog.size(), 1.0), true),
                        Spec(2, 45, graded, true), Spec(3, 60, graded, true),
                        Spec(4, 8, std::vector<double>(fleet.catalog.size(), 1.0), false)};
  // A seeded random assignment: uneven enough that some reservations fall
  // short and some MSBs overflow their spread threshold.
  Rng rng(2024);
  input.servers.resize(fleet.topology.num_servers());
  for (ServerSolveState& state : input.servers) {
    const int64_t pick = rng.UniformInt(0, 5);
    state.current = pick < 4 ? input.reservations[static_cast<size_t>(pick)].id : kUnassigned;
  }
  std::vector<std::pair<ServerId, ReservationId>> targets;
  for (ServerId s = 0; s < input.servers.size(); ++s) {
    targets.emplace_back(s, input.servers[s].current);
  }

  const SolverConfig config;
  const std::vector<EquivalenceClass> classes = BuildEquivalenceClasses(input, Scope::kMsb);
  const BuiltModel built = BuildRasModel(input, classes, config, /*include_rack_spread=*/false);
  // The model's initial counts are this assignment's class counts.
  const std::vector<double> x = MakeWarmStart(input, classes, built, built.initial_counts);
  const RruLedger ledger = RruLedger::OfTargets(input, targets);

  std::vector<double> msb_overflow(input.reservations.size(), 0.0);
  for (const auto& term : built.msb_spread_terms) {
    msb_overflow[static_cast<size_t>(term.reservation_index)] += x[term.var];
  }
  double shortfall = 0.0;
  double overflow = 0.0;
  for (size_t r = 0; r < input.reservations.size(); ++r) {
    SCOPED_TRACE(input.reservations[r].name);
    EXPECT_NEAR(x[built.shortfall_vars[r]], ledger.Shortfall(r), 1e-9);
    const double buffer =
        built.buffer_vars[r] == kNoVar ? 0.0 : x[built.buffer_vars[r]];
    EXPECT_NEAR(buffer, ledger.WorstMsb(r), 1e-9);
    const double threshold = MsbSpreadThreshold(input.reservations[r], config, fleet.topology);
    EXPECT_NEAR(msb_overflow[r], ledger.MsbOverflow(r, threshold), 1e-9);
    shortfall += ledger.Shortfall(r);
    overflow += ledger.MsbOverflow(r, threshold);
  }
  // The comparison is not vacuous.
  EXPECT_GT(shortfall, 1.0);
  EXPECT_GT(overflow, 1.0);
  EXPECT_EQ(built.buffer_vars[3], kNoVar);
  EXPECT_GT(ledger.ByMsb(3).size(), 1u);
}

}  // namespace
}  // namespace ras
