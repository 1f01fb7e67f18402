#include "src/core/explain.h"

#include <gtest/gtest.h>

#include "src/core/async_solver.h"
#include "src/fleet/fleet_gen.h"

namespace ras {
namespace {

FleetOptions Options() {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 3;
  opts.racks_per_msb = 5;
  opts.servers_per_rack = 8;
  return opts;
}

TEST(ExplainTest, SummarizesSolvedReservation) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  ReservationSpec spec;
  spec.name = "svc";
  spec.capacity_rru = 40;
  spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
  ReservationId id = *registry.Create(spec);

  AsyncSolver solver;
  ASSERT_TRUE(solver.SolveOnce(broker, registry, fleet.catalog).ok());
  for (ServerId s = 0; s < broker.num_servers(); ++s) {
    broker.SetCurrent(s, broker.record(s).target);
  }

  // Two of its servers run containers: Expression (1)'s in-use tier.
  size_t marked = 0;
  for (ServerId s = 0; s < broker.num_servers() && marked < 2; ++s) {
    if (broker.record(s).current == id) {
      broker.SetHasContainers(s, true);
      ++marked;
    }
  }

  AssignmentExplanation ex = ExplainAssignment(broker, registry, fleet.catalog, id);
  EXPECT_EQ(ex.name, "svc");
  const SolverConfig config;
  EXPECT_EQ(ex.in_use_servers, 2u);
  EXPECT_EQ(ex.move_out_cost, 2 * config.move_cost_in_use +
                                  static_cast<double>(ex.servers - 2) * config.move_cost_idle);
  EXPECT_GT(ex.servers, 40u);  // Capacity + buffer.
  EXPECT_NEAR(ex.total_rru, static_cast<double>(ex.servers), 1e-9);  // Count-based.
  EXPECT_GE(ex.effective_rru, 40.0 - 1e-6);
  EXPECT_NEAR(ex.shortfall_rru, 0.0, 1e-6);
  EXPECT_GE(ex.by_msb.size(), 4u);  // Spread across most of the 6 MSBs.
  EXPECT_EQ(ex.by_dc.size(), 2u);

  std::string text = ex.ToString(fleet.catalog);
  EXPECT_NE(text.find("svc"), std::string::npos);
  EXPECT_NE(text.find("survives any single-MSB loss"), std::string::npos);
  EXPECT_NE(text.find("hardware mix"), std::string::npos);
  EXPECT_NE(text.find("stability: 2 in use"), std::string::npos);
  EXPECT_EQ(text.find("SHORT"), std::string::npos);  // Fully granted.
}

TEST(ExplainTest, UnknownReservation) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  AssignmentExplanation ex = ExplainAssignment(broker, registry, fleet.catalog, 12345);
  EXPECT_EQ(ex.name, "<unknown reservation>");
  EXPECT_EQ(ex.servers, 0u);
}

TEST(ExplainTest, FlagsShortfall) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  ReservationSpec spec;
  spec.name = "under";
  spec.capacity_rru = 50;
  spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
  ReservationId id = *registry.Create(spec);
  // Bind only 10 servers, all in one MSB: effective capacity 0.
  for (ServerId s : fleet.topology.ServersInMsb(0)) {
    if (broker.CountInReservation(id) >= 10) {
      break;
    }
    broker.SetCurrent(s, id);
  }
  AssignmentExplanation ex = ExplainAssignment(broker, registry, fleet.catalog, id);
  EXPECT_NEAR(ex.effective_rru, 0.0, 1e-9);
  EXPECT_NEAR(ex.shortfall_rru, 50.0, 1e-9);
  EXPECT_NE(ex.ToString(fleet.catalog).find("SHORT"), std::string::npos);
}

// A reservation without a correlated-failure buffer (a shared random buffer,
// an elastic pool) is credited its whole allocation, as the solver scores it.
TEST(ExplainTest, UnbufferedReservationIsCreditedItsTotal) {
  Fleet fleet = GenerateFleet(Options());
  ResourceBroker broker(&fleet.topology);
  ReservationRegistry registry;
  ReservationSpec spec;
  spec.name = "shared-buffer";
  spec.capacity_rru = 10;
  spec.rru_per_type.assign(fleet.catalog.size(), 1.0);
  spec.needs_correlated_buffer = false;
  ReservationId id = *registry.Create(spec);
  // All 10 RRU in one MSB.
  for (ServerId s : fleet.topology.ServersInMsb(0)) {
    if (broker.CountInReservation(id) >= 10) {
      break;
    }
    broker.SetCurrent(s, id);
  }
  AssignmentExplanation ex = ExplainAssignment(broker, registry, fleet.catalog, id);
  EXPECT_FALSE(ex.buffered);
  EXPECT_NEAR(ex.worst_msb_rru, 0.0, 1e-9);
  EXPECT_NEAR(ex.effective_rru, 10.0, 1e-9);
  EXPECT_NEAR(ex.shortfall_rru, 0.0, 1e-9);
  std::string text = ex.ToString(fleet.catalog);
  EXPECT_EQ(text.find("SHORT"), std::string::npos);
  EXPECT_EQ(text.find("survives any single-MSB loss"), std::string::npos);
}

}  // namespace
}  // namespace ras
