#include "src/broker/resource_broker.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/reservation.h"
#include "src/core/state_io.h"
#include "src/fleet/fleet_gen.h"
#include "src/util/rng.h"

namespace ras {
namespace {

class ResourceBrokerTest : public ::testing::Test {
 protected:
  ResourceBrokerTest() : fleet_(GenerateFleet(SmallOptions())), broker_(&fleet_.topology) {}

  static FleetOptions SmallOptions() {
    FleetOptions opts;
    opts.num_datacenters = 1;
    opts.msbs_per_datacenter = 2;
    opts.racks_per_msb = 2;
    opts.servers_per_rack = 5;
    return opts;  // 20 servers.
  }

  Fleet fleet_;
  ResourceBroker broker_;
};

TEST_F(ResourceBrokerTest, AllServersStartFree) {
  EXPECT_EQ(broker_.num_servers(), 20u);
  EXPECT_EQ(broker_.CountInReservation(kUnassigned), 20u);
  for (ServerId id = 0; id < broker_.num_servers(); ++id) {
    const ServerRecord& rec = broker_.record(id);
    EXPECT_EQ(rec.current, kUnassigned);
    EXPECT_EQ(rec.target, kUnassigned);
    EXPECT_EQ(rec.unavailability, Unavailability::kNone);
    EXPECT_FALSE(rec.has_containers);
  }
}

TEST_F(ResourceBrokerTest, SetCurrentMaintainsIndex) {
  broker_.SetCurrent(3, 100);
  broker_.SetCurrent(7, 100);
  EXPECT_EQ(broker_.CountInReservation(100), 2u);
  EXPECT_EQ(broker_.CountInReservation(kUnassigned), 18u);
  broker_.SetCurrent(3, kUnassigned);
  EXPECT_EQ(broker_.CountInReservation(100), 1u);
  EXPECT_EQ(broker_.ServersInReservation(100)[0], 7u);
}

TEST_F(ResourceBrokerTest, VersionBumpsOnChange) {
  uint64_t v0 = broker_.record(5).version;
  broker_.SetTarget(5, 9);
  EXPECT_GT(broker_.record(5).version, v0);
  uint64_t v1 = broker_.record(5).version;
  broker_.SetTarget(5, 9);  // No-op: same value.
  EXPECT_EQ(broker_.record(5).version, v1);
}

TEST_F(ResourceBrokerTest, PendingMoves) {
  EXPECT_TRUE(broker_.PendingMoves().empty());
  broker_.SetTarget(2, 50);
  broker_.SetTarget(4, 50);
  auto pending = broker_.PendingMoves();
  ASSERT_EQ(pending.size(), 2u);
  broker_.SetCurrent(2, 50);
  EXPECT_EQ(broker_.PendingMoves().size(), 1u);
}

TEST_F(ResourceBrokerTest, WatchersFireOnChange) {
  int calls = 0;
  ServerId last = kInvalidServer;
  int handle = broker_.Subscribe([&](const ServerRecord& rec) {
    ++calls;
    last = rec.server;
  });
  broker_.SetUnavailability(6, Unavailability::kUnplannedHardware);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(last, 6u);
  broker_.SetUnavailability(6, Unavailability::kUnplannedHardware);  // No-op.
  EXPECT_EQ(calls, 1);
  broker_.Unsubscribe(handle);
  broker_.SetUnavailability(6, Unavailability::kNone);
  EXPECT_EQ(calls, 1);
}

TEST_F(ResourceBrokerTest, ElasticLoanFields) {
  broker_.SetElasticLoan(9, 42, true);
  EXPECT_TRUE(broker_.record(9).elastic_loan);
  EXPECT_EQ(broker_.record(9).home, 42u);
  broker_.SetElasticLoan(9, kUnassigned, false);
  EXPECT_FALSE(broker_.record(9).elastic_loan);
}

TEST_F(ResourceBrokerTest, IsUnplannedClassification) {
  EXPECT_FALSE(IsUnplanned(Unavailability::kNone));
  EXPECT_FALSE(IsUnplanned(Unavailability::kPlannedMaintenance));
  EXPECT_TRUE(IsUnplanned(Unavailability::kUnplannedSoftware));
  EXPECT_TRUE(IsUnplanned(Unavailability::kUnplannedHardware));
}

TEST_F(ResourceBrokerTest, HasContainersFlag) {
  broker_.SetHasContainers(1, true);
  EXPECT_TRUE(broker_.record(1).has_containers);
  broker_.SetHasContainers(1, false);
  EXPECT_FALSE(broker_.record(1).has_containers);
}

TEST_F(ResourceBrokerTest, GenerationBumpsOnEveryMutation) {
  uint64_t g0 = broker_.generation();
  broker_.SetCurrent(3, 100);
  EXPECT_GT(broker_.generation(), g0);
  uint64_t g1 = broker_.generation();
  broker_.SetTarget(3, 100);
  EXPECT_GT(broker_.generation(), g1);
  uint64_t g2 = broker_.generation();
  broker_.MarkExternalMutation();
  EXPECT_EQ(broker_.generation(), g2 + 1);
  // The external mutation touched no record.
  EXPECT_EQ(broker_.record(3).current, 100u);
  EXPECT_EQ(broker_.record(3).target, 100u);
}

TEST_F(ResourceBrokerTest, TrySetTargetHonorsWriteFaultHook) {
  broker_.SetWriteFaultHook([](ServerId id, ReservationId) { return id == 5; });
  EXPECT_TRUE(broker_.TrySetTarget(4, 100).ok());
  Status rejected = broker_.TrySetTarget(5, 100);
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  EXPECT_EQ(broker_.record(4).target, 100u);
  EXPECT_EQ(broker_.record(5).target, kUnassigned);
  EXPECT_EQ(broker_.failed_writes(), 1u);
  broker_.SetWriteFaultHook(nullptr);
  EXPECT_TRUE(broker_.TrySetTarget(5, 100).ok());
}

TEST_F(ResourceBrokerTest, ApplyTargetsRollsBackMidBatchFailure) {
  broker_.SetTarget(0, 200);  // Pre-existing intent that must be restored.
  int writes = 0;
  broker_.SetWriteFaultHook([&writes](ServerId, ReservationId) { return ++writes == 3; });

  std::vector<std::pair<ServerId, ReservationId>> batch = {
      {0, 100}, {1, 100}, {2, 100}, {3, 100}};
  Status status = broker_.ApplyTargets(batch);
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  // The first two writes landed and were rolled back; the rest never ran.
  EXPECT_EQ(broker_.record(0).target, 200u);
  EXPECT_EQ(broker_.record(1).target, kUnassigned);
  EXPECT_EQ(broker_.record(2).target, kUnassigned);
  EXPECT_EQ(broker_.record(3).target, kUnassigned);
  EXPECT_EQ(broker_.failed_writes(), 1u);

  // Without the hook the same batch applies in full.
  broker_.SetWriteFaultHook(nullptr);
  EXPECT_TRUE(broker_.ApplyTargets(batch).ok());
  for (ServerId id = 0; id < 4; ++id) {
    EXPECT_EQ(broker_.record(id).target, 100u);
  }
}

TEST_F(ResourceBrokerTest, WatchersSeeEveryWriteIncludingRollbacks) {
  // The journal's state digest is kept from these notifications alone, so
  // every record change, a rolled-back batch included, must reach a
  // watcher after the change: the last record a watcher saw for a server is
  // the record it holds.
  std::map<ServerId, std::string> seen;
  broker_.Subscribe(
      [&seen](const ServerRecord& rec) { seen[rec.server] = SerializeServerRecord(rec); });
  broker_.SetTarget(0, 200);
  broker_.SetCurrent(1, 100);
  broker_.SetElasticLoan(2, 100, true);
  broker_.SetUnavailability(3, Unavailability::kUnplannedSoftware);
  broker_.SetHasContainers(1, true);
  EXPECT_TRUE(broker_.TrySetTarget(4, 100).ok());
  int writes = 0;
  broker_.SetWriteFaultHook([&writes](ServerId, ReservationId) { return ++writes == 4; });
  EXPECT_FALSE(broker_.ApplyTargets({{0, 100}, {5, 100}, {6, 100}, {7, 100}}).ok());
  broker_.SetWriteFaultHook(nullptr);
  EXPECT_TRUE(broker_.ApplyTargets({{8, 100}, {0, kUnassigned}}).ok());

  for (ServerId id = 0; id < broker_.num_servers(); ++id) {
    const std::string now = SerializeServerRecord(broker_.record(id));
    auto it = seen.find(id);
    if (it == seen.end()) {
      ServerRecord untouched;
      untouched.server = id;
      EXPECT_EQ(now, SerializeServerRecord(untouched)) << "unnotified change to server " << id;
    } else {
      EXPECT_EQ(it->second, now) << "server " << id;
    }
  }
  EXPECT_EQ(seen.count(5), 1u) << "the rolled-back write was never seen";
  EXPECT_EQ(seen.at(5), SerializeServerRecord(broker_.record(5)));
}

// The current-binding index as a plain linear-search model: every list is
// the history of appends and swap-with-last removals the broker promises,
// found by scanning, so any drift in the broker's slot bookkeeping shows up
// as a different ServersInReservation order.
class IndexModel {
 public:
  explicit IndexModel(size_t num_servers) : current_(num_servers, kUnassigned) {
    for (ServerId id = 0; id < num_servers; ++id) {
      lists_[kUnassigned].push_back(id);
    }
  }

  void SetCurrent(ServerId id, ReservationId reservation) {
    if (current_[id] == reservation) {
      return;
    }
    std::vector<ServerId>& from = lists_[current_[id]];
    auto pos = std::find(from.begin(), from.end(), id);
    *pos = from.back();
    from.pop_back();
    lists_[reservation].push_back(id);
    current_[id] = reservation;
  }

  ReservationId current(ServerId id) const { return current_[id]; }
  const std::map<ReservationId, std::vector<ServerId>>& lists() const { return lists_; }

 private:
  std::vector<ReservationId> current_;
  std::map<ReservationId, std::vector<ServerId>> lists_;
};

class BrokerIndexOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(BrokerIndexOrderTest, ServersInReservationMatchesLinearSwapRemove) {
  FleetOptions opts;
  opts.num_datacenters = 1;
  opts.msbs_per_datacenter = 2;
  opts.racks_per_msb = 3;
  opts.servers_per_rack = 6;
  opts.seed = 50 + static_cast<uint64_t>(GetParam());
  Fleet fleet = GenerateFleet(opts);
  auto broker = std::make_unique<ResourceBroker>(&fleet.topology);
  IndexModel model(broker->num_servers());
  Rng rng(7000 + static_cast<uint64_t>(GetParam()));
  const int64_t last_server = static_cast<int64_t>(broker->num_servers()) - 1;
  auto random_server = [&] { return static_cast<ServerId>(rng.UniformInt(0, last_server)); };
  // The free pool plus four reservations.
  auto random_binding = [&] {
    int64_t pick = rng.UniformInt(0, 4);
    return pick == 0 ? kUnassigned : static_cast<ReservationId>(pick);
  };

  for (int step = 0; step < 400; ++step) {
    switch (rng.UniformInt(0, 4)) {
      case 0:
      case 1: {  // A binding change, sometimes to the binding it already has.
        ServerId id = random_server();
        ReservationId to = random_binding();
        broker->SetCurrent(id, to);
        model.SetCurrent(id, to);
        break;
      }
      case 2: {  // A target batch, rolled back mid-batch when a write fails.
        std::vector<std::pair<ServerId, ReservationId>> batch;
        for (int64_t n = rng.UniformInt(1, 8); n > 0; --n) {
          batch.emplace_back(random_server(), random_binding());
        }
        int64_t fail_at = rng.UniformInt(0, static_cast<int64_t>(batch.size()));
        int writes = 0;
        broker->SetWriteFaultHook(
            [&writes, fail_at](ServerId, ReservationId) { return writes++ == fail_at; });
        Status status = broker->ApplyTargets(batch);
        EXPECT_EQ(status.ok(), fail_at == static_cast<int64_t>(batch.size())) << step;
        broker->SetWriteFaultHook(nullptr);
        break;
      }
      case 3: {  // The mover converges every pending server to its target.
        for (ServerId id : broker->PendingMoves()) {
          ReservationId to = broker->record(id).target;
          broker->SetCurrent(id, to);
          model.SetCurrent(id, to);
        }
        break;
      }
      case 4: {  // Recovery: a fresh broker restored from a snapshot.
        ReservationRegistry registry;
        std::string snapshot = SerializeRegionState(*broker, registry);
        broker = std::make_unique<ResourceBroker>(&fleet.topology);
        ASSERT_TRUE(DeserializeRegionState(snapshot, *broker, registry).ok()) << step;
        // The restore replays records in server-id order.
        IndexModel restored(broker->num_servers());
        for (ServerId id = 0; id < broker->num_servers(); ++id) {
          restored.SetCurrent(id, model.current(id));
        }
        model = restored;
        break;
      }
    }
    for (const auto& [reservation, servers] : model.lists()) {
      ASSERT_EQ(broker->ServersInReservation(reservation), servers)
          << "reservation " << reservation << " step " << step;
    }
    for (ServerId id = 0; id < broker->num_servers(); ++id) {
      ASSERT_EQ(broker->record(id).current, model.current(id)) << "server " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BrokerIndexOrderTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace ras
