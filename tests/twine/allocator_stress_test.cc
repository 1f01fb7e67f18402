// Property/stress test for the Twine allocator: long random operation
// sequences must preserve every structural invariant, and make exactly the
// placements of the recount-and-scan reference allocator.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "src/fleet/fleet_gen.h"
#include "src/twine/allocator.h"
#include "src/util/rng.h"
#include "tests/twine/allocator_oracle.h"

namespace ras {
namespace {

class AllocatorStressTest : public ::testing::TestWithParam<int> {};

TEST_P(AllocatorStressTest, RandomOperationSequence) {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 2;
  opts.racks_per_msb = 4;
  opts.servers_per_rack = 6;
  opts.seed = 100 + static_cast<uint64_t>(GetParam());
  Fleet fleet = GenerateFleet(opts);
  ResourceBroker broker(&fleet.topology);
  TwineAllocator twine(&fleet.catalog, &broker);
  Rng rng(2000 + static_cast<uint64_t>(GetParam()));

  // Two reservations over a moving set of servers.
  const ReservationId kResA = 1, kResB = 2;
  for (ServerId id = 0; id < 40; ++id) {
    broker.SetCurrent(id, id < 24 ? kResA : kResB);
  }

  std::vector<JobId> jobs;
  std::map<JobId, int> requested;
  for (int op = 0; op < 300; ++op) {
    int action = static_cast<int>(rng.UniformInt(0, 5));
    switch (action) {
      case 0: {  // Submit.
        JobSpec spec;
        spec.name = "job";
        spec.reservation = rng.Bernoulli(0.5) ? kResA : kResB;
        spec.container =
            ContainerSpec{rng.Uniform(1, 12), rng.Uniform(2, 24)};
        spec.replicas = static_cast<int>(rng.UniformInt(1, 12));
        auto id = twine.SubmitJob(spec);
        ASSERT_TRUE(id.ok());
        jobs.push_back(*id);
        requested[*id] = spec.replicas;
        break;
      }
      case 1: {  // Stop.
        if (!jobs.empty()) {
          size_t which = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(jobs.size()) - 1));
          (void)twine.StopJob(jobs[which]);
          requested.erase(jobs[which]);
          jobs.erase(jobs.begin() + static_cast<long>(which));
        }
        break;
      }
      case 2: {  // Resize.
        if (!jobs.empty()) {
          size_t which = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(jobs.size()) - 1));
          int replicas = static_cast<int>(rng.UniformInt(0, 15));
          ASSERT_TRUE(twine.ResizeJob(jobs[which], replicas).ok());
          requested[jobs[which]] = replicas;
        }
        break;
      }
      case 3: {  // Evict a random server.
        ServerId victim = static_cast<ServerId>(rng.UniformInt(0, 39));
        twine.EvictServer(victim);
        EXPECT_EQ(twine.containers_on(victim), 0u);
        break;
      }
      case 4: {  // Move a server between reservations (with eviction).
        ServerId victim = static_cast<ServerId>(rng.UniformInt(0, 39));
        twine.EvictServer(victim);
        broker.SetCurrent(victim,
                          broker.record(victim).current == kResA ? kResB : kResA);
        break;
      }
      case 5: {  // Retry pending.
        twine.RetryPending();
        break;
      }
    }

    // --- Invariants after every operation ---
    // Replica accounting: running + pending == requested.
    for (JobId id : jobs) {
      ASSERT_NE(twine.job(id), nullptr);
      EXPECT_EQ(twine.running_containers(id) +
                    static_cast<size_t>(twine.pending_containers(id)),
                static_cast<size_t>(requested[id]))
          << "job " << id << " op " << op;
      EXPECT_GE(twine.pending_containers(id), 0);
    }
    // has_containers mirrors per-server container counts.
    for (ServerId id = 0; id < broker.num_servers(); ++id) {
      EXPECT_EQ(broker.record(id).has_containers, twine.containers_on(id) > 0);
    }
  }

  // Total containers on servers equals total running replicas.
  size_t on_servers = 0;
  for (ServerId id = 0; id < broker.num_servers(); ++id) {
    on_servers += twine.containers_on(id);
  }
  size_t running = 0;
  for (JobId id : jobs) {
    running += twine.running_containers(id);
  }
  EXPECT_EQ(on_servers, running);
}

// The allocator and the oracle run the same operations on twin brokers, so
// both see the same candidate order and availability; after every operation
// their placements, pending counts and has_containers flags must agree
// exactly, and the allocator's MSB tally must equal a recount.
TEST_P(AllocatorStressTest, MatchesRecountOracle) {
  FleetOptions opts;
  opts.num_datacenters = 2;
  opts.msbs_per_datacenter = 3;
  opts.racks_per_msb = 3;
  opts.servers_per_rack = 5;
  opts.seed = 300 + static_cast<uint64_t>(GetParam());
  Fleet fleet = GenerateFleet(opts);
  ResourceBroker broker(&fleet.topology);
  ResourceBroker oracle_broker(&fleet.topology);
  TwineAllocator twine(&fleet.catalog, &broker);
  AllocatorOracle oracle(&fleet.catalog, &oracle_broker);
  Rng rng(4000 + static_cast<uint64_t>(GetParam()));
  const int64_t last_server = static_cast<int64_t>(broker.num_servers()) - 1;
  auto random_server = [&] { return static_cast<ServerId>(rng.UniformInt(0, last_server)); };
  auto set_current = [&](ServerId id, ReservationId to) {
    broker.SetCurrent(id, to);
    oracle_broker.SetCurrent(id, to);
  };

  // Two reservations and the free pool; servers start spread over all three.
  const ReservationId kBindings[] = {kUnassigned, 1, 2};
  for (ServerId id = 0; id < broker.num_servers(); ++id) {
    set_current(id, kBindings[rng.UniformInt(0, 2)]);
  }

  std::vector<JobId> jobs;
  auto random_job = [&] {
    return jobs[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(jobs.size()) - 1))];
  };
  for (int op = 0; op < 400; ++op) {
    switch (rng.UniformInt(0, 7)) {
      case 0: {  // Submit.
        JobSpec spec;
        spec.name = "job";
        spec.reservation = kBindings[rng.UniformInt(1, 2)];
        spec.container = ContainerSpec{rng.Uniform(1, 16), rng.Uniform(2, 32)};
        spec.replicas = static_cast<int>(rng.UniformInt(1, 20));
        auto id = twine.SubmitJob(spec);
        ASSERT_TRUE(id.ok());
        ASSERT_EQ(*id, oracle.SubmitJob(spec));
        jobs.push_back(*id);
        break;
      }
      case 1: {  // Stop.
        if (!jobs.empty()) {
          JobId id = random_job();
          ASSERT_TRUE(twine.StopJob(id).ok());
          oracle.StopJob(id);
          jobs.erase(std::find(jobs.begin(), jobs.end(), id));
        }
        break;
      }
      case 2: {  // Resize up or down.
        if (!jobs.empty()) {
          JobId id = random_job();
          int replicas = static_cast<int>(rng.UniformInt(0, 25));
          ASSERT_TRUE(twine.ResizeJob(id, replicas).ok());
          oracle.ResizeJob(id, replicas);
        }
        break;
      }
      case 3: {  // Evict, re-placing now or leaving the replicas pending.
        ServerId victim = random_server();
        bool replace_now = rng.Bernoulli(0.5);
        ASSERT_EQ(twine.EvictServer(victim, replace_now), oracle.EvictServer(victim, replace_now));
        break;
      }
      case 4:
      case 5: {  // The mover: evict, then rebind the server.
        ServerId victim = random_server();
        bool replace_now = rng.Bernoulli(0.5);
        ASSERT_EQ(twine.EvictServer(victim, replace_now), oracle.EvictServer(victim, replace_now));
        set_current(victim, kBindings[rng.UniformInt(0, 2)]);
        break;
      }
      case 6: {  // Health: an unavailability flip.
        ServerId id = random_server();
        auto u = static_cast<Unavailability>(rng.UniformInt(0, 3));
        broker.SetUnavailability(id, u);
        oracle_broker.SetUnavailability(id, u);
        break;
      }
      case 7: {  // Retry pending.
        ASSERT_EQ(twine.RetryPending(), oracle.RetryPending());
        break;
      }
    }

    size_t running = 0;
    for (const auto& [id, job] : oracle.jobs()) {
      const JobState* state = twine.job(id);
      ASSERT_NE(state, nullptr) << "job " << id << " op " << op;
      ASSERT_EQ(state->running, job.running) << "job " << id << " op " << op;
      ASSERT_EQ(state->pending, job.pending) << "job " << id << " op " << op;
      ASSERT_EQ(twine.ReplicasPerMsb(id), oracle.ReplicasPerMsb(id)) << "job " << id;
      running += state->running.size();
    }
    ASSERT_EQ(running, oracle.containers().size());
    for (const auto& [cid, placed] : oracle.containers()) {
      ASSERT_EQ(twine.server_of(cid), placed.server) << "container " << cid << " op " << op;
    }
    for (ServerId id = 0; id < broker.num_servers(); ++id) {
      ASSERT_EQ(broker.record(id).has_containers, oracle_broker.record(id).has_containers)
          << "server " << id << " op " << op;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AllocatorStressTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace ras
