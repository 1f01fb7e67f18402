// Region-round benchmark: continuous supervised RAS rounds on the production
// call sequence, with durability on, real Twine jobs, and health events.
//
// One driver thread runs one round per simulated hour (a closed loop: the
// next round starts only when the previous one has finished). Each round:
//
//   health events -> [capacity requests] -> SolverSupervisor::RunRound
//   (snapshot, solve, journaled persist) -> Online Mover reconcile ->
//   Twine retry -> journal RoundBarrier
//
// which is exactly what RegionScenario::SolveRound does after the bench has
// advanced health and applied requests. The untraced run calls SolveRound()
// itself; the traced run calls its steps one by one inside bench-side spans,
// and both must produce the same fingerprint. Workloads, metrics and the
// reasons behind the design are in README.md next to this file.
//
// Usage:
//   round_bench --workload steady|requests|sharded --seed N --seconds S
//               --trace 0|1 --state-dir DIR [--break persist|recovery|cold]
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Exits 1 when a correctness check fails, 2 on bad usage or a
// non-Release build.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "roundbench/span_stats.h"
#include "src/core/rru.h"
#include "src/core/state_io.h"
#include "src/fleet/service_profile.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/sim/scenario.h"
#include "src/solver/simplex.h"
#include "src/util/monotonic_time.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace ras {
namespace roundbench {
namespace {

// ---------------------------------------------------------------------------
// Workloads (rationale in README.md).

struct Workload {
  const char* name;
  int racks_per_msb;
  int shard_count;
  bool requests;
  // Regions built per run. Each is set up from scratch (setup_s is their
  // median), warmed up, and measured for its share of the rounds. Pooling
  // many small regions keeps the run-to-run spread of every end-to-end
  // metric inside its regression bound; one long region does not, because a
  // single region's trajectory settles into seed-dependent regimes.
  int segments;
  // Measured rounds per requested second, over all segments. The round
  // count follows --seconds, never the clock, so quality figures repeat
  // exactly for a given seed. sharded measures twice as many per region:
  // its few in-use moves per round need more rounds to average out.
  // requests pools more regions: its request stream makes each round's MIP
  // a different size, which spreads its tail and quality from seed to seed.
  double rounds_per_second;
};

constexpr Workload kWorkloads[] = {
    {"steady", 6, 1, false, 16, 11.2},
    {"requests", 6, 1, true, 24, 16.8},
    {"sharded", 48, 4, false, 16, 22.4},
};

constexpr int kSegmentsTraced = 4;
constexpr int kWarmupRounds = 3;
constexpr double kTracedRoundsPerSecond = 6.0;

constexpr int kDatacenters = 2;
constexpr int kMsbsPerDatacenter = 2;
constexpr int kServersPerRack = 24;
constexpr int kReservations = 6;
constexpr double kReservedShare = 0.55;  // Of fleet RRU, per profile.
constexpr double kJobFill = 0.60;        // Of each reservation's CPU.
constexpr ContainerSpec kContainer{16.0, 32.0};
// Run length the health horizon is sized for (the benchmark's run_seconds).
constexpr double kNominalSeconds = 10.0;
constexpr int kMinRoundsPerSegment = 2;
constexpr int kMaxRoundsPerSegment = 500;
// requests: resizes before every round, plus one admit and one remove of a
// reservation that runs no jobs, so every round is structurally new.
constexpr int kResizesPerRound = 3;

// ---------------------------------------------------------------------------
// Helpers.

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

uint64_t HashTargets(const std::vector<std::pair<ServerId, ReservationId>>& targets) {
  uint64_t h = kFnvBasis;
  for (const auto& [server, res] : targets) {
    h = Fnv(h, (static_cast<uint64_t>(server) << 32) | res);
  }
  return h;
}

uint64_t HashString(const std::string& s) {
  uint64_t h = kFnvBasis;
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
  return h;
}

int64_t CounterValue(const char* name) {
  for (const obs::Counter* c : obs::MetricRegistry::Default().Counters()) {
    if (c->name() == name) {
      return c->Value();
    }
  }
  return 0;
}

double HistogramSum(const char* name) {
  for (const obs::Histogram* h : obs::MetricRegistry::Default().Histograms()) {
    if (h->name() == name) {
      return h->Sum();
    }
  }
  return 0.0;
}

// Production counters the per-layer table reads as per-round deltas.
enum CounterIndex {
  kMipNodes,
  kSimplexIterations,
  kRefactorizations,
  kTimeLimitHits,
  kJournalAppends,
  kCompactions,
  kGenerationBumps,
  kRollbacks,
  kNumCounters,
};
const char* const kCounterNames[kNumCounters] = {
    "ras_mip_nodes_total",
    "ras_simplex_iterations_total",
    "ras_simplex_refactorizations_total",
    "ras_mip_time_limit_hits_total",
    "ras_journal_appends_total",
    "ras_journal_compactions_total",
    "ras_broker_generation_bumps_total",
    "ras_broker_rollbacks_total",
};
enum HistogramIndex { kAppendSeconds, kCheckpointSeconds, kNumHistograms };
const char* const kHistogramNames[kNumHistograms] = {"ras_journal_append_seconds",
                                                     "ras_journal_checkpoint_seconds"};

struct CounterSnapshot {
  int64_t counters[kNumCounters] = {};
  double histograms[kNumHistograms] = {};

  static CounterSnapshot Take() {
    CounterSnapshot s;
    for (int i = 0; i < kNumCounters; ++i) {
      s.counters[i] = CounterValue(kCounterNames[i]);
    }
    for (int i = 0; i < kNumHistograms; ++i) {
      s.histograms[i] = HistogramSum(kHistogramNames[i]);
    }
    return s;
  }
};

// Monolithic phase-1 model over one snapshot: re-scores any target set on
// one scale, so quality compares across shard counts (the approach of
// bench/bench_shard_scaling's ReferenceModel).
class ReferenceModel {
 public:
  ReferenceModel(const SolveInput& input, const SolverConfig& config)
      : classes_(BuildEquivalenceClasses(input, Scope::kMsb)),
        built_(BuildRasModel(input, classes_, config, /*include_rack_spread=*/false)) {
    class_of_server_.assign(input.servers.size(), -1);
    for (size_t c = 0; c < classes_.size(); ++c) {
      for (ServerId s : classes_[c].servers) {
        class_of_server_[s] = static_cast<int>(c);
      }
    }
    for (size_t r = 0; r < input.reservations.size(); ++r) {
      res_index_[input.reservations[r].id] = static_cast<int>(r);
    }
    var_of_.resize(classes_.size());
    for (size_t k = 0; k < built_.assignment_vars.size(); ++k) {
      const auto& av = built_.assignment_vars[k];
      var_of_[static_cast<size_t>(av.class_index)][av.reservation_index] = k;
    }
  }

  double Score(const SolveInput& input,
               const std::vector<std::pair<ServerId, ReservationId>>& targets) const {
    std::vector<double> counts(built_.assignment_vars.size(), 0.0);
    for (const auto& [server, res] : targets) {
      if (res == kUnassigned) {
        continue;
      }
      int c = class_of_server_[server];
      auto r = res_index_.find(res);
      if (c < 0 || r == res_index_.end()) {
        continue;
      }
      auto var = var_of_[static_cast<size_t>(c)].find(r->second);
      if (var != var_of_[static_cast<size_t>(c)].end()) {
        counts[var->second] += 1.0;
      }
    }
    return built_.model.Objective(MakeWarmStart(input, classes_, built_, counts));
  }

  // Root LP relaxation value: a proven lower bound on any assignment's cost.
  double RootBound() const {
    SimplexSolver lp;
    LpResult result = lp.Solve(built_.model);
    return result.status == LpStatus::kOptimal ? result.objective : std::nan("");
  }

 private:
  std::vector<EquivalenceClass> classes_;
  BuiltModel built_;
  std::vector<int> class_of_server_;
  std::unordered_map<ReservationId, int> res_index_;
  std::vector<std::unordered_map<int, size_t>> var_of_;
};

// ---------------------------------------------------------------------------
// Host-speed calibration. The benchmark shares its host with other tenants,
// whose load moves this machine's speed by 10-35% over minutes; the same
// seed on the same binary then varies as much as a regression bound. Before
// every measured round a fixed kernel, independent of the code under test,
// times the host: a dense mat-vec (solver-like), a pointer chase through a
// 4 MB cycle (cache and memory latency) and hash-map churn (allocation).
// End-to-end times are scaled by kProbeReferenceSeconds / (the median probe
// of their region), i.e. reported in seconds of a host running the probe in
// kProbeReferenceSeconds. See README.md.

// About the probe's median on the 4-vCPU VM the benchmark was introduced on
// (0.0050-0.0069 s per run there).
constexpr double kProbeReferenceSeconds = 0.0055;

class HostProbe {
 public:
  HostProbe() : matrix_(kDim * kDim), x_(kDim, 1.0), y_(kDim), next_(kChaseSlots) {
    for (size_t i = 0; i < matrix_.size(); ++i) {
      matrix_[i] = static_cast<double>(i % 97) * 0.01;
    }
    // Sattolo's shuffle: one cycle through every slot.
    std::vector<uint32_t> order(kChaseSlots);
    for (uint32_t i = 0; i < kChaseSlots; ++i) {
      order[i] = i;
    }
    Rng rng(0x9e3779b9);
    for (size_t i = kChaseSlots - 1; i > 0; --i) {
      std::swap(order[i], order[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(i) - 1))]);
    }
    for (size_t i = 0; i < kChaseSlots; ++i) {
      next_[order[i]] = order[(i + 1) % kChaseSlots];
    }
  }

  double Seconds() {
    double t0 = util::MonotonicSeconds();
    for (int rep = 0; rep < 16; ++rep) {
      for (size_t i = 0; i < kDim; ++i) {
        double dot = 0.0;
        for (size_t j = 0; j < kDim; ++j) {
          dot += matrix_[i * kDim + j] * x_[j];
        }
        y_[i] = dot;
      }
      for (size_t i = 0; i < kDim; ++i) {
        x_[i] = y_[i] * 1e-3 + 1.0;
      }
    }
    uint32_t at = at_;
    for (int i = 0; i < 12000; ++i) {
      at = next_[at];
    }
    at_ = at;
    std::unordered_map<uint64_t, std::vector<int>> buckets;
    for (uint64_t i = 0; i < 20000; ++i) {
      buckets[(i * 11400714819323198485ULL) >> 40].push_back(static_cast<int>(i));
    }
    size_t found = 0;
    for (uint64_t i = 0; i < 20000; ++i) {
      found += buckets.find((i * 11400714819323198485ULL) >> 40)->second.size();
    }
    sink_ = found + static_cast<size_t>(x_[0]);
    return util::MonotonicSeconds() - t0;
  }

 private:
  static constexpr size_t kDim = 400;
  static constexpr uint32_t kChaseSlots = 1u << 20;
  std::vector<double> matrix_;
  std::vector<double> x_;
  std::vector<double> y_;
  std::vector<uint32_t> next_;
  uint32_t at_ = 0;
  volatile size_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Bench-side persistence wrapper: times DurableControlPlane::PersistTargets
// and checks that every server in a successful batch holds its new target.

class CheckedPersistence final : public TargetPersistence {
 public:
  CheckedPersistence(journal::DurableControlPlane* durable, bool break_check)
      : durable_(durable), break_check_(break_check) {}

  Status PersistTargets(ResourceBroker& broker,
                        const std::vector<std::pair<ServerId, ReservationId>>& targets) override {
    obs::SpanScope span(obs::Tracer::Default(), "journal.persist");
    double t0 = util::MonotonicSeconds();
    Status status = durable_->PersistTargets(broker, targets);
    seconds += util::MonotonicSeconds() - t0;
    ++persists;
    batch_servers += static_cast<int64_t>(targets.size());
    if (status.ok()) {
      if (break_check_) {
        // --break persist: release one freshly persisted server behind the
        // journal's back, once.
        for (const auto& [server, res] : targets) {
          if (res != kUnassigned) {
            broker.SetTarget(server, kUnassigned);
            break_check_ = false;
            break;
          }
        }
      }
      for (const auto& [server, res] : targets) {
        if (broker.record(server).target != res) {
          ++mismatches;
        }
      }
    }
    return status;
  }

  double seconds = 0.0;
  int64_t persists = 0;
  int64_t batch_servers = 0;
  int64_t mismatches = 0;

 private:
  journal::DurableControlPlane* durable_;
  bool break_check_;
};

// ---------------------------------------------------------------------------
// Region set-up.

struct Options {
  const Workload* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;
  std::string break_check;
};

// Seeds of one segment. The layout (fleet hardware mix, reservation sizes,
// jobs, the health-event population) depends only on the segment index, so
// every run pools the same regions; a seeded fleet changes the model size and
// round cost several-fold from seed to seed, which no regression bound could
// absorb. --seed drives the event timing and the request stream.
struct SegmentSeeds {
  uint64_t layout;
  uint64_t stream;
};

SegmentSeeds SeedsFor(const Options& opt, int segment) {
  return SegmentSeeds{static_cast<uint64_t>(segment) + 1,
                      Fnv(Fnv(kFnvBasis, opt.seed), static_cast<uint64_t>(segment))};
}

int Segments(const Workload& wl, bool traced) { return traced ? kSegmentsTraced : wl.segments; }

int RoundsPerSegment(const Workload& wl, double seconds, bool traced) {
  const int segments = Segments(wl, traced);
  const double rate = traced ? kTracedRoundsPerSecond : wl.rounds_per_second;
  return static_cast<int>(std::clamp<long>(std::lround(seconds * rate / segments),
                                           kMinRoundsPerSegment, kMaxRoundsPerSegment));
}

// Health schedule horizon of one region: the warm-up and measured rounds of
// a nominal run of this pass kind (the traced pass measures more rounds per
// region). Fixed per workload and pass kind, so the events of hour h never
// depend on how many rounds a run measures, and every event of the
// population lands inside a nominal run's window wherever the seed places it.
int HealthHorizonHours(const Workload& wl, bool traced) {
  return kWarmupRounds + RoundsPerSegment(wl, kNominalSeconds, traced);
}

// The health schedule, drawn from the paper's HealthRates. The event
// population (kinds, servers, durations, maintenance-wave and MSB-failure
// times) is drawn with the layout seed, so every seed sees the same events:
// run-to-run differences come from when they land, not from Poisson draws of
// how many. The stream seed moves each server and rack failure to a random
// hour of the horizon.
std::vector<HealthEvent> HealthSchedule(const Workload& wl, bool traced, const Fleet& fleet,
                                       const SegmentSeeds& seeds) {
  Rng population(seeds.layout);
  const SimDuration horizon = Hours(HealthHorizonHours(wl, traced));
  std::vector<HealthEvent> events = HealthEventGenerator(&fleet.topology, HealthRates())
                                        .GenerateSchedule(SimTime{0}, horizon, population);
  Rng placement(seeds.stream);
  for (HealthEvent& e : events) {
    if (e.kind == HealthEventKind::kServerHardware ||
        e.kind == HealthEventKind::kServerSoftware || e.kind == HealthEventKind::kTorFailure) {
      e.start = SimTime{placement.UniformInt(0, horizon.seconds - 1)};
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const HealthEvent& a, const HealthEvent& b) { return a.start < b.start; });
  return events;
}

ScenarioOptions MakeScenarioOptions(const Options& opt, const SegmentSeeds& seeds,
                                    const std::string& dir) {
  ScenarioOptions so;
  so.fleet.num_datacenters = kDatacenters;
  so.fleet.msbs_per_datacenter = kMsbsPerDatacenter;
  so.fleet.racks_per_msb = opt.workload->racks_per_msb;
  so.fleet.servers_per_rack = kServersPerRack;
  so.fleet.seed = seeds.layout;
  so.solver.shard_count = opt.workload->shard_count;
  so.durable_dir = dir;
  so.seed = seeds.stream;
  return so;
}

double FleetRru(const Fleet& fleet, const std::vector<double>& rru_per_type) {
  double total = 0.0;
  for (const Server& s : fleet.topology.servers()) {
    total += rru_per_type[s.type];
  }
  return total;
}

struct Region {
  std::unique_ptr<RegionScenario> sim;
  std::unique_ptr<CheckedPersistence> persist;
  std::vector<ReservationId> services;
  std::vector<double> base_capacity;
  std::vector<ReservationId> extras;  // requests: job-less reservations.
  Rng request_rng{1};
  int extra_serial = 0;
  int round = 0;
  double last_cost = 0.0;  // Quality of the last non-skipped round.
  double last_bound = 0.0;
  size_t health_events = 0;  // In the region's schedule.
};

// Journaled capacity requests before a `requests` round. Returns the number
// of mutations attempted; failures are added to `*failed`.
int64_t ApplyRequests(Region& region, int64_t* failed) {
  RegionScenario& sim = *region.sim;
  int64_t attempted = 0;
  for (int i = 0; i < kResizesPerRound; ++i) {
    size_t which = static_cast<size_t>(
        region.request_rng.UniformInt(0, static_cast<int64_t>(region.services.size()) - 1));
    ReservationSpec spec = *sim.registry.Find(region.services[which]);
    spec.capacity_rru = region.base_capacity[which] * region.request_rng.Uniform(0.85, 1.15);
    ++attempted;
    *failed += sim.UpdateReservation(spec).ok() ? 0 : 1;
  }
  // Resizes alone are patch-eligible (RoundDelta::patchable); the admit and
  // remove change the reservation set, which no patch covers.
  if (!region.extras.empty()) {
    ++attempted;
    *failed += sim.RemoveReservation(region.extras.front()).ok() ? 0 : 1;
    region.extras.erase(region.extras.begin());
  }
  std::vector<ServiceProfile> profiles = MakePaperServiceProfiles();
  const ServiceProfile& profile = profiles[static_cast<size_t>(
      region.request_rng.UniformInt(0, static_cast<int64_t>(profiles.size()) - 1))];
  ReservationSpec spec;
  spec.name = "adhoc-" + std::to_string(region.extra_serial++);
  spec.rru_per_type = BuildRruVector(sim.fleet.catalog, profile);
  spec.capacity_rru =
      FleetRru(sim.fleet, spec.rru_per_type) * region.request_rng.Uniform(0.005, 0.015);
  ++attempted;
  Result<ReservationId> admitted = sim.AdmitReservation(std::move(spec));
  if (admitted.ok()) {
    region.extras.push_back(*admitted);
  } else {
    ++*failed;
  }
  return attempted;
}

// Set-up: region (fleet, broker, journal bootstrap checkpoint), journaled
// reservation admission, bootstrap solve, job submission. Warm-up rounds are
// run by the caller through the same step as measured rounds.
Status BuildRegion(const Options& opt, const SegmentSeeds& seeds, const std::string& dir,
                   Region* region) {
  std::filesystem::remove_all(dir);
  region->sim = std::make_unique<RegionScenario>(MakeScenarioOptions(opt, seeds, dir));
  RegionScenario& sim = *region->sim;
  if (sim.durable == nullptr || !sim.recovery.status.ok()) {
    return Status::Internal("durable bootstrap failed: " + sim.recovery.status.ToString());
  }
  region->persist =
      std::make_unique<CheckedPersistence>(sim.durable.get(), opt.break_check == "persist");
  sim.supervisor->SetTargetPersistence(region->persist.get());
  region->request_rng = Rng(seeds.stream);

  Rng sizes(seeds.layout);
  std::vector<ServiceProfile> profiles = MakePaperServiceProfiles();
  std::vector<double> weights;
  double weight_sum = 0.0;
  for (int i = 0; i < kReservations; ++i) {
    weights.push_back(sizes.Uniform(0.6, 1.4));
    weight_sum += weights.back();
  }
  for (int i = 0; i < kReservations; ++i) {
    const ServiceProfile& profile = profiles[static_cast<size_t>(i) % profiles.size()];
    ReservationSpec spec;
    spec.name = profile.name + "-" + std::to_string(i);
    spec.rru_per_type = BuildRruVector(sim.fleet.catalog, profile);
    spec.capacity_rru = kReservedShare * weights[static_cast<size_t>(i)] / weight_sum *
                        FleetRru(sim.fleet, spec.rru_per_type);
    double capacity = spec.capacity_rru;
    Result<ReservationId> id = sim.AdmitReservation(std::move(spec));
    if (!id.ok()) {
      return id.status();
    }
    region->services.push_back(*id);
    region->base_capacity.push_back(capacity);
  }

  // ArmHealth over an empty horizon wires the failure callback to the Online
  // Mover exactly as production does; the events come from HealthSchedule.
  sim.ArmHealth(SimDuration{0});
  std::vector<HealthEvent> schedule = HealthSchedule(*opt.workload, opt.trace, sim.fleet, seeds);
  region->health_events = schedule.size();
  sim.health->LoadSchedule(std::move(schedule));
  sim.health->AdvanceTo(SimTime{0});
  Result<SolveStats> bootstrap = sim.SolveRound();
  if (!bootstrap.ok()) {
    return Status::Internal("bootstrap solve failed: " + bootstrap.status().ToString());
  }
  for (size_t i = 0; i < region->services.size(); ++i) {
    double cpu = 0.0;
    for (ServerId s : sim.broker->ServersInReservation(region->services[i])) {
      cpu += CapacityOf(sim.fleet.catalog.type(sim.fleet.topology.server(s).type)).cpu;
    }
    JobSpec job;
    job.name = "job-" + std::to_string(i);
    job.reservation = region->services[i];
    job.container = kContainer;
    job.replicas = std::max(1, static_cast<int>(kJobFill * cpu / kContainer.cpu));
    Result<JobId> submitted = sim.twine->SubmitJob(job);
    if (!submitted.ok()) {
      return submitted.status();
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// One round.

// Observations of one round. wall_s is the timed window: RunRound through
// RoundBarrier. probe_s is the host probe run just before it (end-to-end
// rounds only); host_scale is its region's calibration factor, 1 elsewhere.
struct RoundSample {
  double wall_s = 0.0;
  double probe_s = 0.0;
  double host_scale = 1.0;
  LadderRung rung = LadderRung::kFullTwoPhase;
  SolveStats stats;
  std::string reuse;
  size_t moves = 0;
  size_t in_use_moves = 0;
  uint64_t targets_hash = 0;
  double cost = 0.0;
  double bound = 0.0;
};

// Per-layer sums over the traced rounds.
struct TraceAccumulator {
  std::map<std::string, SpanTotals> spans;
  double straggler_sum = 0.0;
  int straggler_rounds = 0;
  uint64_t dropped = 0;
  int64_t cold_checks = 0;
  int64_t cold_mismatches = 0;
  double health_advance_s = 0.0;
  double admit_s = 0.0;
  double reconcile_s = 0.0;
  double retry_s = 0.0;
  double barrier_s = 0.0;
  int64_t placed = 0;
  int64_t pending = 0;
  double unavailable_frac = 0.0;
  int64_t counter_delta[kNumCounters] = {};
  double histogram_delta[kNumHistograms] = {};
  MoverStats mover;
};

struct StepContext {
  const Options* opt = nullptr;
  // Measured rounds of a --trace 0 run: quality re-scoring and host probe.
  bool end_to_end = false;
  TraceAccumulator* trace = nullptr;  // Traced measured rounds.
  int64_t ops_attempted = 0;
  int64_t ops_failed = 0;
};

// One round per simulated hour, production's cadence.
SimTime AdvanceClock(Region& region) {
  SimTime t = SimTime{0} + Hours(++region.round);
  region.sim->loop.RunUntil(t);
  return t;
}

void FinishSample(const Region& region, const MoverStats& before, const SolveStats& stats,
                  RoundSample* sample) {
  const RegionScenario& sim = *region.sim;
  const RoundOutcome& record = sim.supervisor->stats().rounds.back();
  sample->rung = record.rung;
  sample->stats = stats;
  sample->reuse = MakeRoundReport(record, stats).reuse;
  sample->moves = sim.mover->stats().moves_applied - before.moves_applied;
  sample->in_use_moves = sim.mover->stats().in_use_moves - before.in_use_moves;
  sample->targets_hash = HashTargets(sim.supervisor->last_good_targets());
}

RoundSample UntracedRound(Region& region, StepContext& ctx) {
  RegionScenario& sim = *region.sim;
  SimTime t = AdvanceClock(region);
  sim.health->AdvanceTo(t);
  if (ctx.opt->workload->requests) {
    ctx.ops_attempted += ApplyRequests(region, &ctx.ops_failed);
  }
  SolveInput input;
  RoundSample sample;
  if (ctx.end_to_end) {
    input = SnapshotSolveInput(*sim.broker, sim.registry, sim.fleet.catalog);
    static HostProbe probe;
    sample.probe_s = probe.Seconds();
  }
  MoverStats before = sim.mover->stats();
  double t0 = util::MonotonicSeconds();
  Result<SolveStats> solved = sim.SolveRound();
  sample.wall_s = util::MonotonicSeconds() - t0;
  FinishSample(region, before, solved.ok() ? *solved : SolveStats(), &sample);
  if (ctx.end_to_end) {
    if (!sample.stats.solve_skipped || region.last_bound == 0.0) {
      // A skipped round saw the previous round's snapshot and kept its
      // targets, so its quality is the previous round's.
      ReferenceModel reference(input, sim.solver.config());
      region.last_cost = reference.Score(input, sim.supervisor->last_good_targets());
      region.last_bound = reference.RootBound();
    }
    sample.cost = region.last_cost;
    sample.bound = region.last_bound;
  }
  return sample;
}

// Times `fn` inside a span named `name`; returns its wall seconds.
template <typename Fn>
double Timed(const char* name, Fn&& fn) {
  obs::SpanScope span(obs::Tracer::Default(), name);
  double t0 = util::MonotonicSeconds();
  fn();
  return util::MonotonicSeconds() - t0;
}

// The same round with SolveRound's calls made one by one under bench spans.
RoundSample TracedRound(Region& region, StepContext& ctx) {
  RegionScenario& sim = *region.sim;
  obs::Tracer& tracer = obs::Tracer::Default();
  TraceAccumulator& acc = *ctx.trace;
  SimTime t = AdvanceClock(region);
  tracer.Clear();
  MoverStats mover_before = sim.mover->stats();
  CounterSnapshot counters_before = CounterSnapshot::Take();
  SolveInput input;
  SupervisedRound round;
  size_t placed = 0;
  double supervisor_s = 0.0;
  double reconcile_s = 0.0;
  double retry_s = 0.0;
  double barrier_s = 0.0;
  {
    obs::SpanScope bench_round(tracer, "bench.round");
    acc.health_advance_s += Timed("health.advance", [&] { sim.health->AdvanceTo(t); });
    if (ctx.opt->workload->requests) {
      acc.admit_s += Timed("journal.admit", [&] {
        ctx.ops_attempted += ApplyRequests(region, &ctx.ops_failed);
      });
    }
    // The cold-solver check's copy of the snapshot the supervisor is about
    // to take; its own span keeps it out of the unattributed time.
    Timed("bench.check",
          [&] { input = SnapshotSolveInput(*sim.broker, sim.registry, sim.fleet.catalog); });
    supervisor_s = Timed("supervisor.run_round", [&] { round = sim.supervisor->RunRound(); });
    reconcile_s = Timed("mover.reconcile", [&] { sim.mover->ReconcileAll(); });
    retry_s = Timed("twine.retry", [&] { placed = sim.twine->RetryPending(); });
    barrier_s = Timed("journal.barrier", [&] {
      Status barrier = sim.durable->RoundBarrier();
      if (!barrier.ok()) {
        std::fprintf(stderr, "round barrier failed: %s\n", barrier.ToString().c_str());
      }
    });
  }
  CounterSnapshot counters_after = CounterSnapshot::Take();
  RoundSample sample;
  sample.wall_s = supervisor_s + reconcile_s + retry_s + barrier_s;
  FinishSample(region, mover_before, ProducedAssignment(round.rung) ? round.stats : SolveStats(),
               &sample);

  std::vector<obs::Span> spans = tracer.Completed();
  acc.dropped += tracer.dropped();
  tracer.Clear();
  for (const auto& [name, totals] : AggregateSpans(spans)) {
    SpanTotals& into = acc.spans[name];
    into.count += totals.count;
    into.wall_s += totals.wall_s;
    into.self_s += totals.self_s;
  }
  double straggler = StragglerRatio(spans, "shard");
  if (straggler > 0.0) {
    acc.straggler_sum += straggler;
    ++acc.straggler_rounds;
  }
  for (int i = 0; i < kNumCounters; ++i) {
    acc.counter_delta[i] += counters_after.counters[i] - counters_before.counters[i];
  }
  for (int i = 0; i < kNumHistograms; ++i) {
    acc.histogram_delta[i] += counters_after.histograms[i] - counters_before.histograms[i];
  }
  const MoverStats& mover = sim.mover->stats();
  acc.mover.moves_applied += mover.moves_applied - mover_before.moves_applied;
  acc.mover.in_use_moves += mover.in_use_moves - mover_before.in_use_moves;
  acc.mover.containers_preempted += mover.containers_preempted - mover_before.containers_preempted;
  acc.mover.failures_replaced += mover.failures_replaced - mover_before.failures_replaced;
  acc.mover.replacements_missed += mover.replacements_missed - mover_before.replacements_missed;
  acc.reconcile_s += reconcile_s;
  acc.retry_s += retry_s;
  acc.barrier_s += barrier_s;
  acc.placed += static_cast<int64_t>(placed);
  acc.pending += static_cast<int64_t>(sim.twine->total_pending());
  acc.unavailable_frac += sim.UnavailableFraction(true) + sim.UnavailableFraction(false);

  // Cold-solver parity: a fresh solver with incremental re-solve off, on the
  // same snapshot, must reproduce the applied targets. Tracing and metrics
  // are paused so the check leaves no trace in the per-layer numbers.
  if (ProducedAssignment(round.rung)) {
    tracer.set_enabled(false);
    obs::MetricRegistry::Default().set_enabled(false);
    SolverConfig cold_config = sim.solver.config();
    cold_config.incremental_resolve = false;
    if (ctx.opt->break_check == "cold" && !input.reservations.empty()) {
      input.reservations.front().capacity_rru *= 2.0;
    }
    AsyncSolver cold(cold_config);
    DecodedAssignment decoded;
    Result<SolveStats> cold_stats = cold.SolveSnapshot(input, &decoded);
    ++acc.cold_checks;
    if (!cold_stats.ok() || decoded.targets != sim.supervisor->last_good_targets()) {
      ++acc.cold_mismatches;
    }
    obs::MetricRegistry::Default().set_enabled(true);
    tracer.set_enabled(true);
  }
  return sample;
}

// ---------------------------------------------------------------------------
// A pass: every segment's region, set up, warmed up and measured.

struct PassResult {
  std::vector<RoundSample> rounds;
  std::vector<double> setup_s;     // One per segment.
  std::vector<double> host_scale;  // One per segment.
  std::vector<double> recover_s;   // One per segment.
  int64_t ops_attempted = 0;
  int64_t ops_failed = 0;
  uint64_t fingerprint = kFnvBasis;  // Round targets, then each final state.
  bool recovery_ok = true;
  int64_t persist_mismatches = 0;
  int64_t persists = 0;
  int64_t batch_servers = 0;
  double persist_s = 0.0;
  int64_t health_events = 0;  // Summed over the regions' schedules.
};

Status RunSegment(const Options& opt, int segment, int rounds, TraceAccumulator* trace,
                  PassResult* out) {
  const SegmentSeeds seeds = SeedsFor(opt, segment);
  const std::string dir =
      opt.state_dir + "/" + opt.workload->name + "-" + std::to_string(segment);
  obs::Tracer::Default().set_enabled(false);
  Region region;
  double t0 = util::MonotonicSeconds();
  Status built = BuildRegion(opt, seeds, dir, &region);
  if (!built.ok()) {
    return built;
  }
  StepContext warm;
  warm.opt = &opt;
  for (int w = 0; w < kWarmupRounds; ++w) {
    UntracedRound(region, warm);
  }
  out->setup_s.push_back(util::MonotonicSeconds() - t0);

  StepContext ctx;
  ctx.opt = &opt;
  ctx.trace = trace;
  // Quality and calibrated times are end-to-end metrics: a traced run's
  // untraced pass skips them.
  ctx.end_to_end = trace == nullptr && !opt.trace;
  const size_t first_round = out->rounds.size();
  CheckedPersistence& persist = *region.persist;
  persist.seconds = 0.0;
  persist.persists = 0;
  persist.batch_servers = 0;
  if (trace != nullptr) {
    obs::Tracer::Default().Clear();
    obs::Tracer::Default().set_enabled(true);
  }
  for (int r = 0; r < rounds; ++r) {
    RoundSample sample = trace != nullptr ? TracedRound(region, ctx) : UntracedRound(region, ctx);
    ++ctx.ops_attempted;
    if (sample.rung != LadderRung::kFullTwoPhase) {
      ++ctx.ops_failed;
    }
    out->fingerprint = Fnv(out->fingerprint, sample.targets_hash);
    out->rounds.push_back(std::move(sample));
  }
  obs::Tracer::Default().set_enabled(false);
  double host_scale = 1.0;
  if (ctx.end_to_end) {
    std::vector<double> probes;
    for (size_t i = first_round; i < out->rounds.size(); ++i) {
      probes.push_back(out->rounds[i].probe_s);
    }
    host_scale = kProbeReferenceSeconds / Percentile(probes, 50);
    for (size_t i = first_round; i < out->rounds.size(); ++i) {
      out->rounds[i].host_scale = host_scale;
    }
  }
  out->host_scale.push_back(host_scale);
  out->ops_attempted += ctx.ops_attempted;
  out->ops_failed += ctx.ops_failed;
  out->persist_mismatches += persist.mismatches;
  out->persists += persist.persists;
  out->batch_servers += persist.batch_servers;
  out->persist_s += persist.seconds;
  out->health_events += static_cast<int64_t>(region.health_events);

  RegionScenario& sim = *region.sim;
  if (opt.break_check == "recovery") {
    // --break recovery: an unjournaled registry edit the restart cannot see.
    ReservationSpec spec = *sim.registry.Find(region.services.front());
    spec.capacity_rru += 1.0;
    (void)sim.registry.Update(spec);
  }
  std::string live = SerializeRegionState(*sim.broker, sim.registry);
  out->fingerprint = Fnv(out->fingerprint, HashString(live));
  {
    // Restart over the same durable directory: the fresh scenario must
    // recover digest-exact to the live state.
    double r0 = util::MonotonicSeconds();
    RegionScenario recovered(MakeScenarioOptions(opt, seeds, dir));
    out->recover_s.push_back(util::MonotonicSeconds() - r0);
    out->recovery_ok = out->recovery_ok && recovered.recovery.status.ok() &&
                       recovered.recovery.recovered_state &&
                       recovered.recovery.digest_verified &&
                       SerializeRegionState(*recovered.broker, recovered.registry) == live;
  }
  region = Region();
  std::filesystem::remove_all(dir);
  return Status::Ok();
}

// Untraced when `trace` is null.
Status RunPass(const Options& opt, TraceAccumulator* trace, PassResult* out) {
  const int segments = Segments(*opt.workload, opt.trace);
  const int rounds = RoundsPerSegment(*opt.workload, opt.seconds, opt.trace);
  for (int s = 0; s < segments; ++s) {
    Status status = RunSegment(opt, s, rounds, trace, out);
    if (!status.ok()) {
      return status;
    }
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Reporting.

// Highest percentile (at most p90) with at least ten rounds beyond it.
double TailPercentile(size_t n) {
  for (double p : {90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) {
      return p;
    }
  }
  return 50.0;
}

struct JsonMetrics {
  std::string body;
  bool finite = true;  // JSON has no NaN: a non-finite value fails the run.

  void Add(const std::string& name, double value, const char* unit) {
    char buf[256];
    finite = finite && std::isfinite(value);
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  body.empty() ? "" : ", ", name.c_str(), std::isfinite(value) ? value : 0.0,
                  unit);
    body += buf;
  }
};

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Sums over a pass's measured rounds.
struct Totals {
  double n = 0.0;
  double wall = 0.0;
  double mip = 0.0;
  double solver_build = 0.0;
  double ras_build = 0.0;
  double initial_state = 0.0;
  double shortfall = 0.0;
  double cost = 0.0;
  double bound = 0.0;
  double moves = 0.0;
  double in_use_moves = 0.0;
  double dual_resolves = 0.0;
  double dual_iterations = 0.0;
  double presolve_rows = 0.0;
  double model_rows = 0.0;
  double model_vars = 0.0;
  double assignment_vars = 0.0;
  double model_bytes = 0.0;
  double repair_moves = 0.0;
  double failed_shards = 0.0;
  double delta_servers = 0.0;
  int delta_rounds = 0;
  std::map<std::string, int> reuse;
  std::vector<double> walls;

  explicit Totals(const std::vector<RoundSample>& rounds) {
    n = static_cast<double>(rounds.size());
    for (const RoundSample& s : rounds) {
      const SolveStats& st = s.stats;
      wall += s.wall_s;
      walls.push_back(s.wall_s);
      mip += st.phase1.timings.mip_s + st.phase2.timings.mip_s;
      solver_build += st.phase1.timings.solver_build_s + st.phase2.timings.solver_build_s;
      ras_build += st.phase1.timings.ras_build_s + st.phase2.timings.ras_build_s;
      initial_state += st.phase1.timings.initial_state_s + st.phase2.timings.initial_state_s;
      shortfall += st.total_shortfall_rru;
      cost += s.cost;
      bound += s.bound;
      moves += static_cast<double>(s.moves);
      in_use_moves += static_cast<double>(s.in_use_moves);
      dual_resolves += static_cast<double>(st.dual_resolves);
      dual_iterations += static_cast<double>(st.dual_iterations);
      presolve_rows += static_cast<double>(st.presolve_rows_removed);
      model_rows += static_cast<double>(st.phase1.model_rows + st.phase2.model_rows);
      model_vars += static_cast<double>(st.phase1.model_variables + st.phase2.model_variables);
      assignment_vars +=
          static_cast<double>(st.phase1.assignment_variables + st.phase2.assignment_variables);
      model_bytes += static_cast<double>(st.phase1.memory_bytes + st.phase2.memory_bytes);
      repair_moves += static_cast<double>(st.repair_moves);
      failed_shards += static_cast<double>(st.failed_shards);
      if (st.delta_servers >= 0) {
        delta_servers += st.delta_servers;
        ++delta_rounds;
      }
      ++reuse[s.reuse];
    }
  }

  double ReuseFrac(const char* kind) const {
    auto it = reuse.find(kind);
    return it == reuse.end() ? 0.0 : it->second / n;
  }
};

void PrintPass(const PassResult& pass, const char* label) {
  Totals tot(pass.rounds);
  std::printf("# %s: %zu rounds;", label, pass.rounds.size());
  for (const auto& [kind, count] : tot.reuse) {
    std::printf(" %s=%d", kind.c_str(), count);
  }
  std::printf("; fingerprint=%016" PRIx64 "\n", pass.fingerprint);
}

// Times are host-calibrated (see HostProbe); the `# host` line gives the
// raw wall-clock figures beside them.
void AddEndToEnd(const PassResult& pass, JsonMetrics* m) {
  Totals tot(pass.rounds);
  double cost = tot.cost / tot.n;
  double bound = tot.bound / tot.n;
  std::vector<double> walls;
  std::vector<double> probes;
  double wall_sum = 0.0;
  for (const RoundSample& s : pass.rounds) {
    walls.push_back(s.wall_s * s.host_scale);
    wall_sum += walls.back();
    probes.push_back(s.probe_s);
  }
  std::vector<double> setups;
  for (size_t i = 0; i < pass.setup_s.size(); ++i) {
    setups.push_back(pass.setup_s[i] * pass.host_scale[i]);
  }
  const double tail = TailPercentile(pass.rounds.size());
  std::printf("# host: probe p50 %.6f s (reference %.6f s), scale %.3f-%.3f; raw setup_s %.6f, "
              "round_p50_s %.6f, round_p90_s %.6f, rounds_per_s %.4f\n",
              Percentile(probes, 50), kProbeReferenceSeconds,
              *std::min_element(pass.host_scale.begin(), pass.host_scale.end()),
              *std::max_element(pass.host_scale.begin(), pass.host_scale.end()),
              Percentile(pass.setup_s, 50), Percentile(tot.walls, 50),
              Percentile(tot.walls, tail), tot.n / tot.wall);
  m->Add("setup_s", Percentile(setups, 50), "s");
  m->Add("round_p50_s", Percentile(walls, 50), "s");
  m->Add("round_p90_s", Percentile(walls, tail), "s");
  m->Add("rounds_per_s", tot.n / wall_sum, "1/s");
  m->Add("region_cost", cost, "model_cost");
  m->Add("gap_to_bound", (cost - bound) / std::fabs(bound), "ratio");
  m->Add("moves_per_round", tot.moves / tot.n, "servers");
  m->Add("in_use_moves_per_round", tot.in_use_moves / tot.n, "servers");
  m->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(const PassResult& untraced, const PassResult& traced,
                 const TraceAccumulator& trace, JsonMetrics* m) {
  Totals tot(traced.rounds);
  const double n = tot.n;
  auto span = [&trace](const char* name) {
    auto it = trace.spans.find(name);
    return it == trace.spans.end() ? SpanTotals() : it->second;
  };
  auto counter = [&trace](CounterIndex i) { return static_cast<double>(trace.counter_delta[i]); };
  const double refactors = counter(kRefactorizations);
  const Totals untraced_tot(untraced.rounds);

  m->Add("solver.mip_s", tot.mip / n, "s");
  m->Add("solver.nodes", counter(kMipNodes) / n, "count");
  m->Add("solver.lp_iterations", counter(kSimplexIterations) / n, "count");
  m->Add("solver.refactorizations", refactors / n, "count");
  m->Add("solver.iterations_per_refactor",
         refactors > 0 ? counter(kSimplexIterations) / refactors : 0.0, "ratio");
  m->Add("solver.dual_resolves", tot.dual_resolves / n, "count");
  m->Add("solver.dual_iterations", tot.dual_iterations / n, "count");
  m->Add("solver.presolve_rows_removed", tot.presolve_rows / n, "count");
  m->Add("solver.time_limit_hits", counter(kTimeLimitHits), "count");
  // Zero on healthy runs, so per-layer rather than bounded end-to-end
  // metrics; failures also reach the result's attempted/failed fields.
  m->Add("shortfall_rru", tot.shortfall / n, "RRU");
  m->Add("failed_op_frac",
         static_cast<double>(traced.ops_failed) / static_cast<double>(traced.ops_attempted),
         "ratio");
  m->Add("core.resolve.cold_frac", tot.ReuseFrac("cold"), "ratio");
  m->Add("core.resolve.patched_frac", tot.ReuseFrac("patched"), "ratio");
  m->Add("core.resolve.basis_reused_frac", tot.ReuseFrac("patched+basis"), "ratio");
  m->Add("core.resolve.skipped_frac", tot.ReuseFrac("skipped"), "ratio");
  m->Add("core.delta_servers", tot.delta_rounds > 0 ? tot.delta_servers / tot.delta_rounds : 0.0,
         "servers");
  m->Add("core.solver_build_s", tot.solver_build / n, "s");
  m->Add("core.snapshot_s", span("attempt").self_s / n, "s");
  m->Add("core.ras_build_s", tot.ras_build / n, "s");
  m->Add("core.initial_state_s", tot.initial_state / n, "s");
  m->Add("core.solve_other_s", span("solve").self_s / n, "s");
  m->Add("core.model_rows", tot.model_rows / n, "count");
  m->Add("core.model_vars", tot.model_vars / n, "count");
  m->Add("core.assignment_vars", tot.assignment_vars / n, "count");
  m->Add("core.model_bytes", tot.model_bytes / n, "bytes");
  m->Add("shard.fanout_s", span("shard_fanout").wall_s / n, "s");
  m->Add("shard.solve_s", span("shard").wall_s / n, "s");
  m->Add("shard.straggler_ratio",
         trace.straggler_rounds > 0 ? trace.straggler_sum / trace.straggler_rounds : 0.0,
         "ratio");
  m->Add("shard.repair_moves", tot.repair_moves / n, "servers");
  m->Add("shard.failed", tot.failed_shards, "count");
  m->Add("journal.persist_s", traced.persist_s / n, "s");
  m->Add("journal.barrier_s", trace.barrier_s / n, "s");
  m->Add("journal.admit_s", trace.admit_s / n, "s");
  m->Add("journal.appends", counter(kJournalAppends) / n, "count");
  m->Add("journal.append_s", trace.histogram_delta[kAppendSeconds] / n, "s");
  m->Add("journal.compactions", counter(kCompactions), "count");
  m->Add("journal.checkpoint_s", trace.histogram_delta[kCheckpointSeconds], "s");
  m->Add("journal.batch_servers",
         traced.persists > 0 ? static_cast<double>(traced.batch_servers) / traced.persists : 0.0,
         "servers");
  m->Add("journal.recover_s", Percentile(traced.recover_s, 50), "s");
  m->Add("broker.generation_bumps", counter(kGenerationBumps) / n, "count");
  m->Add("broker.rollbacks", counter(kRollbacks), "count");
  m->Add("mover.reconcile_s", trace.reconcile_s / n, "s");
  m->Add("mover.moves", static_cast<double>(trace.mover.moves_applied) / n, "servers");
  m->Add("mover.in_use_moves", static_cast<double>(trace.mover.in_use_moves) / n, "servers");
  m->Add("mover.preempted", static_cast<double>(trace.mover.containers_preempted) / n, "count");
  m->Add("mover.failures_replaced", static_cast<double>(trace.mover.failures_replaced) / n,
         "count");
  m->Add("mover.replacements_missed", static_cast<double>(trace.mover.replacements_missed) / n,
         "count");
  m->Add("twine.retry_s", trace.retry_s / n, "s");
  m->Add("twine.placed", static_cast<double>(trace.placed) / n, "count");
  m->Add("twine.pending", static_cast<double>(trace.pending) / n, "count");
  m->Add("health.advance_s", trace.health_advance_s / n, "s");
  m->Add("health.unavailable_frac", trace.unavailable_frac / n, "ratio");
  m->Add("obs.trace_overhead", (untraced_tot.n / untraced_tot.wall) / (n / tot.wall) - 1.0,
         "ratio");
  m->Add("obs.spans_dropped", static_cast<double>(trace.dropped), "count");
  const SpanTotals bench_round = span("bench.round");
  m->Add("obs.unattributed_frac",
         bench_round.wall_s > 0 ? bench_round.self_s / bench_round.wall_s : 0.0, "ratio");

  std::printf("# span tree, per-round mean seconds (wall / self):\n");
  for (const auto& [name, t] : trace.spans) {
    std::printf("#   %-22s x%-6" PRId64 " wall=%.6f self=%.6f\n", name.c_str(), t.count,
                t.wall_s / n, t.self_s / n);
  }
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  std::string workload;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) {
      return false;
    }
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      opt->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      opt->trace = value == "1";
    } else if (key == "--state-dir") {
      opt->state_dir = value;
    } else if (key == "--break") {
      opt->break_check = value;
    } else {
      return false;
    }
  }
  for (const Workload& w : kWorkloads) {
    if (workload == w.name) {
      opt->workload = &w;
    }
  }
  return opt->workload != nullptr && opt->seconds > 0 && !opt->state_dir.empty() &&
         (opt->break_check.empty() || opt->break_check == "persist" ||
          opt->break_check == "recovery" || opt->break_check == "cold");
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: round_bench --workload steady|requests|sharded --seed N --seconds S "
                 "--trace 0|1 --state-dir DIR [--break persist|recovery|cold]\n");
    return 2;
  }
  if (std::string(RAS_BENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "round_bench: refusing to time a %s build; configure Release\n",
                 RAS_BENCH_BUILD_TYPE);
    return 2;
  }
  const Workload& wl = *opt.workload;
  const int horizon_hours = HealthHorizonHours(wl, opt.trace);
  if (kWarmupRounds + RoundsPerSegment(wl, opt.seconds, opt.trace) > horizon_hours) {
    std::fprintf(stderr,
                 "round_bench: --seconds %g runs past the fixed %d h health horizon; "
                 "use at most %g\n",
                 opt.seconds, horizon_hours, kNominalSeconds);
    return 2;
  }
  std::filesystem::create_directories(opt.state_dir);

  // The untraced pass always runs: it is the whole end-to-end run, and in a
  // traced run it is the baseline for the trace overhead and the fingerprint.
  PassResult untraced;
  PassResult traced;
  TraceAccumulator trace;
  Status status = RunPass(opt, nullptr, &untraced);
  if (status.ok() && opt.trace) {
    status = RunPass(opt, &trace, &traced);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "round_bench: %s\n", status.ToString().c_str());
    return 1;
  }

  const PassResult& reported = opt.trace ? traced : untraced;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  std::printf("# meta {\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"nproc\": %u, \"build_type\": \"%s\", \"servers\": %d, \"reservations\": %d, "
              "\"shard_count\": %d, \"fanout_threads\": %d, \"segments\": %zu, "
              "\"warmup_rounds_per_segment\": %d, \"measured_rounds\": %zu, "
              "\"round_tail_percentile\": %.0f, \"health_horizon_h\": %d, "
              "\"health_events\": %" PRId64 ", \"health_events_per_hour\": %.3f, "
              "\"trace\": %d}\n",
              wl.name, opt.seed, nproc, RAS_BENCH_BUILD_TYPE,
              kDatacenters * kMsbsPerDatacenter * wl.racks_per_msb * kServersPerRack,
              kReservations, wl.shard_count,
              wl.shard_count > 1 ? std::min<int>(wl.shard_count, static_cast<int>(nproc)) : 1,
              reported.setup_s.size(), kWarmupRounds, reported.rounds.size(),
              TailPercentile(reported.rounds.size()), horizon_hours, reported.health_events,
              static_cast<double>(reported.health_events) /
                  (static_cast<double>(reported.setup_s.size()) * horizon_hours),
              opt.trace ? 1 : 0);
  PrintPass(untraced, "untraced");

  bool correct = true;
  auto check = [&correct](bool ok, const char* what) {
    if (!ok) {
      std::printf("# CHECK FAILED: %s\n", what);
      correct = false;
    }
  };
  check(untraced.persist_mismatches == 0 && traced.persist_mismatches == 0,
        "broker targets differ from a persisted batch");
  check(untraced.recovery_ok && traced.recovery_ok,
        "restart over the durable directory did not recover the live state digest-exact");
  JsonMetrics metrics;
  if (!opt.trace) {
    AddEndToEnd(untraced, &metrics);
  } else {
    PrintPass(traced, "traced");
    check(traced.fingerprint == untraced.fingerprint,
          "traced (step-by-step) and untraced (SolveRound) fingerprints differ");
    check(trace.cold_mismatches == 0, "applied targets differ from a cold solve of the snapshot");
    check(trace.dropped == 0, "the tracer ring dropped spans");
    std::printf("# cold-solver parity: %" PRId64 "/%" PRId64 " rounds matched\n",
                trace.cold_checks - trace.cold_mismatches, trace.cold_checks);
    AddPerLayer(untraced, traced, trace, &metrics);
  }

  check(metrics.finite, "a metric is not a finite number");
  std::printf("{\"correct\": %s, \"attempted\": %" PRId64 ", \"failed\": %" PRId64
              ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", reported.ops_attempted, reported.ops_failed,
              metrics.body.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace roundbench
}  // namespace ras

int main(int argc, char** argv) { return ras::roundbench::Main(argc, argv); }
