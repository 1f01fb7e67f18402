// Figure 10: setup time (RAS build + solver build + initial state) vs the
// number of assignment variables, for both phases.
//
// Paper: across Facebook's production regions, setup time grows linearly
// with assignment variables (up to ~6M vars / ~600s); this lower-bounds the
// allocation time even with MIP early-timeout, which is what motivates
// two-phase solving (a single-phase problem would be 10x larger).
//
// Uses google-benchmark: one benchmark per region scale; the per-iteration
// time is the full setup pipeline (snapshot, symmetry reduction, model
// build, and the Async Solver's initial state: greedy + polish) for both
// phases; assignment-variable counts are exported as counters. Linearity
// shows as time/vars staying flat.

#include <benchmark/benchmark.h>

#include <map>

#include "bench/sweep_common.h"

using namespace ras;
using namespace ras::bench;

namespace {

// Regions are expensive to generate; cache one per scale across iterations.
SweepRegion& CachedRegion(int scale) {
  static std::map<int, std::unique_ptr<SweepRegion>> cache;
  auto it = cache.find(scale);
  if (it == cache.end()) {
    it = cache.emplace(scale, std::make_unique<SweepRegion>(scale)).first;
  }
  return *it->second;
}

void BM_SetupPipeline(benchmark::State& state) {
  int scale = static_cast<int>(state.range(0));
  SweepRegion& region = CachedRegion(scale);
  SetupMeasurement last;
  for (auto _ : state) {
    last = MeasureSetup(region);
    benchmark::DoNotOptimize(last.phase1_vars);
  }
  state.counters["servers"] = static_cast<double>(last.servers);
  state.counters["p1_vars"] = static_cast<double>(last.phase1_vars);
  state.counters["p2_vars"] = static_cast<double>(last.phase2_vars);
  state.counters["p1_setup_ms"] = last.phase1_setup_s * 1e3;
  state.counters["p2_setup_ms"] = last.phase2_setup_s * 1e3;
  // The paper's linearity check: microseconds of setup per assignment var.
  state.counters["p1_us_per_var"] = last.phase1_setup_s * 1e6 /
                                    std::max<double>(1.0, static_cast<double>(last.phase1_vars));
}

}  // namespace

BENCHMARK(BM_SetupPipeline)->DenseRange(0, 5)->Unit(benchmark::kMillisecond)->Iterations(3);

BENCHMARK_MAIN();
