// Deterministic pseudo-random number generation for simulations and tests.
//
// Everything in this repository that needs randomness takes an explicit `Rng`
// (or a seed) so that fleet generation, failure injection, and benchmarks are
// reproducible run-to-run.

#ifndef RAS_SRC_UTIL_RNG_H_
#define RAS_SRC_UTIL_RNG_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ras {

// xoshiro256** seeded via splitmix64. Fast, high-quality, and deterministic
// across platforms (unlike std::mt19937 + std::distributions, whose outputs
// are not specified identically everywhere).
class Rng {
 public:
  explicit Rng(uint64_t seed);

  // Uniform 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() {
    // 53 high bits -> [0, 1).
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    assert(lo <= hi);
    const uint64_t range = static_cast<uint64_t>(hi - lo) + 1;
    if (range == 0) {  // Full 64-bit range.
      return static_cast<int64_t>(Next());
    }
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = UINT64_MAX - UINT64_MAX % range;
    uint64_t draw;
    do {
      draw = Next();
    } while (draw >= limit);
    return lo + static_cast<int64_t>(draw % range);
  }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Bernoulli trial with probability p of returning true.
  bool Bernoulli(double p);

  // Standard normal via Box-Muller (no cached spare; deterministic).
  double Normal(double mean, double stddev);

  // Exponential with the given rate (mean 1/rate). Used for Poisson arrival
  // processes in the health-event simulator.
  double Exponential(double rate);

  // Poisson-distributed count with the given mean (Knuth for small means,
  // normal approximation for large ones).
  int64_t Poisson(double mean);

  // Log-uniform integer in [lo, hi]: uniform in log-space, matching the
  // heavy-tailed capacity-request sizes of the paper's Figure 4.
  int64_t LogUniformInt(int64_t lo, int64_t hi);

  // Samples an index in [0, weights.size()) proportionally to weights.
  // Zero-weight entries are never selected. Requires a positive total weight.
  std::size_t WeightedIndex(const std::vector<double>& weights);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(UniformInt(0, static_cast<int64_t>(i) - 1));
      std::swap(items[i - 1], items[j]);
    }
  }

  // Derives an independent child generator; useful to give each subsystem its
  // own stream so adding draws in one place does not perturb another.
  Rng Fork();

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
};

}  // namespace ras

#endif  // RAS_SRC_UTIL_RNG_H_
