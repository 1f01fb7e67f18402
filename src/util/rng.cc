#include "src/util/rng.h"

#include <cassert>
#include <cmath>

namespace ras {
namespace {

uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& lane : s_) {
    lane = SplitMix64(sm);
  }
}

double Rng::Uniform(double lo, double hi) { return lo + (hi - lo) * NextDouble(); }

bool Rng::Bernoulli(double p) { return NextDouble() < p; }

double Rng::Normal(double mean, double stddev) {
  // Box-Muller; draw u1 away from zero to keep log() finite.
  double u1;
  do {
    u1 = NextDouble();
  } while (u1 <= 1e-300);
  double u2 = NextDouble();
  double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
  return mean + stddev * z;
}

double Rng::Exponential(double rate) {
  assert(rate > 0);
  double u;
  do {
    u = NextDouble();
  } while (u <= 1e-300);
  return -std::log(u) / rate;
}

int64_t Rng::Poisson(double mean) {
  assert(mean >= 0);
  if (mean <= 0) {
    return 0;
  }
  if (mean < 30.0) {
    // Knuth's multiplication method.
    double limit = std::exp(-mean);
    double product = NextDouble();
    int64_t count = 0;
    while (product > limit) {
      ++count;
      product *= NextDouble();
    }
    return count;
  }
  // Normal approximation with continuity correction for large means.
  double draw = Normal(mean, std::sqrt(mean));
  return draw < 0 ? 0 : static_cast<int64_t>(draw + 0.5);
}

int64_t Rng::LogUniformInt(int64_t lo, int64_t hi) {
  assert(lo >= 1 && lo <= hi);
  double log_lo = std::log(static_cast<double>(lo));
  double log_hi = std::log(static_cast<double>(hi) + 1.0);
  double draw = std::exp(Uniform(log_lo, log_hi));
  int64_t value = static_cast<int64_t>(draw);
  if (value < lo) {
    value = lo;
  }
  if (value > hi) {
    value = hi;
  }
  return value;
}

std::size_t Rng::WeightedIndex(const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) {
    assert(w >= 0);
    total += w;
  }
  assert(total > 0);
  double draw = Uniform(0, total);
  double cumulative = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    cumulative += weights[i];
    if (draw < cumulative && weights[i] > 0) {
      return i;
    }
  }
  // Numerical fall-through: return the last positive-weight entry.
  for (size_t i = weights.size(); i > 0; --i) {
    if (weights[i - 1] > 0) {
      return i - 1;
    }
  }
  return 0;
}

Rng Rng::Fork() { return Rng(Next()); }

}  // namespace ras
