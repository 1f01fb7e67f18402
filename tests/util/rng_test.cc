#include "src/util/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

namespace ras {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

// The stream is part of every seeded result in the repository (fleets,
// request streams, the local-search polish), so its values are pinned: these
// are the generator's outputs for one seed, recorded before the hot draws
// moved inline into the header.
TEST(RngTest, StreamIsPinned) {
  Rng rng(20211026);
  EXPECT_EQ(rng.Next(), 0x4fa476cc6f42599dULL);
  EXPECT_EQ(rng.Next(), 0x726c16c401cd26afULL);
  EXPECT_EQ(rng.Next(), 0x659b7e3c4a5f6e87ULL);
  EXPECT_EQ(rng.Next(), 0x47f4d3f96a01d7e1ULL);
  EXPECT_EQ(rng.NextDouble(), 0.0077832751521077492);
  EXPECT_EQ(rng.NextDouble(), 0.94422545391421697);
  EXPECT_EQ(rng.NextDouble(), 0.42577290973813198);
  EXPECT_EQ(rng.UniformInt(-5, 1000), 961);
  EXPECT_EQ(rng.UniformInt(-5, 1000), 918);
  EXPECT_EQ(rng.UniformInt(-5, 1000), 749);
  EXPECT_EQ(rng.UniformInt(-5, 1000), 31);
  EXPECT_EQ(rng.Next(), 0x0fb735b61a3b42e5ULL);
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, UniformIntRespectsRange) {
  Rng rng(11);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(3, 9);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 9);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // All 7 values hit in 2000 draws.
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(13);
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, BernoulliRateRoughlyMatches) {
  Rng rng(17);
  int hits = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    hits += rng.Bernoulli(0.3) ? 1 : 0;
  }
  double rate = static_cast<double>(hits) / kTrials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(RngTest, NormalMomentsRoughlyMatch) {
  Rng rng(19);
  double sum = 0, sum2 = 0;
  const int kTrials = 50000;
  for (int i = 0; i < kTrials; ++i) {
    double x = rng.Normal(10.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  double mean = sum / kTrials;
  double var = sum2 / kTrials - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, ExponentialMeanRoughlyMatches) {
  Rng rng(23);
  double sum = 0;
  const int kTrials = 50000;
  for (int i = 0; i < kTrials; ++i) {
    double x = rng.Exponential(0.5);  // Mean 2.
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kTrials, 2.0, 0.1);
}

TEST(RngTest, PoissonSmallMean) {
  Rng rng(29);
  double sum = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    sum += static_cast<double>(rng.Poisson(3.0));
  }
  EXPECT_NEAR(sum / kTrials, 3.0, 0.1);
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox) {
  Rng rng(31);
  double sum = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    sum += static_cast<double>(rng.Poisson(100.0));
  }
  EXPECT_NEAR(sum / kTrials, 100.0, 1.0);
}

TEST(RngTest, PoissonZeroMean) {
  Rng rng(37);
  EXPECT_EQ(rng.Poisson(0.0), 0);
}

TEST(RngTest, LogUniformStaysInRange) {
  Rng rng(41);
  for (int i = 0; i < 5000; ++i) {
    int64_t v = rng.LogUniformInt(1, 30000);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 30000);
  }
}

TEST(RngTest, LogUniformIsHeavyTailed) {
  // A log-uniform draw over [1, 10000] lands below 100 about half the time.
  Rng rng(43);
  int below_100 = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    if (rng.LogUniformInt(1, 10000) < 100) {
      ++below_100;
    }
  }
  double rate = static_cast<double>(below_100) / kTrials;
  EXPECT_NEAR(rate, 0.5, 0.05);
}

TEST(RngTest, WeightedIndexHonorsWeights) {
  Rng rng(47);
  std::vector<double> weights = {1.0, 0.0, 3.0};
  int counts[3] = {0, 0, 0};
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    ++counts[rng.WeightedIndex(weights)];
  }
  EXPECT_EQ(counts[1], 0);  // Zero weight never selected.
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.3);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(53);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(59);
  Rng child = parent.Fork();
  // Child stream differs from the parent continuing.
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (parent.Next() == child.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace ras
