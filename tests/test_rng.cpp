// Tests for the deterministic RNG: reproducibility, bounds, and the
// statistical sanity every simulation in this repo depends on.

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

namespace ncast {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a());
  a.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), first[i]);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowZeroThrows) {
  Rng rng(3);
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllValues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BelowRoughlyUniform) {
  Rng rng(5);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BetweenBadRangeThrows) {
  Rng rng(9);
  EXPECT_THROW(rng.between(2, 1), std::invalid_argument);
}

TEST(Rng, UniformInHalfOpenUnitInterval) {
  Rng rng(13);
  double sum = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-1.0));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(kDraws), 0.3, 0.02);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(23);
  double sum = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = rng.exponential(2.0);
    ASSERT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.02);
}

TEST(Rng, ExponentialBadRateThrows) {
  Rng rng(23);
  EXPECT_THROW(rng.exponential(0.0), std::invalid_argument);
  EXPECT_THROW(rng.exponential(-1.0), std::invalid_argument);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(29);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleMovesElements) {
  Rng rng(31);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  rng.shuffle(v);
  int moved = 0;
  for (int i = 0; i < 100; ++i) moved += (v[i] != i) ? 1 : 0;
  EXPECT_GT(moved, 50);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(37);
  for (int trial = 0; trial < 200; ++trial) {
    const auto s = rng.sample_without_replacement(20, 5);
    ASSERT_EQ(s.size(), 5u);
    std::set<std::uint32_t> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), 5u);
    for (auto x : s) EXPECT_LT(x, 20u);
  }
}

TEST(Rng, SampleFullPopulation) {
  Rng rng(41);
  const auto s = rng.sample_without_replacement(8, 8);
  std::set<std::uint32_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 8u);
}

TEST(Rng, SampleTooManyThrows) {
  Rng rng(41);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, SampleIntoABufferMatchesTheReturningForm) {
  // Two generators on one seed: each filled buffer holds the values the
  // returning form draws, whatever the buffer held before, and the two
  // streams stay in step.
  Rng returning(53);
  Rng filling(53);
  std::vector<std::uint32_t> buffer = {99, 98, 97, 96, 95};
  const std::pair<std::uint32_t, std::uint32_t> cases[] = {
      {10, 0}, {10, 3}, {1, 1}, {64, 3}, {8, 8}, {130, 52}, {5, 2}, {7, 0}};
  for (const auto& [population, count] : cases) {
    const auto want = returning.sample_without_replacement(population, count);
    filling.sample_without_replacement(population, count, buffer);
    EXPECT_EQ(buffer, want) << population << " choose " << count;
  }
  EXPECT_EQ(returning(), filling());
  EXPECT_THROW(filling.sample_without_replacement(3, 4, buffer),
               std::invalid_argument);
}

TEST(Rng, SampleUniformMarginals) {
  // Each element of [0,10) should appear in a 3-sample with probability 3/10.
  Rng rng(43);
  std::vector<int> counts(10, 0);
  constexpr int kTrials = 30000;
  for (int t = 0; t < kTrials; ++t) {
    for (auto x : rng.sample_without_replacement(10, 3)) ++counts[x];
  }
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(kTrials), 0.3, 0.02);
  }
}

TEST(Rng, SplitProducesDistinctStream) {
  Rng a(47);
  Rng b = a.split();
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 3);
}

}  // namespace
}  // namespace ncast
