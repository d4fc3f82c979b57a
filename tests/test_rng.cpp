// Unit tests for the deterministic RNG substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "sim/rng.h"

namespace {

using analock::sim::hash64;
using analock::sim::Rng;
using analock::sim::splitmix64;

TEST(SplitMix64, IsDeterministic) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  }
}

TEST(SplitMix64, AdvancesState) {
  std::uint64_t s = 42;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(Hash64, DistinctStringsDistinctHashes) {
  EXPECT_NE(hash64("gmin-noise"), hash64("dac-noise"));
  EXPECT_NE(hash64("a"), hash64("b"));
  EXPECT_NE(hash64(""), hash64("x"));
}

TEST(Hash64, StableAcrossCalls) {
  EXPECT_EQ(hash64("calibration"), hash64("calibration"));
}

TEST(Rng, SameSeedSameSequence) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(7);
  Rng b(8);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIsIndependentOfParentConsumption) {
  // Forking must depend only on seed material, not on how many numbers the
  // parent has drawn: chip #5's process corner is the same no matter when
  // it is instantiated.
  Rng a(99);
  const Rng child_before = a.fork("domain", 5);
  a.next_u64();
  a.next_u64();
  Rng child_after = a.fork("domain", 5);
  Rng cb = child_before;
  for (int i = 0; i < 16; ++i) EXPECT_EQ(cb.next_u64(), child_after.next_u64());
}

TEST(Rng, ForkDomainsAreIndependent) {
  Rng a(99);
  Rng f1 = a.fork("alpha");
  Rng f2 = a.fork("beta");
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (f1.next_u64() == f2.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ForkIndicesAreIndependent) {
  Rng a(99);
  Rng f1 = a.fork("chip", 1);
  Rng f2 = a.fork("chip", 2);
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Rng, UniformIsInUnitInterval) {
  Rng r(123);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(123);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(5);
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += r.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformBelowStaysBelow) {
  Rng r(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.uniform_below(10), 10u);
  }
}

TEST(Rng, UniformBelowCoversRange) {
  Rng r(17);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(r.uniform_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, GaussianMomentsMatch) {
  Rng r(31);
  const int n = 200000;
  double sum = 0;
  double sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.02);
}

TEST(Rng, GaussianWithParamsScales) {
  Rng r(31);
  const int n = 100000;
  double sum = 0;
  double sum_sq = 0;
  for (int i = 0; i < n; ++i) {
    const double g = r.gaussian(10.0, 2.0);
    sum += g;
    sum_sq += (g - 10.0) * (g - 10.0);
  }
  EXPECT_NEAR(sum / n, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(sum_sq / n), 2.0, 0.05);
}

TEST(Rng, SkipGaussiansMatchesDraws) {
  // Skipping leaves the generator where the same number of gaussian()
  // calls would, from an empty and from a full Box-Muller cache: the next
  // two deviates (one may come from the cache) and the next raw word agree.
  for (const std::uint64_t count : {0u, 1u, 2u, 3u, 7u, 16384u, 16385u}) {
    for (const bool cached : {false, true}) {
      SCOPED_TRACE(testing::Message() << "count=" << count
                                      << " cached=" << cached);
      Rng ref(41 + count);
      Rng skip(41 + count);
      if (cached) {
        (void)ref.gaussian();
        (void)skip.gaussian();
      }
      for (std::uint64_t i = 0; i < count; ++i) (void)ref.gaussian();
      skip.skip_gaussians(count);
      EXPECT_EQ(skip.gaussian(), ref.gaussian());
      EXPECT_EQ(skip.gaussian(), ref.gaussian());
      EXPECT_EQ(skip.next_u64(), ref.next_u64());
    }
  }
}

TEST(Rng, BernoulliFrequencyMatches) {
  Rng r(77);
  int count = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (r.bernoulli(0.3)) ++count;
  }
  EXPECT_NEAR(static_cast<double>(count) / n, 0.3, 0.01);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~std::uint64_t{0});
  Rng r(1);
  EXPECT_NE(r(), r());
}

}  // namespace
