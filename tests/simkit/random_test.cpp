#include "simkit/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

namespace das::sim {
namespace {

TEST(RngTest, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, NearbySeedsAreDecorrelated) {
  // SplitMix64 seeding should make consecutive seeds unrelated.
  Rng a(1000), b(1001);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(RngTest, ForkIsDeterministicPerName) {
  const Rng parent(7);
  Rng f1 = parent.fork("alpha");
  Rng f2 = parent.fork("alpha");
  Rng f3 = parent.fork("beta");
  const std::uint64_t v1 = f1.next_u64();
  EXPECT_EQ(v1, f2.next_u64());
  EXPECT_NE(v1, f3.next_u64());
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, UniformIntStaysInBounds) {
  Rng rng(42);
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntCoversWholeRange) {
  Rng rng(42);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8U);
}

TEST(RngTest, UniformIntDegenerateRange) {
  Rng rng(42);
  EXPECT_EQ(rng.uniform_int(3, 3), 3);
}

TEST(RngTest, UniformRealBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform_real(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(RngTest, DiscardEqualsThatManyDraws) {
  for (const std::uint64_t n : {0ULL, 1ULL, 2ULL, 1000ULL, 1ULL << 20}) {
    SCOPED_TRACE(n);
    Rng skipped(77), drawn(77);
    skipped.discard(n);
    for (std::uint64_t i = 0; i < n; ++i) drawn.next_u64();
    EXPECT_EQ(skipped.next_u64(), drawn.next_u64());
  }
}

TEST(RngTest, DiscardOfLongRunsMatchesDrawing) {
  // Lengths whose high bits are skipped by jumps and low bits by steps.
  for (const std::uint64_t n :
       {1023ULL, 1024ULL, 1025ULL, 4097ULL, (3ULL << 20) + 12345}) {
    SCOPED_TRACE(n);
    Rng skipped(3), drawn(3);
    skipped.discard(n);
    for (std::uint64_t i = 0; i < n; ++i) drawn.next_u64();
    EXPECT_EQ(skipped.next_u64(), drawn.next_u64());
  }
}

TEST(RngTest, DiscardsCompose) {
  // Beyond what a test can draw: skips add up, in either order.
  const std::uint64_t a = (1ULL << 40) + 999, b = (1ULL << 61) + (1ULL << 33);
  Rng ab(9), ba(9), sum(9);
  ab.discard(a);
  ab.discard(b);
  ba.discard(b);
  ba.discard(a);
  sum.discard(a + b);
  const std::uint64_t v = sum.next_u64();
  EXPECT_EQ(ab.next_u64(), v);
  EXPECT_EQ(ba.next_u64(), v);
}

TEST(RngTest, DiscardKeepsTheCachedNormalSpare) {
  Rng skipped(5), drawn(5);
  skipped.normal();
  drawn.normal();
  skipped.discard(3);
  for (int i = 0; i < 3; ++i) drawn.next_u64();
  EXPECT_EQ(skipped.normal(), drawn.normal());  // the spare
  EXPECT_EQ(skipped.normal(), drawn.normal());  // a fresh pair
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRateIsApproximate) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, NormalMomentsRoughlyStandard) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal();
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(RngTest, ScaledNormal) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(RngDeathTest, InvalidBoundsAbort) {
  Rng rng(1);
  EXPECT_DEATH(rng.uniform_int(5, 4), "DAS_REQUIRE");
  EXPECT_DEATH(rng.uniform_real(1.0, 1.0), "DAS_REQUIRE");
  EXPECT_DEATH(rng.bernoulli(1.5), "DAS_REQUIRE");
}

}  // namespace
}  // namespace das::sim
