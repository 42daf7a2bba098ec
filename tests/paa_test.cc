#include "src/search/paa.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/distance/dtw.h"
#include "src/distance/euclidean.h"
#include "src/envelope/lower_bound.h"

namespace rotind {
namespace {

Series RandomSeries(Rng* rng, std::size_t n) {
  Series s(n);
  for (double& v : s) v = rng->Gaussian(0.0, 1.0);
  return s;
}

TEST(PaaTest, MeansOfEqualSegments) {
  const Series s = {1.0, 3.0, 5.0, 7.0};
  const PaaPoint p = PaaTransform(s, 2);
  ASSERT_EQ(p.dims(), 2u);
  EXPECT_DOUBLE_EQ(p.values[0], 2.0);
  EXPECT_DOUBLE_EQ(p.values[1], 6.0);
}

TEST(PaaTest, FullDimsIsIdentity) {
  const Series s = {1.0, -2.0, 3.5};
  const PaaPoint p = PaaTransform(s, 3);
  EXPECT_EQ(p.values, s);
}

TEST(PaaTest, UnevenSegmentsCoverAllPoints) {
  const Series s = {1.0, 2.0, 3.0, 4.0, 5.0};  // 5 points, 2 segments
  const PaaPoint p = PaaTransform(s, 2);
  // Segments [0,2) and [2,5).
  EXPECT_DOUBLE_EQ(p.values[0], 1.5);
  EXPECT_DOUBLE_EQ(p.values[1], 4.0);
}

TEST(PaaEnvelopeTest, SegmentExtremes) {
  Envelope env;
  env.upper = {1.0, 5.0, 2.0, 3.0};
  env.lower = {-1.0, 0.0, -4.0, 1.0};
  const PaaEnvelope reduced = PaaReduceEnvelope(env, 2);
  EXPECT_DOUBLE_EQ(reduced.upper[0], 5.0);
  EXPECT_DOUBLE_EQ(reduced.upper[1], 3.0);
  EXPECT_DOUBLE_EQ(reduced.lower[0], -1.0);
  EXPECT_DOUBLE_EQ(reduced.lower[1], -4.0);
  EXPECT_EQ(reduced.segment_sizes, (std::vector<std::size_t>{2, 2}));
}

/// The chain LB_PAA <= LB_Keogh <= ED/DTW must hold for every
/// dimensionality — this is what makes the DTW index path exact.
class LbPaaChainTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LbPaaChainTest, LbPaaBelowLbKeoghBelowEuclidean) {
  const std::size_t dims = GetParam();
  Rng rng(dims * 13 + 1);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = std::max<std::size_t>(dims, 16 + rng.NextBounded(80));
    Envelope env = Envelope::FromSeries(RandomSeries(&rng, n));
    for (int m = 0; m < 4; ++m) {
      env.MergeSeries(RandomSeries(&rng, n).data(), n);
    }
    const Series c = RandomSeries(&rng, n);
    const double lb_keogh = LbKeogh(c.data(), env);
    const double lb_paa = LbPaa(PaaTransform(c, dims),
                                PaaReduceEnvelope(env, dims));
    EXPECT_LE(lb_paa, lb_keogh + 1e-9) << "n=" << n << " dims=" << dims;
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, LbPaaChainTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32));

TEST(LbPaaTest, LowerBoundsBandedDtwThroughExpandedEnvelope) {
  Rng rng(9);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 24 + rng.NextBounded(40);
    const int band = 1 + static_cast<int>(rng.NextBounded(5));
    const Series member = RandomSeries(&rng, n);
    const Envelope env =
        Envelope::FromSeries(member).ExpandedForDtw(band);
    const Series c = RandomSeries(&rng, n);
    const double dtw = DtwDistance(c.data(), member.data(), n, band);
    for (std::size_t dims : {4u, 8u, 16u}) {
      const double lb =
          LbPaa(PaaTransform(c, dims), PaaReduceEnvelope(env, dims));
      EXPECT_LE(lb, dtw + 1e-9) << "dims=" << dims << " band=" << band;
    }
  }
}

TEST(LbPaaTest, ZeroInsideEnvelope) {
  Envelope env;
  env.upper = Series(16, 1.0);
  env.lower = Series(16, -1.0);
  const Series c(16, 0.0);
  EXPECT_DOUBLE_EQ(LbPaa(PaaTransform(c, 4), PaaReduceEnvelope(env, 4)), 0.0);
}

TEST(LbPaaTest, KnownValueOutsideEnvelope) {
  Envelope env;
  env.upper = Series(8, 1.0);
  env.lower = Series(8, -1.0);
  const Series c(8, 3.0);  // 2 above the upper everywhere
  // Each of 4 segments: 2 points * (3-1)^2 = 8; total 32; sqrt = ~5.657.
  EXPECT_NEAR(LbPaa(PaaTransform(c, 4), PaaReduceEnvelope(env, 4)),
              std::sqrt(32.0), 1e-12);
}

TEST(LbPaaTest, MoreDimsNeverLoosen) {
  Rng rng(10);
  const std::size_t n = 64;
  Envelope env = Envelope::FromSeries(RandomSeries(&rng, n));
  env.MergeSeries(RandomSeries(&rng, n).data(), n);
  const Series c = RandomSeries(&rng, n);
  double prev = 0.0;
  for (std::size_t dims : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    const double lb =
        LbPaa(PaaTransform(c, dims), PaaReduceEnvelope(env, dims));
    EXPECT_GE(lb, prev - 1e-9) << "dims=" << dims;
    prev = lb;
  }
}

}  // namespace
}  // namespace rotind
