#include "src/index/candidate_scan.h"

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/distance/rotation.h"
#include "src/storage/simulated_disk.h"

namespace rotind {
namespace {

TEST(SimulatedDiskTest, CountsFetchesAndPages) {
  storage::SimulatedDisk disk(/*page_size_bytes=*/64);  // 8 doubles per page
  const int a = disk.Store(Series(8, 1.0));    // 1 page
  const int b = disk.Store(Series(20, 2.0));   // 3 pages (160 bytes)
  EXPECT_EQ(disk.num_objects(), 2u);

  disk.Fetch(a);
  EXPECT_EQ(disk.object_fetches(), 1u);
  EXPECT_EQ(disk.page_reads(), 1u);
  disk.Fetch(b);
  EXPECT_EQ(disk.object_fetches(), 2u);
  EXPECT_EQ(disk.page_reads(), 4u);
  EXPECT_DOUBLE_EQ(disk.FetchFraction(), 1.0);

  disk.ResetCounters();
  EXPECT_EQ(disk.object_fetches(), 0u);
  EXPECT_DOUBLE_EQ(disk.FetchFraction(), 0.0);
}

// Regression: PagesSpanned used to be computed from the series size alone
// (ceil(bytes / page_size)), ignoring where the object starts. A series
// whose byte range straddles a page boundary reads one page more than its
// size implies, exactly as a real paged store would.
TEST(SimulatedDiskTest, PagesSpannedIsOffsetAware) {
  storage::SimulatedDisk disk(/*page_size_bytes=*/4096);
  // 300 doubles = 2400 bytes. Object 0 occupies [0, 2400): page 0 only.
  // Object 1 occupies [2400, 4800): straddles pages 0 and 1 — two pages,
  // where the size-alone formula says ceil(2400/4096) = 1.
  const int first = disk.Store(Series(300, 1.0));
  const int second = disk.Store(Series(300, 2.0));
  EXPECT_EQ(disk.PagesSpanned(first), 1u);
  EXPECT_EQ(disk.PagesSpanned(second), 2u);

  disk.Fetch(second);
  EXPECT_EQ(disk.page_reads(), 2u);
  EXPECT_EQ(disk.object_fetches(), 1u);
}

TEST(SimulatedDiskTest, PeekDoesNotCount) {
  storage::SimulatedDisk disk;
  disk.Store(Series(4, 1.0));
  EXPECT_EQ(disk.Peek(0).size(), 4u);
  EXPECT_EQ(disk.object_fetches(), 0u);
}

// Regression: invalid ids used to be straight UB in release builds (the
// bounds assert compiles out). They must now be rejected (TryFetch/TryPeek)
// or degrade to a shared empty series (Fetch/Peek), with nothing counted.
TEST(SimulatedDiskTest, InvalidIdsAreRejectedNotUndefined) {
  storage::SimulatedDisk disk;
  disk.Store(Series(4, 1.0));
  EXPECT_TRUE(disk.Contains(0));
  EXPECT_FALSE(disk.Contains(-1));
  EXPECT_FALSE(disk.Contains(1));

  EXPECT_EQ(disk.TryFetch(-1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk.TryFetch(1).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(disk.TryPeek(99).status().code(), StatusCode::kOutOfRange);

  EXPECT_TRUE(disk.Fetch(-1).empty());
  EXPECT_TRUE(disk.Peek(1).empty());
  EXPECT_EQ(disk.object_fetches(), 0u);
  EXPECT_EQ(disk.page_reads(), 0u);

  EXPECT_EQ(disk.Fetch(0).size(), 4u);
  EXPECT_EQ(disk.object_fetches(), 1u);
}

class IndexExactnessTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IndexExactnessTest, EuclideanIndexMatchesBruteForce) {
  const std::size_t dims = GetParam();
  const std::size_t n = 64;
  const std::vector<Series> db = MakeProjectilePointsDatabase(80, n, 123);
  RotationInvariantIndex::Options opts;
  opts.dims = dims;
  opts.kind = DistanceKind::kEuclidean;
  RotationInvariantIndex index(db, opts);

  Rng rng(dims);
  for (int trial = 0; trial < 5; ++trial) {
    // Queries: noisy rotations of database members.
    Series q = RotateLeft(db[rng.NextBounded(db.size())],
                          static_cast<long>(rng.NextBounded(n)));
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    ZNormalize(&q);

    const RotationInvariantIndex::Result r = index.NearestNeighbor(q);

    double best = std::numeric_limits<double>::infinity();
    int expected = -1;
    for (std::size_t i = 0; i < db.size(); ++i) {
      const double d = RotationInvariantEuclidean(q, db[i]);
      if (d < best) {
        best = d;
        expected = static_cast<int>(i);
      }
    }
    EXPECT_EQ(r.best_index, expected) << "dims=" << dims;
    EXPECT_NEAR(r.best_distance, best, 1e-9);
    EXPECT_LE(r.fetch_fraction, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, IndexExactnessTest,
                         ::testing::Values(4, 8, 16, 32));

TEST(IndexExactnessTest, DtwIndexMatchesBruteForce) {
  const std::size_t n = 48;
  const int band = 3;
  const std::vector<Series> db = MakeProjectilePointsDatabase(50, n, 321);
  RotationInvariantIndex::Options opts;
  opts.dims = 8;
  opts.kind = DistanceKind::kDtw;
  opts.band = band;
  RotationInvariantIndex index(db, opts);

  Rng rng(55);
  for (int trial = 0; trial < 4; ++trial) {
    Series q = RotateLeft(db[rng.NextBounded(db.size())],
                          static_cast<long>(rng.NextBounded(n)));
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    ZNormalize(&q);

    const RotationInvariantIndex::Result r = index.NearestNeighbor(q);

    double best = std::numeric_limits<double>::infinity();
    int expected = -1;
    for (std::size_t i = 0; i < db.size(); ++i) {
      const double d = RotationInvariantDtw(q, db[i], band);
      if (d < best) {
        best = d;
        expected = static_cast<int>(i);
      }
    }
    EXPECT_EQ(r.best_index, expected);
    EXPECT_NEAR(r.best_distance, best, 1e-9);
  }
}

TEST(IndexTest, HigherDimsFetchLess) {
  // Figure 24's qualitative shape: fraction retrieved decreases with D.
  const std::size_t n = 64;
  const std::vector<Series> db = MakeProjectilePointsDatabase(300, n, 9);
  Rng rng(10);
  Series q = RotateLeft(db[17], 23);
  for (double& v : q) v += rng.Gaussian(0.0, 0.03);
  ZNormalize(&q);

  double prev_fraction = 1.1;
  int non_improvements = 0;
  for (std::size_t dims : {4u, 16u, 32u}) {
    RotationInvariantIndex::Options opts;
    opts.dims = dims;
    RotationInvariantIndex index(db, opts);
    const auto r = index.NearestNeighbor(q);
    EXPECT_EQ(r.best_index, 17);
    if (r.fetch_fraction > prev_fraction + 1e-12) ++non_improvements;
    prev_fraction = r.fetch_fraction;
  }
  // Allow one non-monotonic step (vantage-point luck), but the trend must
  // hold.
  EXPECT_LE(non_improvements, 1);
}

TEST(IndexTest, MirrorOptionSupported) {
  const std::size_t n = 40;
  std::vector<Series> db = MakeProjectilePointsDatabase(30, n, 77);
  Rng rng(20);
  Series q = Reversed(RotateLeft(db[11], 5));
  ZNormalize(&q);

  RotationInvariantIndex::Options opts;
  opts.dims = 8;
  opts.rotation.mirror = true;
  RotationInvariantIndex index(db, opts);
  const auto r = index.NearestNeighbor(q);
  EXPECT_EQ(r.best_index, 11);
  EXPECT_NEAR(r.best_distance, 0.0, 1e-9);
}

TEST(IndexTest, RepeatedQueriesResetCounters) {
  const std::vector<Series> db = MakeProjectilePointsDatabase(40, 32, 5);
  RotationInvariantIndex::Options opts;
  opts.dims = 8;
  RotationInvariantIndex index(db, opts);
  const auto r1 = index.NearestNeighbor(db[0]);
  const auto r2 = index.NearestNeighbor(db[0]);
  EXPECT_EQ(r1.object_fetches, r2.object_fetches);  // counters reset per query
}

/// Regression: the unchecked constructor silently clamps dims to the n/2
/// spectral coefficients that exist and mis-indexes on ragged databases.
/// Create() turns every such case into a hard kInvalidArgument.
TEST(IndexCreateTest, RejectsEmptyRaggedAndDegenerateDatabases) {
  RotationInvariantIndex::Options opts;
  opts.dims = 8;

  const auto empty = RotationInvariantIndex::Create({}, opts);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  std::vector<Series> ragged = MakeProjectilePointsDatabase(10, 32, 6);
  ragged[4].resize(20);
  const auto bad = RotationInvariantIndex::Create(ragged, opts);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("ragged"), std::string::npos);

  const auto tiny =
      RotationInvariantIndex::Create({Series{1.0}, Series{2.0}}, opts);
  EXPECT_FALSE(tiny.ok());
}

TEST(IndexCreateTest, RejectsDimsBeyondTheSpectralCoefficients) {
  const std::vector<Series> db = MakeProjectilePointsDatabase(10, 32, 7);
  RotationInvariantIndex::Options opts;
  opts.kind = DistanceKind::kEuclidean;
  opts.dims = 17;  // > n/2 = 16: the constructor would silently clamp
  const auto clamped = RotationInvariantIndex::Create(db, opts);
  ASSERT_FALSE(clamped.ok());
  EXPECT_EQ(clamped.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(clamped.status().message().find("clamp"), std::string::npos);

  opts.dims = 0;
  EXPECT_FALSE(RotationInvariantIndex::Create(db, opts).ok());
}

TEST(IndexCreateTest, ValidInputMatchesTheUncheckedConstructor) {
  const std::vector<Series> db = MakeProjectilePointsDatabase(30, 32, 8);
  RotationInvariantIndex::Options opts;
  opts.dims = 8;
  const auto created = RotationInvariantIndex::Create(db, opts);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  RotationInvariantIndex direct(db, opts);
  const auto want = direct.NearestNeighbor(db[3]);
  const auto got = (*created)->NearestNeighbor(db[3]);
  EXPECT_EQ(got.best_index, want.best_index);
  EXPECT_EQ(got.best_distance, want.best_distance);
  EXPECT_EQ(got.counter.total_steps(), want.counter.total_steps());
}

}  // namespace
}  // namespace rotind
