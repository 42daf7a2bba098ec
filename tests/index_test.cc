/// The paper's disk-aware index (Section 4.2 / 5.4, Table 7) as the engine
/// runs it: the kSignatureIndex stage in front of the wedge terminal, with
/// the series behind the simulated disk so every fetch is counted — plus
/// the simulated disk's own accounting.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/distance/rotation.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"
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

EngineOptions IndexOptions(DistanceKind kind, std::size_t dims) {
  EngineOptions options;
  options.kind = kind;
  options.cascade.stages = {StageKind::kSignatureIndex, StageKind::kWedge};
  options.index_dims = dims;
  options.storage.backend = storage::BackendKind::kSimulated;
  return options;
}

/// One indexed 1-NN query with its fetch accounting.
struct IndexedResult {
  ScanResult result;
  std::uint64_t object_fetches = 0;
  /// object_fetches / database size — Figure 24's y-axis.
  double fetch_fraction = 0.0;
};

IndexedResult IndexedSearch(const QueryEngine& engine, const Series& query) {
  obs::QueryMetrics metrics;
  IndexedResult out;
  out.result = engine.Search(query, &metrics);
  out.object_fetches = metrics.index.object_fetches;
  out.fetch_fraction = static_cast<double>(out.object_fetches) /
                       static_cast<double>(engine.database_size());
  return out;
}

class IndexExactnessTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(IndexExactnessTest, EuclideanIndexMatchesBruteForce) {
  const std::size_t dims = GetParam();
  const std::size_t n = 64;
  const std::vector<Series> db = MakeProjectilePointsDatabase(80, n, 123);
  const FlatDataset flat = FlatDataset::FromItems(db);
  const QueryEngine index(flat,
                          IndexOptions(DistanceKind::kEuclidean, dims));

  Rng rng(dims);
  for (int trial = 0; trial < 5; ++trial) {
    // Queries: noisy rotations of database members.
    Series q = RotateLeft(db[rng.NextBounded(db.size())],
                          static_cast<long>(rng.NextBounded(n)));
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    ZNormalize(&q);

    const IndexedResult r = IndexedSearch(index, q);

    double best = std::numeric_limits<double>::infinity();
    int expected = -1;
    for (std::size_t i = 0; i < db.size(); ++i) {
      const double d = RotationInvariantEuclidean(q, db[i]);
      if (d < best) {
        best = d;
        expected = static_cast<int>(i);
      }
    }
    EXPECT_EQ(r.result.best_index, expected) << "dims=" << dims;
    EXPECT_NEAR(r.result.best_distance, best, 1e-9);
    EXPECT_LT(r.fetch_fraction, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, IndexExactnessTest,
                         ::testing::Values(4, 8, 16, 32));

TEST(IndexExactnessTest, DtwIndexMatchesBruteForce) {
  const std::size_t n = 48;
  const int band = 3;
  const std::vector<Series> db = MakeProjectilePointsDatabase(50, n, 321);
  const FlatDataset flat = FlatDataset::FromItems(db);
  EngineOptions options = IndexOptions(DistanceKind::kDtw, 8);
  options.band = band;
  const QueryEngine index(flat, options);

  Rng rng(55);
  for (int trial = 0; trial < 4; ++trial) {
    Series q = RotateLeft(db[rng.NextBounded(db.size())],
                          static_cast<long>(rng.NextBounded(n)));
    for (double& v : q) v += rng.Gaussian(0.0, 0.05);
    ZNormalize(&q);

    const IndexedResult r = IndexedSearch(index, q);

    double best = std::numeric_limits<double>::infinity();
    int expected = -1;
    for (std::size_t i = 0; i < db.size(); ++i) {
      const double d = RotationInvariantDtw(q, db[i], band);
      if (d < best) {
        best = d;
        expected = static_cast<int>(i);
      }
    }
    EXPECT_EQ(r.result.best_index, expected);
    EXPECT_NEAR(r.result.best_distance, best, 1e-9);
    EXPECT_LT(r.fetch_fraction, 1.0);
  }
}

TEST(IndexTest, HigherDimsFetchLess) {
  // Figure 24's qualitative shape: fraction retrieved decreases with D.
  const std::size_t n = 64;
  const std::vector<Series> db = MakeProjectilePointsDatabase(300, n, 9);
  const FlatDataset flat = FlatDataset::FromItems(db);
  Rng rng(10);
  Series q = RotateLeft(db[17], 23);
  for (double& v : q) v += rng.Gaussian(0.0, 0.03);
  ZNormalize(&q);

  double prev_fraction = 1.1;
  int non_improvements = 0;
  for (std::size_t dims : {4u, 16u, 32u}) {
    const QueryEngine index(flat,
                            IndexOptions(DistanceKind::kEuclidean, dims));
    const IndexedResult r = IndexedSearch(index, q);
    EXPECT_EQ(r.result.best_index, 17);
    EXPECT_LT(r.fetch_fraction, 1.0);
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
  const FlatDataset flat = FlatDataset::FromItems(db);
  Series q = Reversed(RotateLeft(db[11], 5));
  ZNormalize(&q);

  EngineOptions options = IndexOptions(DistanceKind::kEuclidean, 8);
  options.rotation.mirror = true;
  const QueryEngine index(flat, options);
  const ScanResult r = index.Search(q);
  EXPECT_EQ(r.best_index, 11);
  EXPECT_NEAR(r.best_distance, 0.0, 1e-9);
  EXPECT_TRUE(r.best_mirrored);
}

TEST(IndexTest, RepeatedQueriesResetCounters) {
  const std::vector<Series> db = MakeProjectilePointsDatabase(40, 32, 5);
  const FlatDataset flat = FlatDataset::FromItems(db);
  const QueryEngine index(flat, IndexOptions(DistanceKind::kEuclidean, 8));
  const IndexedResult r1 = IndexedSearch(index, db[0]);
  const IndexedResult r2 = IndexedSearch(index, db[0]);
  EXPECT_GT(r1.object_fetches, 0u);
  EXPECT_EQ(r1.object_fetches, r2.object_fetches);  // per-query accounting
  EXPECT_EQ(r1.result.counter.total_steps(), r2.result.counter.total_steps());
}

/// Ragged and too-short databases never reach the index: FlatDataset
/// rejects ragged rows, and no index dims fit length-1 Euclidean series.
/// An empty database is valid and answers nothing.
TEST(IndexCreateTest, RejectsRaggedAndDegenerateDatabases) {
  const FlatDataset empty;
  auto opened = QueryEngine::Open(IndexOptions(DistanceKind::kEuclidean, 8),
                                  &empty);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ((*opened)->Search(Series{1.0, 2.0}).best_index, -1);

  std::vector<Series> ragged = MakeProjectilePointsDatabase(10, 32, 6);
  ragged[4].resize(20);
  const auto bad = FlatDataset::FromItemsChecked(ragged);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("item 4"), std::string::npos);

  const FlatDataset tiny = FlatDataset::FromItems({Series{1.0}, Series{2.0}});
  const auto tiny_index =
      QueryEngine::Open(IndexOptions(DistanceKind::kEuclidean, 1), &tiny);
  ASSERT_FALSE(tiny_index.ok());
  EXPECT_EQ(tiny_index.status().code(), StatusCode::kInvalidArgument);
}

TEST(IndexCreateTest, RejectsDimsBeyondTheSpectralCoefficients) {
  const FlatDataset flat =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(10, 32, 7));
  // > n/2 = 16 FFT magnitudes exist.
  const auto oversized =
      QueryEngine::Open(IndexOptions(DistanceKind::kEuclidean, 17), &flat);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(oversized.status().message().find("1..16"), std::string::npos);
  EXPECT_NE(oversized.status().message().find("FFT magnitudes"),
            std::string::npos);

  EXPECT_FALSE(
      QueryEngine::Open(IndexOptions(DistanceKind::kEuclidean, 0), &flat)
          .ok());
  EXPECT_TRUE(
      QueryEngine::Open(IndexOptions(DistanceKind::kEuclidean, 16), &flat)
          .ok());
}

/// Regression: DTW index dims were never checked, and dims > n made
/// PaaTransform average empty segments (0/0 = NaN) and sort NaN bounds.
TEST(IndexCreateTest, RejectsDtwDimsBeyondTheSeriesLength) {
  const FlatDataset flat =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(5, 16, 8));
  const auto oversized =
      QueryEngine::Open(IndexOptions(DistanceKind::kDtw, 40), &flat);
  ASSERT_FALSE(oversized.ok());
  EXPECT_EQ(oversized.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(oversized.status().message().find("1..16"), std::string::npos);
  EXPECT_NE(oversized.status().message().find("PAA segments"),
            std::string::npos);

  EXPECT_FALSE(
      QueryEngine::Open(IndexOptions(DistanceKind::kDtw, 17), &flat).ok());
  EXPECT_FALSE(
      QueryEngine::Open(IndexOptions(DistanceKind::kDtw, 0), &flat).ok());
  // Every length-n PAA width up to n itself is valid, and LCSS drops the
  // stage, so its dims are never checked.
  EXPECT_TRUE(QueryEngine::Open(IndexOptions(DistanceKind::kDtw, 16), &flat)
                  .ok());
  EXPECT_TRUE(QueryEngine::Open(IndexOptions(DistanceKind::kLcss, 40), &flat)
                  .ok());
}

#if ROTIND_CONTRACTS_ENABLED
TEST(IndexCreateDeathTest, BorrowingConstructorStatesTheDimsContract) {
  const FlatDataset flat =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(5, 16, 8));
  EXPECT_DEATH(QueryEngine(flat, IndexOptions(DistanceKind::kDtw, 40)),
               "ROTIND_CONTRACT");
}
#endif  // ROTIND_CONTRACTS_ENABLED

TEST(IndexCreateTest, ValidInputMatchesTheUncheckedConstructor) {
  const FlatDataset flat =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(30, 32, 8));
  for (DistanceKind kind : {DistanceKind::kEuclidean, DistanceKind::kDtw}) {
    const EngineOptions options = IndexOptions(kind, 8);
    const auto opened = QueryEngine::Open(options, &flat);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();

    const QueryEngine direct(flat, options);
    const Series query = flat.Materialize(3);
    const ScanResult want = direct.Search(query);
    const ScanResult got = (*opened)->Search(query);
    EXPECT_EQ(got.best_index, want.best_index);
    EXPECT_EQ(got.best_distance, want.best_distance);
    EXPECT_EQ(got.counter.total_steps(), want.counter.total_steps());
  }
}

}  // namespace
}  // namespace rotind
