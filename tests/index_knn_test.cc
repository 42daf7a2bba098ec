/// Exact k-NN through the signature index (the engine's kSignatureIndex
/// stage over the simulated disk), validated against directly computed
/// distances.

#include <algorithm>

#include <gtest/gtest.h>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/distance/rotation.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"

namespace rotind {
namespace {

Series NoisyRotation(const Series& base, Rng* rng) {
  Series q = RotateLeft(base, static_cast<long>(rng->NextBounded(base.size())));
  for (double& v : q) v += rng->Gaussian(0.0, 0.05);
  ZNormalize(&q);
  return q;
}

EngineOptions IndexOptions(DistanceKind kind) {
  EngineOptions options;
  options.kind = kind;
  options.cascade.stages = {StageKind::kSignatureIndex, StageKind::kWedge};
  options.index_dims = 8;
  options.storage.backend = storage::BackendKind::kSimulated;
  return options;
}

class IndexKnnTest : public ::testing::TestWithParam<int> {};

TEST_P(IndexKnnTest, EuclideanKnnMatchesDirectComputation) {
  const int k = GetParam();
  const std::size_t n = 48;
  const std::vector<Series> db = MakeProjectilePointsDatabase(60, n, 31);
  const FlatDataset flat = FlatDataset::FromItems(db);
  const QueryEngine index(flat, IndexOptions(DistanceKind::kEuclidean));

  Rng rng(static_cast<std::uint64_t>(k) * 5 + 3);
  for (int trial = 0; trial < 3; ++trial) {
    const Series q = NoisyRotation(db[rng.NextBounded(db.size())], &rng);

    std::vector<std::pair<double, int>> ref;
    for (std::size_t i = 0; i < db.size(); ++i) {
      ref.emplace_back(RotationInvariantEuclidean(q, db[i]),
                       static_cast<int>(i));
    }
    std::sort(ref.begin(), ref.end());

    obs::QueryMetrics metrics;
    const auto knn = index.Knn(q, k, nullptr, &metrics);
    ASSERT_EQ(knn.size(), static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      EXPECT_NEAR(knn[static_cast<std::size_t>(i)].distance,
                  ref[static_cast<std::size_t>(i)].first, 1e-9)
          << "k=" << k << " i=" << i;
    }
    EXPECT_EQ(knn[0].index, ref[0].second);
    EXPECT_LE(metrics.index.object_fetches, db.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, IndexKnnTest, ::testing::Values(1, 3, 7));

TEST(IndexKnnTest, DtwKnnMatchesDirectComputation) {
  const std::size_t n = 40;
  const int band = 3;
  const std::vector<Series> db = MakeProjectilePointsDatabase(40, n, 32);
  const FlatDataset flat = FlatDataset::FromItems(db);
  EngineOptions options = IndexOptions(DistanceKind::kDtw);
  options.band = band;
  const QueryEngine index(flat, options);

  Rng rng(7);
  const Series q = NoisyRotation(db[13], &rng);

  std::vector<std::pair<double, int>> ref;
  for (std::size_t i = 0; i < db.size(); ++i) {
    ref.emplace_back(RotationInvariantDtw(q, db[i], band),
                     static_cast<int>(i));
  }
  std::sort(ref.begin(), ref.end());

  const auto knn = index.Knn(q, 5);
  ASSERT_EQ(knn.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_NEAR(knn[static_cast<std::size_t>(i)].distance,
                ref[static_cast<std::size_t>(i)].first, 1e-9);
  }
}

TEST(IndexKnnTest, KLargerThanDatabase) {
  const std::vector<Series> db = MakeProjectilePointsDatabase(5, 32, 33);
  const FlatDataset flat = FlatDataset::FromItems(db);
  const QueryEngine index(flat, IndexOptions(DistanceKind::kEuclidean));
  const auto knn = index.Knn(db[0], 10);
  EXPECT_EQ(knn.size(), 5u);
  EXPECT_EQ(knn[0].index, 0);  // the object itself at distance 0
}

TEST(IndexKnnTest, KnnOneMatchesNearestNeighbor) {
  const std::vector<Series> db = MakeProjectilePointsDatabase(50, 40, 34);
  const FlatDataset flat = FlatDataset::FromItems(db);
  const QueryEngine index(flat, IndexOptions(DistanceKind::kEuclidean));
  Rng rng(8);
  const Series q = NoisyRotation(db[21], &rng);
  const ScanResult nn = index.Search(q);
  const auto knn = index.Knn(q, 1);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].index, nn.best_index);
  EXPECT_NEAR(knn[0].distance, nn.best_distance, 1e-12);
}

}  // namespace
}  // namespace rotind
