/// End-to-end tests exercising the full public pipeline the way the paper's
/// system would be used: raster shapes -> profiles -> database -> search /
/// index -> rotation-aligned matches.

#include <cmath>

#include <gtest/gtest.h>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/distance/rotation.h"
#include "src/search/engine.h"
#include "src/shape/generate.h"
#include "src/shape/profile.h"

namespace rotind {
namespace {

TEST(IntegrationTest, RasterShapeRetrievalUnderRotation) {
  // Build a database of rasterised shapes; query with a rotated bitmap of
  // one of them; every exact algorithm must retrieve it.
  const std::size_t n = 96;
  Rng rng(1);
  std::vector<Series> db;
  std::vector<Bitmap> bitmaps;
  for (int i = 0; i < 12; ++i) {
    const RadialShapeSpec spec = RandomShapeSpec(&rng, 7, 0.28, 1.2);
    bitmaps.push_back(Bitmap::FromPolygon(RadialPolygon(spec, 360), 128));
    const Series s = ShapeToSeries(bitmaps.back(), n);
    ASSERT_FALSE(s.empty());
    db.push_back(s);
  }

  const Series query = ShapeToSeries(bitmaps[5].Rotated(1.1), n);
  ASSERT_FALSE(query.empty());

  const FlatDataset flat = FlatDataset::FromItems(db);
  for (ScanAlgorithm algo :
       {ScanAlgorithm::kBruteForce, ScanAlgorithm::kEarlyAbandon,
        ScanAlgorithm::kFftLowerBound, ScanAlgorithm::kWedge}) {
    const ScanResult r =
        QueryEngine(flat, EngineOptionsFrom(ScanOptions{}, algo)).Search(query);
    EXPECT_EQ(r.best_index, 5) << "algo=" << static_cast<int>(algo);
  }
}

TEST(IntegrationTest, IndexAgreesWithScanOnRasterShapes) {
  const std::size_t n = 64;
  Rng rng(2);
  std::vector<Series> db;
  for (int i = 0; i < 25; ++i) {
    const RadialShapeSpec spec = RandomShapeSpec(&rng, 6, 0.3, 1.3);
    const Series s =
        ShapeToSeries(Bitmap::FromPolygon(RadialPolygon(spec, 300), 96), n);
    ASSERT_FALSE(s.empty());
    db.push_back(s);
  }
  const FlatDataset flat = FlatDataset::FromItems(db);
  EngineOptions indexed;
  indexed.cascade.stages = {StageKind::kSignatureIndex, StageKind::kWedge};
  indexed.index_dims = 8;
  indexed.storage.backend = storage::BackendKind::kSimulated;
  const QueryEngine index(flat, indexed);
  const QueryEngine engine(flat);

  for (int trial = 0; trial < 4; ++trial) {
    Series q = RotateLeft(db[rng.NextBounded(db.size())],
                          static_cast<long>(rng.NextBounded(n)));
    for (double& v : q) v += rng.Gaussian(0.0, 0.02);
    ZNormalize(&q);
    const auto via_index = index.Search(q);
    const auto via_scan = engine.Search(q);
    EXPECT_EQ(via_index.best_index, via_scan.best_index);
    EXPECT_NEAR(via_index.best_distance, via_scan.best_distance, 1e-9);
  }
}

TEST(IntegrationTest, RotationLimitedQueryDistinguishesSixFromNine) {
  // The paper's "6 vs 9" example: a "9" is a rotated "6". An unrestricted
  // rotation-invariant query cannot tell them apart; a rotation-limited
  // query can.
  const std::size_t n = 120;
  const Series six = ZNormalized(RadialProfile(DigitSixSpec(), n));
  const Series nine = RotateLeft(six, static_cast<long>(n / 2));  // 180 deg

  // Unlimited: the 9 looks identical to the 6.
  EXPECT_NEAR(RotationInvariantEuclidean(six, nine), 0.0, 1e-9);

  // Limited to +/- 15 degrees: the 9 no longer matches.
  RotationOptions limited;
  limited.max_shift = static_cast<int>(n * 15 / 360);
  EXPECT_GT(RotationInvariantEuclidean(six, nine, limited), 0.5);
  // ... while a slightly rotated 6 still does.
  const Series tilted_six = RotateLeft(six, 3);  // 9 degrees
  EXPECT_NEAR(RotationInvariantEuclidean(six, tilted_six, limited), 0.0,
              1e-9);
}

TEST(IntegrationTest, MirrorInvarianceMatchesEnantiomorphicSkull) {
  // Paper Section 3: "in matching skulls, the best match may simply be
  // facing the opposite direction".
  Rng rng(3);
  const std::size_t n = 100;
  const Series skull =
      ZNormalized(RadialProfile(SkullSpec(&rng, 0.25, 0.3), n));
  const Series facing_left = RotateLeft(Reversed(skull), 31);

  std::vector<Series> db;
  for (int i = 0; i < 10; ++i) {
    db.push_back(
        ZNormalized(RadialProfile(RandomShapeSpec(&rng, 8, 0.3, 1.2), n)));
  }
  db.push_back(facing_left);
  const FlatDataset flat = FlatDataset::FromItems(db);

  EngineOptions with_mirror;
  with_mirror.rotation.mirror = true;
  const ScanResult hit = QueryEngine(flat, with_mirror).Search(skull);
  EXPECT_EQ(hit.best_index, 10);
  EXPECT_NEAR(hit.best_distance, 0.0, 1e-9);
  EXPECT_TRUE(hit.best_mirrored);

  // Without mirror invariance, the reversed skull is NOT a perfect match.
  const ScanResult miss = QueryEngine(flat).Search(skull);
  EXPECT_GT(miss.best_distance, 0.1);
}

TEST(IntegrationTest, LetterBAndDAreMirrorsNotRotations) {
  // The paper's "d" vs "b" example, in profile space: a chiral shape and
  // its reversal never align under rotation alone.
  Rng rng(4);
  const std::size_t n = 80;
  const Series d_letter =
      ZNormalized(RadialProfile(ButterflySpec(&rng, 0.2), n));
  const Series b_letter = Reversed(d_letter);
  EXPECT_GT(RotationInvariantEuclidean(d_letter, b_letter), 0.3);
  RotationOptions mirror;
  mirror.mirror = true;
  EXPECT_NEAR(RotationInvariantEuclidean(d_letter, b_letter, mirror), 0.0,
              1e-9);
}

TEST(IntegrationTest, DtwPipelineHandlesWarpedRotatedShapes) {
  Rng rng(5);
  const std::size_t n = 72;
  std::vector<Series> db;
  Series target;
  for (int i = 0; i < 15; ++i) {
    const Series s =
        ZNormalized(RadialProfile(RandomShapeSpec(&rng, 6, 0.3, 1.3), n));
    db.push_back(s);
  }
  // Query: a warped, rotated, noisy copy of db[7].
  Series q = SmoothTimeWarp(db[7], &rng, 0.03);
  q = RotateLeft(q, 29);
  q = AddNoise(q, &rng, 0.03);
  ZNormalize(&q);

  const FlatDataset flat = FlatDataset::FromItems(db);
  ScanOptions options;
  options.kind = DistanceKind::kDtw;
  options.band = 4;
  const ScanResult r =
      QueryEngine(flat, EngineOptionsFrom(options, ScanAlgorithm::kWedge))
          .Search(q);
  EXPECT_EQ(r.best_index, 7);

  // And the full scan agrees.
  const ScanResult brute =
      QueryEngine(flat,
                  EngineOptionsFrom(options, ScanAlgorithm::kBruteForceBanded))
          .Search(q);
  EXPECT_EQ(brute.best_index, r.best_index);
  EXPECT_NEAR(brute.best_distance, r.best_distance, 1e-9);
}

}  // namespace
}  // namespace rotind
