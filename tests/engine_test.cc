/// QueryEngine basics: cascade normalization, storage-backend agreement,
/// parity between the tile and per-candidate drivers, and the
/// single-sourced options (the old ScanOptions::wedge kind/band/rotation
/// footgun is now a compile error — WedgePolicy simply has no such fields).

#include "src/search/engine.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/core/flat_dataset.h"
#include "src/datasets/synthetic.h"
#include "src/search/scan.h"

namespace rotind {
namespace {

FlatDataset MakeDb(std::size_t m, std::size_t n, std::uint64_t seed) {
  return FlatDataset::FromItems(MakeProjectilePointsDatabase(m, n, seed));
}

// --- Cascade normalization -------------------------------------------------

TEST(CascadeSpecTest, DefaultIsWedge) {
  CascadeSpec spec;
  ASSERT_EQ(spec.stages.size(), 1u);
  EXPECT_EQ(spec.stages[0], StageKind::kWedge);
}

TEST(CascadeSpecTest, FftFilterDroppedForNonEuclidean) {
  CascadeSpec spec;
  spec.stages = {StageKind::kFftMagnitude, StageKind::kExactScan};
  const CascadeSpec ed = spec.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(ed.stages.size(), 2u);
  EXPECT_EQ(ed.stages[0], StageKind::kFftMagnitude);
  const CascadeSpec dtw = spec.Normalized(DistanceKind::kDtw);
  ASSERT_EQ(dtw.stages.size(), 1u);
  EXPECT_EQ(dtw.stages[0], StageKind::kExactScan);
}

TEST(CascadeSpecTest, StagesAfterFirstTerminalAreDropped) {
  CascadeSpec spec;
  spec.stages = {StageKind::kWedge, StageKind::kExactScan,
                 StageKind::kFullScan};
  const CascadeSpec norm = spec.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(norm.stages.size(), 1u);
  EXPECT_EQ(norm.stages[0], StageKind::kWedge);
}

TEST(CascadeSpecTest, FilterOnlyCascadeGetsExactScanAppended) {
  CascadeSpec spec;
  spec.stages = {StageKind::kFftMagnitude};
  const CascadeSpec norm = spec.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(norm.stages.size(), 2u);
  EXPECT_EQ(norm.stages[1], StageKind::kExactScan);
}

TEST(CascadeSpecTest, EmptyCascadeGetsExactScan) {
  CascadeSpec spec;
  spec.stages = {};
  const CascadeSpec norm = spec.Normalized(DistanceKind::kDtw);
  ASSERT_EQ(norm.stages.size(), 1u);
  EXPECT_EQ(norm.stages[0], StageKind::kExactScan);
}

TEST(CascadeSpecTest, VecSignatureIsEuclideanOnly) {
  CascadeSpec spec;
  spec.stages = {StageKind::kVecSignature, StageKind::kExactScan};
  const CascadeSpec ed = spec.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(ed.stages.size(), 2u);
  EXPECT_EQ(ed.stages[0], StageKind::kVecSignature);
  // The pooled-spectrum bound only holds for RED: dropped for DTW/LCSS.
  for (const DistanceKind kind : {DistanceKind::kDtw, DistanceKind::kLcss}) {
    const CascadeSpec other = spec.Normalized(kind);
    ASSERT_EQ(other.stages.size(), 1u);
    EXPECT_EQ(other.stages[0], StageKind::kExactScan);
  }
}

TEST(CascadeSpecTest, LbImprovedSoundnessRules) {
  CascadeSpec spec;
  spec.stages = {StageKind::kLbImproved, StageKind::kExactScan};

  // Sound for Euclidean (band-0 specialization) and kept.
  const CascadeSpec ed = spec.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(ed.stages.size(), 2u);
  EXPECT_EQ(ed.stages[0], StageKind::kLbImproved);

  // Sound for banded DTW terminals.
  const CascadeSpec dtw = spec.Normalized(DistanceKind::kDtw);
  ASSERT_EQ(dtw.stages.size(), 2u);
  EXPECT_EQ(dtw.stages[0], StageKind::kLbImproved);

  // No LCSS lower bound exists: dropped.
  const CascadeSpec lcss = spec.Normalized(DistanceKind::kLcss);
  ASSERT_EQ(lcss.stages.size(), 1u);
  EXPECT_EQ(lcss.stages[0], StageKind::kExactScan);

  // A banded bound does NOT bound UNCONSTRAINED DTW: when the DTW terminal
  // is kFullScan (which ignores the band), the filter must vanish.
  CascadeSpec full;
  full.stages = {StageKind::kLbImproved, StageKind::kFullScan};
  const CascadeSpec dtw_full = full.Normalized(DistanceKind::kDtw);
  ASSERT_EQ(dtw_full.stages.size(), 1u);
  EXPECT_EQ(dtw_full.stages[0], StageKind::kFullScan);
  // ...but stays ahead of the BANDED full scan, which it does bound.
  CascadeSpec banded;
  banded.stages = {StageKind::kLbImproved, StageKind::kFullScanBanded};
  const CascadeSpec dtw_banded = banded.Normalized(DistanceKind::kDtw);
  ASSERT_EQ(dtw_banded.stages.size(), 2u);
  EXPECT_EQ(dtw_banded.stages[0], StageKind::kLbImproved);
  // Under Euclidean, kFullScan has no band to ignore: the filter stays.
  const CascadeSpec ed_full = full.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(ed_full.stages.size(), 2u);
  EXPECT_EQ(ed_full.stages[0], StageKind::kLbImproved);
}

/// The signature index is a source stage: wherever it is listed it leads
/// the cascade, and it follows kLbImproved's soundness rule (ED and banded
/// DTW only).
TEST(CascadeSpecTest, SignatureIndexLeadsAndFollowsTheBandedRule) {
  CascadeSpec spec;
  spec.stages = {StageKind::kLbImproved, StageKind::kSignatureIndex,
                 StageKind::kWedge};
  for (DistanceKind kind : {DistanceKind::kEuclidean, DistanceKind::kDtw}) {
    const CascadeSpec norm = spec.Normalized(kind);
    ASSERT_EQ(norm.stages.size(), 3u) << DistanceKindName(kind);
    EXPECT_EQ(norm.stages[0], StageKind::kSignatureIndex);
    EXPECT_EQ(norm.stages[1], StageKind::kLbImproved);
    EXPECT_EQ(norm.stages[2], StageKind::kWedge);
  }
  const CascadeSpec lcss = spec.Normalized(DistanceKind::kLcss);
  ASSERT_EQ(lcss.stages.size(), 1u);
  EXPECT_EQ(lcss.stages[0], StageKind::kWedge);

  // An index-only cascade gets the default terminal like any filter list.
  CascadeSpec alone;
  alone.stages = {StageKind::kSignatureIndex};
  const CascadeSpec ed_alone = alone.Normalized(DistanceKind::kEuclidean);
  ASSERT_EQ(ed_alone.stages.size(), 2u);
  EXPECT_EQ(ed_alone.stages[1], StageKind::kExactScan);

  CascadeSpec full;
  full.stages = {StageKind::kSignatureIndex, StageKind::kFullScan};
  const CascadeSpec dtw_full = full.Normalized(DistanceKind::kDtw);
  ASSERT_EQ(dtw_full.stages.size(), 1u);
  EXPECT_EQ(dtw_full.stages[0], StageKind::kFullScan);
  EXPECT_EQ(full.Normalized(DistanceKind::kEuclidean).stages.size(), 2u);
  CascadeSpec banded;
  banded.stages = {StageKind::kSignatureIndex, StageKind::kFullScanBanded};
  EXPECT_EQ(banded.Normalized(DistanceKind::kDtw).stages.size(), 2u);
}

TEST(CascadeSpecTest, ForAlgorithmReproducesLegacyCompositions) {
  const auto wedge =
      CascadeSpec::ForAlgorithm(ScanAlgorithm::kWedge, DistanceKind::kDtw);
  ASSERT_EQ(wedge.stages.size(), 1u);
  EXPECT_EQ(wedge.stages[0], StageKind::kWedge);

  const auto fft = CascadeSpec::ForAlgorithm(ScanAlgorithm::kFftLowerBound,
                                             DistanceKind::kEuclidean);
  ASSERT_EQ(fft.stages.size(), 2u);
  EXPECT_EQ(fft.stages[0], StageKind::kFftMagnitude);
  EXPECT_EQ(fft.stages[1], StageKind::kExactScan);

  // Under DTW the FFT bound is unsound and degrades to the plain scan —
  // the same behavior the legacy switch had.
  const auto fft_dtw = CascadeSpec::ForAlgorithm(ScanAlgorithm::kFftLowerBound,
                                                 DistanceKind::kDtw);
  ASSERT_EQ(fft_dtw.stages.size(), 1u);
  EXPECT_EQ(fft_dtw.stages[0], StageKind::kExactScan);
}

// --- Storage backends ------------------------------------------------------

TEST(QueryEngineTest, SearchFindsRotatedSelf) {
  const std::size_t n = 32;
  FlatDataset db = MakeDb(10, n, 9);
  const Series item = db.Materialize(4);
  // Query = item 4 rotated by 11 positions; exact match at that shift.
  Series query(n);
  for (std::size_t j = 0; j < n; ++j) query[j] = item[(j + 11) % n];
  const QueryEngine engine(db);
  const ScanResult hit = engine.Search(query);
  EXPECT_EQ(hit.best_index, 4);
  EXPECT_NEAR(hit.best_distance, 0.0, 1e-9);
}

TEST(QueryEngineTest, LeaveOneOutSkipsTheHoldout) {
  FlatDataset db = MakeDb(12, 48, 10);
  const QueryEngine engine(db);
  const Series query = db.Materialize(3);
  // Unrestricted search finds the query itself at distance 0...
  EXPECT_EQ(engine.Search(query).best_index, 3);
  // ...leave-one-out must find someone else.
  EXPECT_NE(engine.SearchLeaveOneOut(query, 3).best_index, 3);
}

// --- Driver parity ---------------------------------------------------------

/// Every rival algorithm through the engine: candidates fetched one at a
/// time (simulated-disk backend) and read from the FlatDataset borrow
/// (resident tiles where the cascade allows) must agree bit-for-bit, step
/// counts included.
TEST(QueryEngineTest, AdaptersMatchEngineBitForBit) {
  const std::size_t n = 64;
  const std::vector<Series> items = MakeProjectilePointsDatabase(30, n, 12);
  const FlatDataset flat = FlatDataset::FromItems(items);
  const Series query = items[0];

  for (ScanAlgorithm algorithm :
       {ScanAlgorithm::kBruteForce, ScanAlgorithm::kEarlyAbandon,
        ScanAlgorithm::kFftLowerBound, ScanAlgorithm::kWedge}) {
    ScanOptions options;
    EngineOptions fetching = EngineOptionsFrom(options, algorithm);
    fetching.storage.backend = storage::BackendKind::kSimulated;
    const ScanResult fetched = QueryEngine(flat, fetching).Search(query);
    const QueryEngine engine(flat, EngineOptionsFrom(options, algorithm));
    const ScanResult direct = engine.Search(query);
    EXPECT_EQ(fetched.best_index, direct.best_index);
    EXPECT_EQ(fetched.best_distance, direct.best_distance);
    EXPECT_EQ(fetched.counter.total_steps(), direct.counter.total_steps())
        << "algorithm " << static_cast<int>(algorithm);
  }
}

TEST(QueryEngineTest, KnnLeaveOneOutMatchesRestrictedLegacyKnn) {
  const std::size_t n = 48;
  const std::vector<Series> items = MakeProjectilePointsDatabase(25, n, 13);
  const std::size_t holdout = 6;
  std::vector<Series> rest;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != holdout) rest.push_back(items[i]);
  }
  const FlatDataset flat_rest = FlatDataset::FromItems(rest);
  const auto legacy = QueryEngine(flat_rest).Knn(items[holdout], 5);
  const FlatDataset flat = FlatDataset::FromItems(items);
  const QueryEngine engine(flat);
  const auto engine_knn = engine.KnnLeaveOneOut(items[holdout], 5, holdout);
  ASSERT_EQ(legacy.size(), engine_knn.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    // Engine indexes are in full-database space; legacy ones skipped the
    // holdout. Distances must agree exactly.
    EXPECT_EQ(legacy[i].distance, engine_knn[i].distance) << "rank " << i;
    const int mapped = legacy[i].index >= static_cast<int>(holdout)
                           ? legacy[i].index + 1
                           : legacy[i].index;
    EXPECT_EQ(mapped, engine_knn[i].index) << "rank " << i;
  }
}

// --- Validation ------------------------------------------------------------

TEST(QueryEngineTest, ValidatesQueryLengthAgainstFlatStorage) {
  FlatDataset db = MakeDb(5, 16, 20);
  const QueryEngine engine(db);
  EXPECT_TRUE(engine.ValidateQuery(Series(16, 0.5)).ok());
  EXPECT_FALSE(engine.ValidateQuery(Series(15, 0.5)).ok());
  EXPECT_FALSE(engine.ValidateQuery({}).ok());
  Series nan_query(16, 0.5);
  nan_query[3] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(engine.ValidateQuery(nan_query).ok());
}

TEST(QueryEngineTest, CheckedKnnRejectsBadK) {
  FlatDataset db = MakeDb(5, 16, 21);
  const QueryEngine engine(db);
  EXPECT_FALSE(engine.KnnChecked(Series(16, 0.5), 0).ok());
  EXPECT_TRUE(engine.KnnChecked(Series(16, 0.5), 2).ok());
}

TEST(QueryEngineTest, CheckedRangeRejectsBadRadius) {
  FlatDataset db = MakeDb(5, 16, 22);
  const QueryEngine engine(db);
  EXPECT_FALSE(engine.RangeChecked(Series(16, 0.5), -1.0).ok());
  EXPECT_FALSE(
      engine
          .RangeChecked(Series(16, 0.5),
                        std::numeric_limits<double>::quiet_NaN())
          .ok());
  EXPECT_TRUE(engine.RangeChecked(Series(16, 0.5), 1.0).ok());
}

// --- Options single-sourcing (the old footgun) -----------------------------

/// ScanOptions::wedge used to carry its own kind/band/rotation that the
/// scan silently overrode. WedgePolicy has no such fields any more, so a
/// contradiction cannot be expressed; this test documents the seam by
/// exercising a non-default policy end to end.
TEST(QueryEngineTest, WedgePolicyRidesAlongWithoutDuplicatingMeasure) {
  const std::size_t n = 64;
  const std::vector<Series> items = MakeProjectilePointsDatabase(30, n, 23);
  ScanOptions options;
  options.kind = DistanceKind::kDtw;
  options.band = 3;
  options.wedge.dynamic_k = false;
  options.wedge.fixed_k = 4;
  const EngineOptions engine_options =
      EngineOptionsFrom(options, ScanAlgorithm::kWedge);
  EXPECT_EQ(engine_options.kind, DistanceKind::kDtw);
  EXPECT_EQ(engine_options.band, 3);
  EXPECT_FALSE(engine_options.wedge.dynamic_k);

  // And the composed search still agrees with brute force.
  const FlatDataset flat = FlatDataset::FromItems(items);
  const QueryEngine engine(flat, engine_options);
  const ScanResult wedge = engine.SearchLeaveOneOut(items[2], 2);
  std::vector<Series> rest;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 2) rest.push_back(items[i]);
  }
  const FlatDataset flat_rest = FlatDataset::FromItems(rest);
  const ScanResult ref =
      QueryEngine(flat_rest,
                  EngineOptionsFrom(options, ScanAlgorithm::kBruteForceBanded))
          .Search(items[2]);
  EXPECT_DOUBLE_EQ(wedge.best_distance, ref.best_distance);
}

}  // namespace
}  // namespace rotind
