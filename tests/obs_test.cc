/// Unit tests for the observability layer: histogram percentiles and
/// merges, stage/wedge/index accounting, JSON schema, registry ordering,
/// and the attribution scope helpers.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/core/status.h"
#include "src/core/step_counter.h"

namespace rotind::obs {
namespace {

TEST(ObsStageTest, StageNamesAreStable) {
  EXPECT_STREQ(StageName(StageId::kFftFilter), "fft_filter");
  EXPECT_STREQ(StageName(StageId::kWedge), "wedge");
  EXPECT_STREQ(StageName(StageId::kExactScan), "exact_scan");
  EXPECT_STREQ(StageName(StageId::kFullScanBanded), "full_scan_banded");
  EXPECT_STREQ(StageName(StageId::kSignatureFilter), "signature_filter");
  EXPECT_STREQ(StageName(StageId::kDiskFetch), "disk_fetch");
  EXPECT_STREQ(StageName(StageId::kLbImproved), "lb_improved");
  EXPECT_STREQ(StageName(StageId::kVecSignature), "vec_signature");
}

TEST(ObsStageTest, StageStatsAccumulate) {
  StageStats a;
  a.candidates_entered = 10;
  a.candidates_pruned = 7;
  a.candidates_survived = 3;
  a.steps = 100;
  a.setup_steps = 5;
  a.early_abandons = 2;
  a.used = true;
  StageStats b;
  b.candidates_entered = 1;
  b.steps = 11;
  b += a;
  EXPECT_EQ(b.candidates_entered, 11u);
  EXPECT_EQ(b.candidates_pruned, 7u);
  EXPECT_EQ(b.candidates_survived, 3u);
  EXPECT_EQ(b.steps, 111u);
  EXPECT_EQ(b.setup_steps, 5u);
  EXPECT_EQ(b.early_abandons, 2u);
  EXPECT_EQ(b.total_steps(), 116u);
  EXPECT_TRUE(b.used);
}

TEST(ObsHistogramTest, EmptyHistogramIsAllZero) {
  const LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.total_nanos(), 0u);
  EXPECT_EQ(h.min_nanos(), 0u);
  EXPECT_EQ(h.max_nanos(), 0u);
  EXPECT_EQ(h.PercentileNanos(50.0), 0u);
  EXPECT_EQ(h.PercentileNanos(99.0), 0u);
}

TEST(ObsHistogramTest, SingleSamplePercentilesClampToObservedMax) {
  LatencyHistogram h;
  h.Record(1000);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.total_nanos(), 1000u);
  EXPECT_EQ(h.min_nanos(), 1000u);
  EXPECT_EQ(h.max_nanos(), 1000u);
  // Bucket upper edge for 1000ns is 1024ns; the clamp reports the true max.
  EXPECT_EQ(h.PercentileNanos(50.0), 1000u);
  EXPECT_EQ(h.PercentileNanos(99.0), 1000u);
}

TEST(ObsHistogramTest, PercentilesAreMonotone) {
  LatencyHistogram h;
  for (std::uint64_t v :
       {10u, 20u, 100u, 500u, 1000u, 5000u, 10000u, 100000u, 1000000u}) {
    h.Record(v);
  }
  const std::uint64_t p50 = h.PercentileNanos(50.0);
  const std::uint64_t p95 = h.PercentileNanos(95.0);
  const std::uint64_t p99 = h.PercentileNanos(99.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, h.max_nanos());
  EXPECT_GE(p50, h.min_nanos());
}

TEST(ObsHistogramTest, OverflowLandsInLastBucket) {
  LatencyHistogram h;
  const std::uint64_t huge = std::uint64_t{1} << 62;  // way past 2^39 ns
  h.Record(huge);
  EXPECT_EQ(h.buckets()[LatencyHistogram::kBuckets - 1], 1u);
  EXPECT_EQ(h.max_nanos(), huge);
  EXPECT_EQ(h.PercentileNanos(99.0), huge);  // clamped to observed max
}

TEST(ObsHistogramTest, MergeIsElementwiseSum) {
  LatencyHistogram a;
  a.Record(100);
  a.Record(200);
  LatencyHistogram b;
  b.Record(50);
  b.Record(400000);
  a += b;
  EXPECT_EQ(a.count(), 4u);
  EXPECT_EQ(a.total_nanos(), 100u + 200u + 50u + 400000u);
  EXPECT_EQ(a.min_nanos(), 50u);
  EXPECT_EQ(a.max_nanos(), 400000u);
}

TEST(ObsWedgeTest, TrajectoryIsCappedButProbeCountIsNot) {
  WedgeStats w;
  for (int i = 0; i < 300; ++i) w.RecordK(i);
  EXPECT_EQ(w.adapt_probes, 300u);
  EXPECT_EQ(w.k_trajectory.size(), WedgeStats::kMaxTrajectory);
  EXPECT_EQ(w.k_trajectory.front(), 0);
}

TEST(ObsWedgeTest, MergeAppendsTrajectoryUpToCap) {
  WedgeStats a;
  a.RecordK(5);
  a.wedges_tested = 10;
  WedgeStats b;
  b.RecordK(7);
  b.wedges_pruned = 3;
  a += b;
  EXPECT_EQ(a.wedges_tested, 10u);
  EXPECT_EQ(a.wedges_pruned, 3u);
  EXPECT_EQ(a.adapt_probes, 2u);
  ASSERT_EQ(a.k_trajectory.size(), 2u);
  EXPECT_EQ(a.k_trajectory[0], 5);
  EXPECT_EQ(a.k_trajectory[1], 7);
}

TEST(ObsQueryMetricsTest, AttributedTotalSumsAllStages) {
  QueryMetrics m;
  m.stage(StageId::kFftFilter).steps = 100;
  m.stage(StageId::kFftFilter).setup_steps = 10;
  m.stage(StageId::kWedge).steps = 1000;
  m.stage(StageId::kSignatureFilter).setup_steps = 5;
  EXPECT_EQ(m.attributed_total_steps(), 1115u);
}

TEST(ObsQueryMetricsTest, MergeFoldsEveryComponent) {
  QueryMetrics a;
  a.queries = 1;
  a.stage(StageId::kWedge).steps = 10;
  a.stage(StageId::kWedge).used = true;
  a.wedge.wedges_tested = 4;
  a.index.object_fetches = 2;
  a.latency.Record(100);
  QueryMetrics b;
  b.queries = 2;
  b.stage(StageId::kWedge).steps = 20;
  b.stage(StageId::kWedge).used = true;
  b.wedge.wedges_tested = 6;
  b.index.object_fetches = 1;
  b.latency.Record(300);
  a += b;
  EXPECT_EQ(a.queries, 3u);
  EXPECT_EQ(a.stage(StageId::kWedge).steps, 30u);
  EXPECT_EQ(a.wedge.wedges_tested, 10u);
  EXPECT_EQ(a.index.object_fetches, 3u);
  EXPECT_EQ(a.latency.count(), 2u);
}

TEST(ObsQueryMetricsTest, ToJsonEmitsOnlyUsedStages) {
  QueryMetrics m;
  m.stage(StageId::kWedge).used = true;
  m.stage(StageId::kWedge).steps = 42;
  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"stage\": \"wedge\""), std::string::npos);
  EXPECT_EQ(json.find("fft_filter"), std::string::npos);
  EXPECT_EQ(json.find("signature_filter"), std::string::npos);
}

TEST(ObsQueryMetricsTest, ToJsonHasTheSchemaKeys) {
  QueryMetrics m;
  m.stage(StageId::kExactScan).used = true;
  m.latency.Record(512);
  const std::string json = m.ToJson();
  for (const char* key :
       {"queries", "attributed_total_steps", "stages", "candidates_entered",
        "candidates_pruned", "candidates_survived", "steps", "setup_steps",
        "early_abandons", "wall_nanos", "wedge", "k_trajectory", "index",
        "signature_evals", "latency", "p50_nanos", "p95_nanos", "p99_nanos"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos)
        << "missing key: " << key;
  }
}

TEST(ObsScopeTest, StageScopeAttributesCounterDeltas) {
  StageStats stats;
  StepCounter counter;
  counter.steps = 100;
  counter.setup_steps = 10;
  counter.early_abandons = 1;
  {
    const StageScope scope(&stats, &counter);
    counter.steps += 40;
    counter.setup_steps += 3;
    counter.early_abandons += 2;
  }
  EXPECT_TRUE(stats.used);
  EXPECT_EQ(stats.steps, 40u);
  EXPECT_EQ(stats.setup_steps, 3u);
  EXPECT_EQ(stats.early_abandons, 2u);
  // The counter itself was only read.
  EXPECT_EQ(counter.steps, 140u);
}

TEST(ObsScopeTest, NullStatsIsANoop) {
  StepCounter counter;
  {
    const StageScope scope(nullptr, &counter);
    counter.steps += 7;
  }
  EXPECT_EQ(counter.steps, 7u);
}

TEST(ObsScopeTest, QueryLatencyScopeRecordsOneSample) {
  QueryMetrics m;
  { const QueryLatencyScope scope(&m); }
  EXPECT_EQ(m.queries, 1u);
  EXPECT_EQ(m.latency.count(), 1u);
}

TEST(ObsRegistryTest, GetInsertsOrFindsPreservingOrder) {
  MetricsRegistry registry;
  registry.Get("beta").queries = 1;
  registry.Get("alpha").queries = 2;
  registry.Get("beta").queries += 10;
  ASSERT_EQ(registry.size(), 2u);
  EXPECT_EQ(registry.entries()[0].first, "beta");
  EXPECT_EQ(registry.entries()[0].second.queries, 11u);
  EXPECT_EQ(registry.entries()[1].first, "alpha");
  const std::string json = registry.ToJson();
  EXPECT_LT(json.find("\"beta\""), json.find("\"alpha\""));
}

TEST(ObsRegistryTest, WriteJsonFileRoundTripsAndReportsIoErrors) {
  MetricsRegistry registry;
  registry.Get("run").stage(StageId::kWedge).used = true;
  const std::string path =
      ::testing::TempDir() + "/obs_registry_roundtrip.json";
  ASSERT_TRUE(registry.WriteJsonFile(path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string text(1 << 12, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_NE(text.find("\"metrics\""), std::string::npos);
  EXPECT_NE(text.find("\"run\""), std::string::npos);

  const Status bad =
      registry.WriteJsonFile("/nonexistent-dir-rotind/metrics.json");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace rotind::obs
