/// Cross-algorithm equivalence property (the paper's exactness claim,
/// Propositions 1-2): every ScanAlgorithm and every engine cascade
/// composition is EXACT, so on any database they must return the same
/// best distance (and, up to ties, the same index) as brute force — for
/// 1-NN, k-NN, and range queries, under Euclidean and DTW, with and
/// without mirror invariance, on shapes and on light curves.

#include <unistd.h>

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/datasets/synthetic.h"
#include "src/index/index_io.h"
#include "src/index/sharded_index.h"
#include "src/lightcurve/lightcurve.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"
#include "src/search/scan.h"
#include "src/storage/backend.h"
#include "src/storage/manifest.h"
#include "tests/testing/counters.h"

namespace rotind {
namespace {

struct Workload {
  std::string name;
  std::vector<Series> items;
  std::vector<std::size_t> queries;
};

std::vector<Workload> MakeWorkloads() {
  std::vector<Workload> out;
  out.push_back({"shapes", MakeProjectilePointsDatabase(24, 40, 301),
                 {0, 7, 15}});
  out.push_back(
      {"lightcurves", MakeLightCurveDataset(6, 40, 302).items, {1, 9}});
  out.push_back({"heterogeneous", MakeHeterogeneousDatabase(20, 40, 303),
                 {2, 11}});
  return out;
}

/// All cascade compositions worth checking, beyond the legacy algorithm
/// set: the FFT filter in front of each terminal, including the novel
/// fft+wedge pipeline no ScanAlgorithm could express. Under DTW the
/// unbanded kFullScan computes a genuinely different (unconstrained)
/// distance, so the full-scan terminal is the banded one there.
std::vector<CascadeSpec> MakeCascades(DistanceKind kind) {
  std::vector<CascadeSpec> out;
  out.push_back({{kind == DistanceKind::kDtw ? StageKind::kFullScanBanded
                                             : StageKind::kFullScan}});
  out.push_back({{StageKind::kExactScan}});
  out.push_back({{StageKind::kWedge}});
  out.push_back({{StageKind::kFftMagnitude, StageKind::kExactScan}});
  out.push_back({{StageKind::kFftMagnitude, StageKind::kWedge}});
  // LB_Improved second-chance stage in front of each exact terminal.
  out.push_back({{StageKind::kLbImproved, StageKind::kExactScan}});
  out.push_back({{StageKind::kLbImproved, StageKind::kWedge}});
  // Vec-signature pre-filter (normalization drops it under DTW — the
  // degenerate cascades double as a check that the drop preserves
  // exactness), and the full four-stage pipeline.
  out.push_back({{StageKind::kVecSignature, StageKind::kExactScan}});
  out.push_back({{StageKind::kVecSignature, StageKind::kFftMagnitude,
                  StageKind::kLbImproved, StageKind::kExactScan}});
  if (kind == DistanceKind::kDtw) {
    out.push_back({{StageKind::kLbImproved, StageKind::kFullScanBanded}});
  }
  // The signature index (VP-tree under ED, LB_PAA order under DTW) in
  // front of every kind of terminal and of a filter.
  out.push_back({{StageKind::kSignatureIndex, StageKind::kWedge}});
  out.push_back({{StageKind::kSignatureIndex, StageKind::kExactScan}});
  out.push_back({{StageKind::kSignatureIndex, StageKind::kLbImproved,
                  StageKind::kExactScan}});
  out.push_back({{StageKind::kSignatureIndex,
                  kind == DistanceKind::kDtw ? StageKind::kFullScanBanded
                                             : StageKind::kFullScan}});
  return out;
}

/// Signature dims of every index cascade here: the RIDX files below are
/// built with the same dims, so file-backed indexes (which read the stored
/// rows) and computed ones hold the same rows.
constexpr std::size_t kIndexDims = 4;

std::string CascadeName(const CascadeSpec& spec) {
  std::string name;
  for (StageKind s : spec.stages) {
    if (!name.empty()) name += "+";
    switch (s) {
      case StageKind::kSignatureIndex: name += "index"; break;
      case StageKind::kFftMagnitude: name += "fft"; break;
      case StageKind::kVecSignature: name += "vecsig"; break;
      case StageKind::kLbImproved: name += "lbi"; break;
      case StageKind::kWedge: name += "wedge"; break;
      case StageKind::kExactScan: name += "ea"; break;
      case StageKind::kFullScan: name += "full"; break;
      case StageKind::kFullScanBanded: name += "full-banded"; break;
    }
  }
  return name;
}

bool HasStage(const CascadeSpec& spec, StageKind kind) {
  for (StageKind s : spec.stages) {
    if (s == kind) return true;
  }
  return false;
}

class EngineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<DistanceKind, bool>> {};

TEST_P(EngineEquivalenceTest, AllCompositionsAgreeWithBruteForce) {
  const DistanceKind kind = std::get<0>(GetParam());
  const bool mirror = std::get<1>(GetParam());

  for (const Workload& w : MakeWorkloads()) {
    const FlatDataset flat = FlatDataset::FromItems(w.items);

    EngineOptions reference_options;
    reference_options.kind = kind;
    reference_options.band = 4;
    reference_options.index_dims = kIndexDims;
    reference_options.rotation.mirror = mirror;
    reference_options.cascade.stages = {kind == DistanceKind::kDtw
                                            ? StageKind::kFullScanBanded
                                            : StageKind::kFullScan};
    const QueryEngine reference(flat, reference_options);

    for (std::size_t qi : w.queries) {
      const Series query = w.items[qi];
      const ScanResult ref = reference.SearchLeaveOneOut(query, qi);
      const auto ref_knn = reference.KnnLeaveOneOut(query, 3, qi);
      ASSERT_EQ(ref_knn.size(), 3u);
      const double radius = ref_knn.back().distance * 1.01;
      const auto ref_range = reference.Range(query, radius);

      for (const CascadeSpec& cascade : MakeCascades(kind)) {
        EngineOptions options = reference_options;
        options.cascade = cascade;
        const QueryEngine engine(flat, options);
        const std::string label = w.name + "/" + DistanceKindName(kind) +
                                  (mirror ? "/mirror" : "") + "/" +
                                  CascadeName(cascade) + "/q" +
                                  std::to_string(qi);

        // 1-NN: same best distance; same index unless tied.
        const ScanResult got = engine.SearchLeaveOneOut(query, qi);
        EXPECT_NEAR(got.best_distance, ref.best_distance, 1e-9) << label;
        // A different winner is only legal at (numerically) the same
        // distance — i.e. a tie; the distance assertion above covers it.

        // k-NN: same multiset of distances, rank by rank.
        const auto knn = engine.KnnLeaveOneOut(query, 3, qi);
        ASSERT_EQ(knn.size(), ref_knn.size()) << label;
        for (std::size_t r = 0; r < knn.size(); ++r) {
          EXPECT_NEAR(knn[r].distance, ref_knn[r].distance, 1e-9)
              << label << " rank " << r;
        }

        // Range: same hit count, same sorted distances.
        const auto range = engine.Range(query, radius);
        ASSERT_EQ(range.size(), ref_range.size()) << label;
        for (std::size_t r = 0; r < range.size(); ++r) {
          EXPECT_NEAR(range[r].distance, ref_range[r].distance, 1e-9)
              << label << " hit " << r;
        }
      }

      // Every legacy ScanAlgorithm, through EngineOptionsFrom, on a
      // database with the query removed.
      std::vector<Series> rest;
      for (std::size_t i = 0; i < w.items.size(); ++i) {
        if (i != qi) rest.push_back(w.items[i]);
      }
      const FlatDataset flat_rest = FlatDataset::FromItems(rest);
      std::vector<ScanAlgorithm> algorithms = {
          ScanAlgorithm::kBruteForceBanded, ScanAlgorithm::kEarlyAbandon,
          ScanAlgorithm::kFftLowerBound, ScanAlgorithm::kWedge};
      if (kind != DistanceKind::kDtw) {
        // kBruteForce under DTW is the unconstrained warp — a different
        // value than the banded reference, exact for every other kind.
        algorithms.push_back(ScanAlgorithm::kBruteForce);
      }
      for (ScanAlgorithm algorithm : algorithms) {
        ScanOptions options;
        options.kind = kind;
        options.band = 4;
        options.rotation.mirror = mirror;
        const ScanResult got =
            QueryEngine(flat_rest, EngineOptionsFrom(options, algorithm))
                .Search(query);
        EXPECT_NEAR(got.best_distance, ref.best_distance, 1e-9)
            << w.name << "/" << DistanceKindName(kind) << " algorithm "
            << static_cast<int>(algorithm);
      }
    }
  }
}

/// LCSS rides the same cascade: the wedge terminal (similarity-domain
/// pruning with the distance-threshold conversion) must agree with the
/// full rotation scan of 1 - LcssLength/n.
TEST(EngineEquivalenceLcssTest, WedgeCascadeMatchesFullScan) {
  for (bool mirror : {false, true}) {
    const std::vector<Series> items =
        MakeProjectilePointsDatabase(18, 36, 501);
    const FlatDataset flat = FlatDataset::FromItems(items);
    EngineOptions options;
    options.kind = DistanceKind::kLcss;
    options.lcss.epsilon = 0.3;
    options.lcss.delta = 4;
    options.rotation.mirror = mirror;

    EngineOptions full = options;
    full.cascade.stages = {StageKind::kFullScan};
    EngineOptions wedge = options;
    wedge.cascade.stages = {StageKind::kWedge};
    EngineOptions ea = options;
    ea.cascade.stages = {StageKind::kExactScan};

    const QueryEngine full_engine(flat, full);
    const QueryEngine wedge_engine(flat, wedge);
    const QueryEngine ea_engine(flat, ea);
    for (std::size_t qi : {0u, 5u, 11u}) {
      const Series& query = items[qi];
      const ScanResult ref = full_engine.SearchLeaveOneOut(query, qi);
      const ScanResult got_wedge = wedge_engine.SearchLeaveOneOut(query, qi);
      const ScanResult got_ea = ea_engine.SearchLeaveOneOut(query, qi);
      EXPECT_NEAR(got_wedge.best_distance, ref.best_distance, 1e-12)
          << "wedge q" << qi << (mirror ? " mirror" : "");
      EXPECT_NEAR(got_ea.best_distance, ref.best_distance, 1e-12)
          << "ea q" << qi << (mirror ? " mirror" : "");
    }
  }
}

/// Storage backends are invisible to exactness: for every cascade and
/// measure, engines fetching candidates from the simulated-disk backend
/// and from a real paged RIDX file return BIT-IDENTICAL results (same
/// indexes, same distances with ==, same step counts) as the default
/// in-memory borrow — for 1-NN, k-NN, and range queries. This is the
/// acceptance gate for the storage engine: a backend may change I/O
/// accounting, never answers.
class BackendEquivalenceTest
    : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(BackendEquivalenceTest, AllBackendsReturnBitIdenticalResults) {
  const DistanceKind kind = GetParam();
  const std::vector<Series> items =
      MakeProjectilePointsDatabase(20, 36, 601);
  const FlatDataset flat = FlatDataset::FromItems(items);

  Dataset ds;
  ds.items = items;
  IndexBuildOptions build;
  build.sig_dims = kIndexDims;
  build.paa_dims = kIndexDims;
  build.page_size_bytes = 128;  // 36 doubles = 288 bytes: extents straddle
  const std::string path = "/tmp/rotind_equiv_test." +
                           std::to_string(::getpid()) + ".ridx";
  ASSERT_TRUE(BuildIndexFile(ds, build, path).ok());

  for (const CascadeSpec& cascade : MakeCascades(kind)) {
    EngineOptions options;
    options.kind = kind;
    options.band = 4;
    options.index_dims = kIndexDims;
    options.cascade = cascade;

    const QueryEngine memory(flat, options);

    EngineOptions sim_options = options;
    sim_options.storage.backend = storage::BackendKind::kSimulated;
    sim_options.storage.page_size_bytes = 128;
    auto simulated = QueryEngine::Open(sim_options, &flat);
    ASSERT_TRUE(simulated.ok()) << simulated.status().message();

    EngineOptions file_options = options;
    file_options.storage.backend = storage::BackendKind::kFile;
    file_options.storage.index_path = path;
    file_options.storage.pool_pages = 3;  // smaller than any working set
    auto file = QueryEngine::Open(file_options);
    ASSERT_TRUE(file.ok()) << file.status().message();

    const QueryEngine* engines[] = {simulated->get(), file->get()};
    for (const std::size_t qi : {0u, 9u, 17u}) {
      const Series& query = items[qi];
      const ScanResult ref = memory.SearchLeaveOneOut(query, qi);
      const auto ref_knn = memory.KnnLeaveOneOut(query, 3, qi);
      const double radius = ref_knn.back().distance * 1.01;
      const auto ref_range = memory.Range(query, radius);

      for (const QueryEngine* engine : engines) {
        const std::string label =
            std::string(DistanceKindName(kind)) + "/" +
            CascadeName(cascade) + "/" + engine->backend()->name() + "/q" +
            std::to_string(qi);

        const ScanResult got = engine->SearchLeaveOneOut(query, qi);
        EXPECT_EQ(got.best_index, ref.best_index) << label;
        EXPECT_EQ(got.best_distance, ref.best_distance) << label;
        // The vec-signature filter reads stored RIDX v2 rows on the file
        // backend (charged dims steps per candidate) but memoizes its own
        // embeddings elsewhere (charged one FFT per candidate): answers are
        // bit-identical — the stored rows hold the very doubles the
        // embedding computes — but step ACCOUNTING legitimately differs,
        // so only that assert is gated.
        const bool steps_comparable =
            !HasStage(cascade, StageKind::kVecSignature);
        if (steps_comparable) {
          EXPECT_EQ(got.counter.total_steps(), ref.counter.total_steps())
              << label;
        }

        const auto knn = engine->KnnLeaveOneOut(query, 3, qi);
        ASSERT_EQ(knn.size(), ref_knn.size()) << label;
        for (std::size_t r = 0; r < knn.size(); ++r) {
          EXPECT_EQ(knn[r].index, ref_knn[r].index) << label << " rank " << r;
          EXPECT_EQ(knn[r].distance, ref_knn[r].distance)
              << label << " rank " << r;
        }

        const auto range = engine->Range(query, radius);
        ASSERT_EQ(range.size(), ref_range.size()) << label;
        for (std::size_t r = 0; r < range.size(); ++r) {
          EXPECT_EQ(range[r].index, ref_range[r].index)
              << label << " hit " << r;
          EXPECT_EQ(range[r].distance, ref_range[r].distance)
              << label << " hit " << r;
        }
      }
    }
  }
  std::remove(path.c_str());
}

/// The signature index only reorders and cuts the visit: over every
/// backend, with and without a held-out query, each index cascade returns
/// BIT-IDENTICAL answers (same indexes, same distances with ==) to the
/// same cascade without the index, for 1-NN, k-NN, and range queries, and
/// it never visits more candidates than the plain scan.
class IndexStageEquivalenceTest
    : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(IndexStageEquivalenceTest, IndexMatchesPlainCascadeBitForBit) {
  const DistanceKind kind = GetParam();
  const std::vector<Series> items = MakeProjectilePointsDatabase(26, 36, 801);
  const FlatDataset flat = FlatDataset::FromItems(items);
  Dataset ds;
  ds.items = items;
  IndexBuildOptions build;
  build.sig_dims = kIndexDims;
  build.paa_dims = kIndexDims;
  build.page_size_bytes = 128;
  const std::string path = "/tmp/rotind_index_equiv_test." +
                           std::to_string(::getpid()) + "." +
                           DistanceKindName(kind) + ".ridx";
  ASSERT_TRUE(BuildIndexFile(ds, build, path).ok());

  const StageKind full = kind == DistanceKind::kDtw
                             ? StageKind::kFullScanBanded
                             : StageKind::kFullScan;
  for (const StageKind terminal :
       {StageKind::kWedge, StageKind::kExactScan, full}) {
    EngineOptions plain_options;
    plain_options.kind = kind;
    plain_options.band = 4;
    plain_options.index_dims = kIndexDims;
    plain_options.cascade.stages = {terminal};
    const QueryEngine plain(flat, plain_options);

    EngineOptions options = plain_options;
    options.cascade.stages = {StageKind::kSignatureIndex, terminal};
    const QueryEngine memory(flat, options);
    EngineOptions sim_options = options;
    sim_options.storage.backend = storage::BackendKind::kSimulated;
    auto simulated = QueryEngine::Open(sim_options, &flat);
    ASSERT_TRUE(simulated.ok()) << simulated.status().message();
    EngineOptions file_options = options;
    file_options.storage.backend = storage::BackendKind::kFile;
    file_options.storage.index_path = path;
    file_options.storage.pool_pages = 3;
    auto file = QueryEngine::Open(file_options);
    ASSERT_TRUE(file.ok()) << file.status().message();

    const QueryEngine* engines[] = {&memory, simulated->get(), file->get()};
    for (const std::size_t qi : {0u, 12u, 25u}) {
      const Series& query = items[qi];
      // A query that is not in the database: a noisy rotation of item qi.
      Series probe = RotateLeft(query, 7);
      for (std::size_t j = 0; j < probe.size(); ++j) {
        probe[j] += 0.01 * static_cast<double>(j % 5);
      }
      for (const std::size_t holdout : {qi, items.size()}) {
        const Series& q = holdout == qi ? query : probe;
        const ScanResult ref = plain.SearchLeaveOneOut(q, holdout);
        const auto ref_knn = plain.KnnLeaveOneOut(q, 3, holdout);
        const double radius = ref_knn.back().distance * 1.01;
        const auto ref_range = plain.Range(q, radius);
        for (const QueryEngine* engine : engines) {
          const std::string label =
              std::string(DistanceKindName(kind)) + "/index+" +
              std::to_string(static_cast<int>(terminal)) + "/" +
              engine->backend()->name() + "/q" + std::to_string(qi) +
              (holdout == qi ? "/holdout" : "/probe");
          obs::QueryMetrics metrics;
          const ScanResult got =
              engine->SearchLeaveOneOut(q, holdout, &metrics);
          EXPECT_EQ(got.best_index, ref.best_index) << label;
          EXPECT_EQ(got.best_distance, ref.best_distance) << label;
          EXPECT_LE(metrics.index.refinements,
                    items.size() - (holdout == qi ? 1 : 0))
              << label;

          const auto knn = engine->KnnLeaveOneOut(q, 3, holdout);
          ASSERT_EQ(knn.size(), ref_knn.size()) << label;
          for (std::size_t r = 0; r < knn.size(); ++r) {
            EXPECT_EQ(knn[r].index, ref_knn[r].index) << label << " rank " << r;
            EXPECT_EQ(knn[r].distance, ref_knn[r].distance)
                << label << " rank " << r;
          }

          const auto range = engine->Range(q, radius);
          ASSERT_EQ(range.size(), ref_range.size()) << label;
          for (std::size_t r = 0; r < range.size(); ++r) {
            EXPECT_EQ(range[r].index, ref_range[r].index)
                << label << " hit " << r;
            EXPECT_EQ(range[r].distance, ref_range[r].distance)
                << label << " hit " << r;
          }
        }
      }
    }
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Kinds, IndexStageEquivalenceTest,
                         ::testing::Values(DistanceKind::kEuclidean,
                                           DistanceKind::kDtw),
                         [](const ::testing::TestParamInfo<DistanceKind>& p) {
                           return std::string(DistanceKindName(p.param));
                         });

/// Sharding is invisible to exactness: a ShardedIndex over ANY shard
/// split of the database — with or without a delta segment and
/// tombstones — answers 1-NN, k-NN, and range queries identically to one
/// monolithic in-memory engine over the same live rows, for every
/// cascade and measure, in both search modes. Serial mode is bit-exact
/// including step counts (one engine over the concatenated view);
/// parallel mode is bit-exact on answers (the SharedBound exchange only
/// tightens pruning) — its step counts legitimately differ with
/// interleaving, and its k-NN index choice could differ from the
/// monolithic heap's only under exact k-th-distance ties, which this
/// tie-free workload does not produce.
class ShardEquivalenceTest : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(ShardEquivalenceTest, ShardedMatchesMonolithicOverLiveRows) {
  const DistanceKind kind = GetParam();
  const std::vector<Series> base = MakeProjectilePointsDatabase(21, 36, 701);
  const std::vector<Series> extra = MakeProjectilePointsDatabase(4, 36, 702);
  const std::string prefix = "/tmp/rotind_shardeq." +
                             std::to_string(::getpid()) + "." +
                             DistanceKindName(kind);
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.page_size_bytes = 256;

  std::vector<std::string> scratch_files;
  for (const std::size_t shard_count : {1u, 2u, 4u, 7u}) {
    // Uneven contiguous split: the first `extra_rows` shards take one more.
    const std::string manifest_path =
        prefix + ".s" + std::to_string(shard_count) + ".rman";
    scratch_files.push_back(manifest_path);
    storage::Manifest manifest;
    manifest.generation = 1;
    std::size_t row = 0;
    const std::size_t per = base.size() / shard_count;
    const std::size_t extra_rows = base.size() % shard_count;
    for (std::size_t s = 0; s < shard_count; ++s) {
      const std::size_t count = per + (s < extra_rows ? 1 : 0);
      const std::string file = "rotind_shardeq." + std::to_string(::getpid()) +
                               "." + std::string(DistanceKindName(kind)) +
                               ".s" + std::to_string(shard_count) + "." +
                               std::to_string(s) + ".ridx";
      Dataset part;
      part.items.assign(base.begin() + static_cast<std::ptrdiff_t>(row),
                        base.begin() +
                            static_cast<std::ptrdiff_t>(row + count));
      ASSERT_TRUE(BuildIndexFile(part, build, "/tmp/" + file).ok());
      scratch_files.push_back("/tmp/" + file);
      manifest.shards.push_back(storage::ManifestShard{
          file, static_cast<std::uint64_t>(count), 36});
      row += count;
    }
    ASSERT_TRUE(storage::WriteManifest(manifest, manifest_path).ok());

    for (const bool parallel : {false, true}) {
      for (const CascadeSpec& cascade : MakeCascades(kind)) {
        ShardedOptions options;
        options.parallel_search = parallel;
        options.num_threads = 3;
        options.pool_pages = 4;
        options.engine.kind = kind;
        options.engine.band = 4;
        options.engine.index_dims = kIndexDims;
        options.engine.cascade = cascade;
        StatusOr<std::unique_ptr<ShardedIndex>> opened =
            ShardedIndex::Open(manifest_path, options);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
        ShardedIndex& index = **opened;

        // Three cumulative mutation stages: pristine shards, plus delta
        // inserts, plus tombstones over both shard and delta rows.
        std::vector<Series> all_rows = base;
        std::vector<bool> dead(base.size(), false);
        for (int stage = 0; stage < 3; ++stage) {
          if (stage == 1) {
            for (const Series& s : extra) {
              ASSERT_TRUE(index.Insert(s).ok());
              all_rows.push_back(s);
              dead.push_back(false);
            }
          } else if (stage == 2) {
            for (const std::uint64_t id : {3u, 15u, 22u}) {
              ASSERT_TRUE(index.Remove(id).ok());
              dead[id] = true;
            }
          }

          // Monolithic reference over the live rows, ordinal order.
          std::vector<Series> live;
          std::vector<int> live_ids;
          for (std::size_t i = 0; i < all_rows.size(); ++i) {
            if (dead[i]) continue;
            live.push_back(all_rows[i]);
            live_ids.push_back(static_cast<int>(i));
          }
          const FlatDataset flat = FlatDataset::FromItems(live);
          const QueryEngine reference(flat, options.engine);

          for (const std::size_t qi : {2u, 13u}) {
            const Series& query = base[qi];
            const std::string label =
                std::string(DistanceKindName(kind)) + "/s" +
                std::to_string(shard_count) +
                (parallel ? "/parallel" : "/serial") + "/" +
                CascadeName(cascade) + "/stage" + std::to_string(stage) +
                "/q" + std::to_string(qi);

            const ScanResult ref = reference.Search(query);
            StatusOr<ScanResult> got = index.Search(query);
            ASSERT_TRUE(got.ok()) << label;
            ASSERT_GE(ref.best_index, 0) << label;
            EXPECT_EQ(got->best_index, live_ids[static_cast<std::size_t>(
                                           ref.best_index)])
                << label;
            EXPECT_EQ(got->best_distance, ref.best_distance) << label;
            if (!parallel) {
              EXPECT_EQ(got->counter.total_steps(),
                        ref.counter.total_steps())
                  << label;
            }

            const auto ref_knn = reference.Knn(query, 3);
            StatusOr<std::vector<Neighbor>> knn = index.Knn(query, 3);
            ASSERT_TRUE(knn.ok()) << label;
            ASSERT_EQ(knn->size(), ref_knn.size()) << label;
            for (std::size_t r = 0; r < knn->size(); ++r) {
              EXPECT_EQ((*knn)[r].index,
                        live_ids[static_cast<std::size_t>(ref_knn[r].index)])
                  << label << " rank " << r;
              EXPECT_EQ((*knn)[r].distance, ref_knn[r].distance)
                  << label << " rank " << r;
            }

            const double radius = ref_knn.back().distance * 1.01;
            const auto ref_range = reference.Range(query, radius);
            StatusOr<std::vector<Neighbor>> range =
                index.Range(query, radius);
            ASSERT_TRUE(range.ok()) << label;
            ASSERT_EQ(range->size(), ref_range.size()) << label;
            for (std::size_t r = 0; r < range->size(); ++r) {
              EXPECT_EQ((*range)[r].index,
                        live_ids[static_cast<std::size_t>(
                            ref_range[r].index)])
                  << label << " hit " << r;
              EXPECT_EQ((*range)[r].distance, ref_range[r].distance)
                  << label << " hit " << r;
            }
          }
        }
      }
    }
  }
  for (const std::string& path : scratch_files) std::remove(path.c_str());
}

using testing::ExpectCountersEqual;
using testing::ExpectSameCounters;

/// The spectral filters (vecsig, fft) read each candidate's signature row
/// from a per-engine memo that the first query to reach the candidate
/// fills. Whether a row was a miss or a hit, and which thread filled it,
/// must be invisible: same answers, same step counts, same per-stage
/// counts, on the in-memory and simulated backends.
class SignatureMemoTest
    : public ::testing::TestWithParam<std::tuple<StageKind,
                                                 storage::BackendKind>> {
 protected:
  void SetUp() override {
    items_ = MakeProjectilePointsDatabase(40, 48, 901);
    flat_ = FlatDataset::FromItems(items_);
    for (const std::size_t qi : {0u, 5u, 17u, 33u}) {
      queries_.push_back(items_[qi]);
      Series probe = RotateLeft(items_[qi], 11);
      for (std::size_t j = 0; j < probe.size(); ++j) {
        probe[j] += 0.02 * static_cast<double>(j % 3);
      }
      queries_.push_back(probe);
    }
  }

  /// A fresh engine: its memo holds no rows yet.
  std::unique_ptr<QueryEngine> Fresh() const {
    EngineOptions options;
    options.cascade.stages = {std::get<0>(GetParam()), StageKind::kExactScan};
    options.storage.backend = std::get<1>(GetParam());
    auto engine = QueryEngine::Open(options, &flat_);
    EXPECT_TRUE(engine.ok()) << engine.status().message();
    return engine.ok() ? *std::move(engine) : nullptr;
  }

  std::vector<Series> items_;
  FlatDataset flat_;
  std::vector<Series> queries_;
};

TEST_P(SignatureMemoTest, MissThenHitIsIdentical) {
  const auto engine = Fresh();
  ASSERT_NE(engine, nullptr);
  for (const Series& query : queries_) {
    obs::QueryMetrics miss_metrics;
    obs::QueryMetrics hit_metrics;
    const ScanResult miss = engine->Search(query, &miss_metrics);
    const ScanResult hit = engine->Search(query, &hit_metrics);
    EXPECT_EQ(hit.best_index, miss.best_index);
    EXPECT_EQ(hit.best_distance, miss.best_distance);
    EXPECT_EQ(hit.best_shift, miss.best_shift);
    EXPECT_EQ(hit.best_mirrored, miss.best_mirrored);
    ExpectCountersEqual(hit.counter, miss.counter, "hit vs miss");
    ExpectSameCounters(hit_metrics, miss_metrics, "hit vs miss");
  }
}

TEST_P(SignatureMemoTest, RacingBatchMatchesSerialBitForBit) {
  const auto serial = Fresh();
  const auto racing = Fresh();
  ASSERT_NE(serial, nullptr);
  ASSERT_NE(racing, nullptr);
  StepCounter serial_steps;
  StepCounter racing_steps;
  obs::QueryMetrics serial_metrics;
  obs::QueryMetrics racing_metrics;
  const auto want =
      serial->KnnSearchBatch(queries_, 3, 1, &serial_steps, &serial_metrics);
  // Eight workers on a cold memo: every row is contended.
  const auto got =
      racing->KnnSearchBatch(queries_, 3, 8, &racing_steps, &racing_metrics);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t q = 0; q < got.size(); ++q) {
    ASSERT_EQ(got[q].size(), want[q].size()) << "query " << q;
    for (std::size_t r = 0; r < got[q].size(); ++r) {
      EXPECT_EQ(got[q][r].index, want[q][r].index) << q << "/" << r;
      EXPECT_EQ(got[q][r].distance, want[q][r].distance) << q << "/" << r;
      EXPECT_EQ(got[q][r].shift, want[q][r].shift) << q << "/" << r;
      EXPECT_EQ(got[q][r].mirrored, want[q][r].mirrored) << q << "/" << r;
    }
  }
  ExpectCountersEqual(racing_steps, serial_steps, "8 threads vs 1");
  ExpectSameCounters(racing_metrics, serial_metrics, "8 threads vs 1");
}

TEST_P(SignatureMemoTest, HoldoutQueriesAreExact) {
  const auto engine = Fresh();
  ASSERT_NE(engine, nullptr);
  EngineOptions plain_options;
  plain_options.cascade.stages = {StageKind::kExactScan};
  const QueryEngine plain(flat_, plain_options);
  // Each holdout leaves its own row unfilled until a later query with a
  // different holdout reaches it.
  for (const std::size_t qi : {3u, 21u, 3u, 39u, 21u}) {
    const Series& query = items_[qi];
    const ScanResult want = plain.SearchLeaveOneOut(query, qi);
    const ScanResult got = engine->SearchLeaveOneOut(query, qi);
    EXPECT_EQ(got.best_index, want.best_index) << "q" << qi;
    EXPECT_EQ(got.best_distance, want.best_distance) << "q" << qi;
    const auto want_knn = plain.KnnLeaveOneOut(query, 3, qi);
    const auto got_knn = engine->KnnLeaveOneOut(query, 3, qi);
    ASSERT_EQ(got_knn.size(), want_knn.size()) << "q" << qi;
    for (std::size_t r = 0; r < got_knn.size(); ++r) {
      EXPECT_EQ(got_knn[r].index, want_knn[r].index) << "q" << qi;
      EXPECT_EQ(got_knn[r].distance, want_knn[r].distance) << "q" << qi;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FiltersAndBackends, SignatureMemoTest,
    ::testing::Combine(::testing::Values(StageKind::kVecSignature,
                                         StageKind::kFftMagnitude),
                       ::testing::Values(storage::BackendKind::kInMemory,
                                         storage::BackendKind::kSimulated)),
    [](const ::testing::TestParamInfo<
        std::tuple<StageKind, storage::BackendKind>>& p) {
      std::string name = std::get<0>(p.param) == StageKind::kVecSignature
                             ? "vecsig"
                             : "fft";
      name += std::get<1>(p.param) == storage::BackendKind::kInMemory
                  ? "_memory"
                  : "_simulated";
      return name;
    });

/// Range hits at exactly equal distance come back in database order, on
/// every path: a database holding every row twice (copies far apart, so
/// they land in different shards and, under the index stage, in different
/// visit positions) answers a radius covering everything with one
/// identical vector from the plain scan, the signature index stage, and
/// sharded serial and parallel range.
TEST(RangeTieOrderTest, EqualDistancesComeBackInIndexOrder) {
  const std::vector<Series> distinct =
      MakeProjectilePointsDatabase(20, 36, 951);
  std::vector<Series> rows = distinct;
  rows.insert(rows.end(), distinct.begin(), distinct.end());
  const FlatDataset flat = FlatDataset::FromItems(rows);

  EngineOptions options;
  options.index_dims = kIndexDims;
  options.cascade.stages = {StageKind::kExactScan};
  const QueryEngine plain(flat, options);
  EngineOptions indexed_options = options;
  indexed_options.cascade.stages = {StageKind::kSignatureIndex,
                                    StageKind::kExactScan};
  const QueryEngine indexed(flat, indexed_options);

  const std::string prefix =
      "/tmp/rotind_rangetie." + std::to_string(::getpid());
  IndexBuildOptions build;
  build.sig_dims = kIndexDims;
  build.paa_dims = kIndexDims;
  storage::Manifest manifest;
  manifest.generation = 1;
  std::vector<std::string> scratch_files = {prefix + ".rman"};
  constexpr std::size_t kShards = 3;
  for (std::size_t s = 0, row = 0; s < kShards; ++s) {
    const std::size_t count =
        rows.size() / kShards + (s < rows.size() % kShards ? 1 : 0);
    const std::string file = "rotind_rangetie." + std::to_string(::getpid()) +
                             "." + std::to_string(s) + ".ridx";
    Dataset part;
    part.items.assign(rows.begin() + static_cast<std::ptrdiff_t>(row),
                      rows.begin() + static_cast<std::ptrdiff_t>(row + count));
    ASSERT_TRUE(BuildIndexFile(part, build, "/tmp/" + file).ok());
    scratch_files.push_back("/tmp/" + file);
    manifest.shards.push_back(storage::ManifestShard{
        file, static_cast<std::uint64_t>(count), 36});
    row += count;
  }
  ASSERT_TRUE(storage::WriteManifest(manifest, prefix + ".rman").ok());

  for (const std::size_t qi : {0u, 7u}) {
    const Series& query = distinct[qi];
    const auto all = plain.Knn(query, static_cast<int>(rows.size()));
    ASSERT_EQ(all.size(), rows.size());
    const double radius = all.back().distance;
    const std::vector<Neighbor> want = plain.Range(query, radius);
    ASSERT_EQ(want.size(), rows.size());
    for (std::size_t r = 1; r < want.size(); ++r) {
      ASSERT_TRUE(want[r - 1].distance < want[r].distance ||
                  (want[r - 1].distance == want[r].distance &&
                   want[r - 1].index < want[r].index))
          << "hit " << r;
    }

    const auto expect_same = [&](const std::vector<Neighbor>& got,
                                 const std::string& label) {
      ASSERT_EQ(got.size(), want.size()) << label;
      for (std::size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(got[r].index, want[r].index) << label << " hit " << r;
        EXPECT_EQ(got[r].distance, want[r].distance) << label << " hit " << r;
        EXPECT_EQ(got[r].shift, want[r].shift) << label << " hit " << r;
        EXPECT_EQ(got[r].mirrored, want[r].mirrored) << label << " hit " << r;
      }
    };
    expect_same(indexed.Range(query, radius), "index+ea");
    for (const bool parallel : {false, true}) {
      ShardedOptions sharded_options;
      sharded_options.parallel_search = parallel;
      sharded_options.num_threads = 3;
      sharded_options.engine = options;
      auto sharded = ShardedIndex::Open(prefix + ".rman", sharded_options);
      ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
      StatusOr<std::vector<Neighbor>> got = (*sharded)->Range(query, radius);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      expect_same(*got, parallel ? "sharded/parallel" : "sharded/serial");
    }
  }
  for (const std::string& path : scratch_files) std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Kinds, ShardEquivalenceTest,
                         ::testing::Values(DistanceKind::kEuclidean,
                                           DistanceKind::kDtw),
                         [](const ::testing::TestParamInfo<DistanceKind>& p) {
                           return std::string(DistanceKindName(p.param));
                         });

INSTANTIATE_TEST_SUITE_P(Kinds, BackendEquivalenceTest,
                         ::testing::Values(DistanceKind::kEuclidean,
                                           DistanceKind::kDtw),
                         [](const ::testing::TestParamInfo<DistanceKind>& p) {
                           return std::string(DistanceKindName(p.param));
                         });

INSTANTIATE_TEST_SUITE_P(
    KindsAndMirror, EngineEquivalenceTest,
    ::testing::Combine(::testing::Values(DistanceKind::kEuclidean,
                                         DistanceKind::kDtw),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<DistanceKind, bool>>& p) {
      std::string name = DistanceKindName(std::get<0>(p.param));
      name += std::get<1>(p.param) ? "_mirror" : "_plain";
      return name;
    });

}  // namespace
}  // namespace rotind
