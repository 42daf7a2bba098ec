/// Storage fault injection and bounded retry: the seeded FaultSchedule is
/// reproducible, FileBackend's retry-with-backoff absorbs transient
/// bursts shorter than its attempt budget (and accounts for them in
/// FetchStats), permanent faults surface typed instead of being retried
/// forever, and the FaultInjectingBackend decorator drives the engine's
/// Checked entry points into typed failures — never silent wrong answers.

#include "src/storage/fault_injection.h"

#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/status.h"
#include "src/datasets/synthetic.h"
#include "src/index/index_io.h"
#include "src/search/engine.h"
#include "src/storage/backend.h"

namespace rotind::storage {
namespace {

std::string TempPath(const char* tag) {
  return "/tmp/rotind_fault_test." + std::to_string(::getpid()) + "." + tag +
         ".ridx";
}

std::string WriteIndex(const std::vector<Series>& items, const char* tag) {
  Dataset ds;
  ds.items = items;
  IndexBuildOptions build;
  build.sig_dims = 4;
  build.paa_dims = 4;
  build.page_size_bytes = 256;  // Extents straddle pages.
  const std::string path = TempPath(tag);
  const Status s = BuildIndexFile(ds, build, path);
  EXPECT_TRUE(s.ok()) << s.message();
  return path;
}

RetryPolicy FastRetry(int attempts) {
  RetryPolicy retry;
  retry.max_attempts = attempts;
  retry.initial_backoff = std::chrono::microseconds(1);
  return retry;
}

TEST(FaultScheduleTest, SameSeedReplaysTheSameDecisions) {
  FaultScheduleSpec spec;
  spec.seed = 99;
  spec.transient_read_prob = 0.3;
  spec.torn_page_prob = 0.1;
  spec.latency_spike_prob = 0.1;
  spec.latency_spike = std::chrono::nanoseconds(0);
  FaultSchedule a(spec);
  FaultSchedule b(spec);
  for (std::uint64_t key = 0; key < 200; ++key) {
    EXPECT_EQ(static_cast<int>(a.Decide(key % 7).kind),
              static_cast<int>(b.Decide(key % 7).kind));
  }
  EXPECT_EQ(a.counters().total(), b.counters().total());
  EXPECT_GT(a.counters().total(), 0u);
}

TEST(FaultScheduleTest, DefaultSpecInjectsNothing) {
  const FaultScheduleSpec spec;
  EXPECT_FALSE(spec.enabled());
  FaultSchedule schedule(spec);
  for (std::uint64_t key = 0; key < 100; ++key) {
    EXPECT_EQ(static_cast<int>(schedule.Decide(key).kind),
              static_cast<int>(FaultKind::kNone));
  }
  EXPECT_EQ(schedule.counters().total(), 0u);
}

TEST(FaultScheduleTest, TransientBurstsRunTheirConfiguredLength) {
  FaultScheduleSpec spec;
  spec.seed = 5;
  spec.transient_read_prob = 1.0;  // Every fresh draw starts a burst.
  spec.transient_burst = 3;
  FaultSchedule schedule(spec);
  // One key: 3-long bursts back to back, every decision a transient.
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(static_cast<int>(schedule.Decide(42).kind),
              static_cast<int>(FaultKind::kTransientRead));
  }
  EXPECT_EQ(schedule.counters().transient_errors, 9u);
}

TEST(FaultScheduleTest, PermanentKeyAlwaysFails) {
  FaultScheduleSpec spec;
  spec.permanent_fail_key = 3;
  FaultSchedule schedule(spec);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(static_cast<int>(schedule.Decide(3).kind),
              static_cast<int>(FaultKind::kTransientRead));
    EXPECT_EQ(static_cast<int>(schedule.Decide(4).kind),
              static_cast<int>(FaultKind::kNone));
  }
}

/// Trivial in-memory PageSource for driving the decorator directly.
class ZeroSource : public PageSource {
 public:
  ZeroSource(std::size_t page_size, std::size_t pages)
      : page_size_(page_size), pages_(pages) {}
  std::size_t page_size_bytes() const override { return page_size_; }
  std::size_t num_pages() const override { return pages_; }
  Status ReadPage(std::size_t /*page*/, char* out) const override {
    std::memset(out, 0, page_size_);
    return Status::Ok();
  }

 private:
  std::size_t page_size_;
  std::size_t pages_;
};

TEST(FaultInjectingSourceTest, TornPageSurfacesAsCorruptHeader) {
  const ZeroSource inner(64, 4);
  FaultScheduleSpec spec;
  spec.torn_page_prob = 1.0;
  FaultSchedule schedule(spec);
  const FaultInjectingSource source(inner, schedule);
  char buf[64];
  const Status torn = source.ReadPage(0, buf);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.code(), StatusCode::kCorruptHeader)
      << "a torn page must look exactly like a real checksum mismatch";
  EXPECT_TRUE(IsRetryableStorageError(torn.code()))
      << "torn reads are single-shot; the re-read must be allowed";
  EXPECT_EQ(schedule.counters().torn_pages, 1u);
}

TEST(FaultInjectingSourceTest, TransientSurfacesAsIoError) {
  const ZeroSource inner(64, 4);
  FaultScheduleSpec spec;
  spec.transient_read_prob = 1.0;
  FaultSchedule schedule(spec);
  const FaultInjectingSource source(inner, schedule);
  char buf[64];
  const Status s = source.ReadPage(2, buf);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(FaultInjectingSourceTest, LatencySpikeSucceedsWithCorrectBytes) {
  const ZeroSource inner(64, 4);
  FaultScheduleSpec spec;
  spec.latency_spike_prob = 1.0;
  spec.latency_spike = std::chrono::nanoseconds(1);
  FaultSchedule schedule(spec);
  const FaultInjectingSource source(inner, schedule);
  char buf[64];
  std::memset(buf, 0x5a, sizeof(buf));
  ASSERT_TRUE(source.ReadPage(1, buf).ok());
  for (char c : buf) EXPECT_EQ(c, 0);
  EXPECT_EQ(schedule.counters().latency_spikes, 1u);
}

/// Retry absorption, end to end through the public FileBackend API: with
/// transient faults injected UNDER the BufferPool and a retry budget
/// longer than any burst this seed produces, every fetch succeeds, the
/// absorbed faults are visible in FetchStats, and no error is latched.
TEST(FileBackendRetryTest, TransientFaultsAreAbsorbedAndAccounted) {
  const std::vector<Series> items =
      MakeProjectilePointsDatabase(12, 40, 210);
  const std::string path = WriteIndex(items, "absorb");

  FileBackend::Tuning tuning;
  tuning.retry = FastRetry(8);
  tuning.faults.seed = 31;
  tuning.faults.transient_read_prob = 0.3;
  tuning.faults.transient_burst = 2;
  auto backend = FileBackend::Open(path, 2, EvictionPolicy::kLru, tuning);
  ASSERT_TRUE(backend.ok()) << backend.status().message();

  FetchStats stats;
  for (int round = 0; round < 3; ++round) {  // Pool of 2: constant misses.
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto h = (*backend)->TryFetch(i, &stats);
      ASSERT_TRUE(h.ok()) << "object " << i << ": "
                          << h.status().message();
      EXPECT_EQ(std::memcmp(h->data(), items[i].data(),
                            items[i].size() * sizeof(double)),
                0)
          << "retried read returned wrong bytes for object " << i;
    }
  }
  EXPECT_GT(stats.retries, 0u);
  EXPECT_GT(stats.faults_absorbed, 0u);
  EXPECT_GE(stats.retries, stats.faults_absorbed);
  EXPECT_GT((*backend)->fault_counters().transient_errors, 0u);
  EXPECT_TRUE((*backend)->error().ok())
      << "absorbed faults must not latch an error";
  std::remove(path.c_str());
}

/// A burst longer than the retry budget is NOT absorbed: the typed error
/// surfaces, and ClearError() restores the backend for later queries.
TEST(FileBackendRetryTest, BurstsBeyondTheBudgetSurfaceTyped) {
  const std::vector<Series> items = MakeProjectilePointsDatabase(6, 40, 77);
  const std::string path = WriteIndex(items, "surface");

  FileBackend::Tuning tuning;
  tuning.retry = FastRetry(2);
  tuning.faults.seed = 13;
  tuning.faults.transient_read_prob = 1.0;  // Endless bursts: unabsorbable.
  tuning.faults.transient_burst = 4;
  auto backend = FileBackend::Open(path, 4, EvictionPolicy::kLru, tuning);
  ASSERT_TRUE(backend.ok()) << backend.status().message();

  FetchStats stats;
  const auto h = (*backend)->TryFetch(0, &stats);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(h.status().code(), StatusCode::kIoError);
  EXPECT_EQ(stats.retries, 1u) << "budget of 2 attempts = 1 retry";

  // Unchecked Fetch latches; ClearError consumes the latch.
  FetchStats unchecked;
  const SeriesHandle bad = (*backend)->Fetch(0, &unchecked);
  EXPECT_FALSE(bad.valid());
  EXPECT_FALSE((*backend)->error().ok());
  (*backend)->ClearError();
  EXPECT_TRUE((*backend)->error().ok());
  std::remove(path.c_str());
}

TEST(FileBackendRetryTest, RetryDisabledFailsOnFirstFault) {
  const std::vector<Series> items = MakeProjectilePointsDatabase(6, 40, 78);
  const std::string path = WriteIndex(items, "noretry");

  FileBackend::Tuning tuning;  // retry.max_attempts = 1: off.
  tuning.faults.seed = 2;
  tuning.faults.transient_read_prob = 1.0;
  auto backend = FileBackend::Open(path, 4, EvictionPolicy::kLru, tuning);
  ASSERT_TRUE(backend.ok());
  FetchStats stats;
  const auto h = (*backend)->TryFetch(0, &stats);
  ASSERT_FALSE(h.ok());
  EXPECT_EQ(stats.retries, 0u);
  std::remove(path.c_str());
}

TEST(RetryableClassificationTest, OnlyIoAndChecksumErrorsRetry) {
  EXPECT_TRUE(IsRetryableStorageError(StatusCode::kIoError));
  EXPECT_TRUE(IsRetryableStorageError(StatusCode::kCorruptHeader));
  EXPECT_FALSE(IsRetryableStorageError(StatusCode::kOutOfRange));
  EXPECT_FALSE(IsRetryableStorageError(StatusCode::kNotFound));
  EXPECT_FALSE(IsRetryableStorageError(StatusCode::kOk));
}

/// The backend-level decorator: object-granular faults above the pool,
/// driving the engine's typed error path. The engine must NEVER return a
/// silently-short answer when a candidate fetch fails.
TEST(FaultInjectingBackendTest, PermanentObjectFaultSurfacesThroughEngine) {
  const std::vector<Series> items =
      MakeProjectilePointsDatabase(20, 32, 301);
  const FlatDataset flat = FlatDataset::FromItems(items);

  FaultScheduleSpec spec;
  spec.permanent_fail_key = 5;
  auto faulty = std::make_unique<FaultInjectingBackend>(
      std::make_unique<InMemoryBackend>(flat), spec);

  // Direct decorator contract first.
  FetchStats stats;
  EXPECT_FALSE(faulty->TryFetch(5, &stats).ok());
  EXPECT_TRUE(faulty->TryFetch(6, &stats).ok());
  EXPECT_TRUE(faulty->error().ok()) << "TryFetch must not latch";

  const QueryEngine engine(std::move(faulty));
  const Series query(flat.data(0), flat.data(0) + flat.length());
  const auto checked = engine.SearchChecked(query);
  ASSERT_FALSE(checked.ok())
      << "scan skipped a candidate but reported an exact answer";
  EXPECT_EQ(checked.status().code(), StatusCode::kIoError);
}

TEST(FaultInjectingBackendTest, CleanScheduleIsTransparent) {
  const std::vector<Series> items =
      MakeProjectilePointsDatabase(15, 32, 302);
  const FlatDataset flat = FlatDataset::FromItems(items);
  const Series query(flat.data(3), flat.data(3) + flat.length());

  const QueryEngine plain(flat);
  const ScanResult truth = plain.Search(query);

  auto faulty = std::make_unique<FaultInjectingBackend>(
      std::make_unique<InMemoryBackend>(flat), FaultScheduleSpec());
  const QueryEngine engine(std::move(faulty));
  const auto checked = engine.SearchChecked(query);
  ASSERT_TRUE(checked.ok()) << checked.status().message();
  EXPECT_EQ(checked->best_index, truth.best_index);
  EXPECT_EQ(checked->best_distance, truth.best_distance);
}

/// The decorator must not forward the inner backend's resident tiles: a
/// blocked-eligible cascade (ED full scan) over a faulty in-memory backend
/// has to fetch every candidate through the decorator, or the injected
/// fault would be skipped and the scan would report an exact answer.
TEST(FaultInjectingBackendTest, BlockedCascadeStillFetchesThroughDecorator) {
  const std::vector<Series> items =
      MakeProjectilePointsDatabase(20, 32, 303);
  const FlatDataset flat = FlatDataset::FromItems(items);

  FaultScheduleSpec spec;
  spec.permanent_fail_key = 9;
  auto faulty = std::make_unique<FaultInjectingBackend>(
      std::make_unique<InMemoryBackend>(flat), spec);
  EXPECT_NE(faulty->inner().resident_tiles(), nullptr);
  EXPECT_EQ(faulty->resident_tiles(), nullptr);

  EngineOptions options;
  options.cascade.stages = {StageKind::kFullScan};
  const QueryEngine engine(std::move(faulty), options);
  const Series query(flat.data(0), flat.data(0) + flat.length());
  const auto checked = engine.SearchChecked(query);
  ASSERT_FALSE(checked.ok()) << "the tile path bypassed the decorator";
  EXPECT_EQ(checked.status().code(), StatusCode::kIoError);
}

/// Nor the file backend's stored RIDX v2 signature rows: through a clean
/// decorator the vec-signature filter fills its own signature-row memo
/// from the fetched candidates, charged one FFT per candidate, so its step
/// counts equal the in-memory engine's, not the cheaper stored-row
/// lookups of the bare file backend.
TEST(FaultInjectingBackendTest, StoredSignatureRowsAreNotForwarded) {
  const std::vector<Series> items =
      MakeProjectilePointsDatabase(24, 40, 304);
  const FlatDataset flat = FlatDataset::FromItems(items);
  const std::string path = WriteIndex(items, "sigrows");

  EngineOptions options;
  options.cascade.stages = {StageKind::kVecSignature, StageKind::kExactScan};
  const Series query(flat.data(2), flat.data(2) + flat.length());
  const ScanResult memory = QueryEngine(flat, options).Search(query);

  auto file = FileBackend::Open(path, 8, EvictionPolicy::kLru);
  ASSERT_TRUE(file.ok()) << file.status().message();
  ASSERT_NE((*file)->stored_signatures().rows, nullptr);
  auto decorated = std::make_unique<FaultInjectingBackend>(
      *std::move(file), FaultScheduleSpec());
  EXPECT_EQ(decorated->stored_signatures().rows, nullptr);
  const QueryEngine engine(std::move(decorated), options);
  const auto checked = engine.SearchChecked(query);
  ASSERT_TRUE(checked.ok()) << checked.status().message();
  EXPECT_EQ(checked->best_index, memory.best_index);
  EXPECT_EQ(checked->best_distance, memory.best_distance);
  EXPECT_EQ(checked->counter.steps, memory.counter.steps);
  EXPECT_EQ(checked->counter.setup_steps, memory.counter.setup_steps);
  EXPECT_EQ(checked->counter.lower_bound_evals,
            memory.counter.lower_bound_evals);

  // The bare file backend does take the stored-row path, so the equality
  // above is not vacuous.
  auto bare = FileBackend::Open(path, 8, EvictionPolicy::kLru);
  ASSERT_TRUE(bare.ok()) << bare.status().message();
  const QueryEngine stored(*std::move(bare), options);
  EXPECT_LT(stored.Search(query).counter.steps, memory.counter.steps);
  std::remove(path.c_str());
}

/// OpenBackend plumbs StorageOptions retry/fault tuning into the file
/// backend — the path `rotind serve --fault-*` and the load bench use.
TEST(OpenBackendTest, StorageOptionsCarryRetryAndFaults) {
  const std::vector<Series> items = MakeProjectilePointsDatabase(8, 40, 91);
  const std::string path = WriteIndex(items, "options");

  StorageOptions options;
  options.backend = BackendKind::kFile;
  options.index_path = path;
  options.pool_pages = 2;
  options.retry = FastRetry(8);
  options.faults.seed = 31;
  options.faults.transient_read_prob = 0.3;
  options.faults.transient_burst = 2;
  auto backend = OpenBackend(options, nullptr);
  ASSERT_TRUE(backend.ok()) << backend.status().message();

  FetchStats stats;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < items.size(); ++i) {
      ASSERT_TRUE((*backend)->TryFetch(i, &stats).ok());
    }
  }
  EXPECT_GT(stats.faults_absorbed, 0u);
  const auto* file = static_cast<const FileBackend*>(backend->get());
  EXPECT_EQ(file->retry_policy().max_attempts, 8);
  EXPECT_GT(file->fault_counters().total(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rotind::storage
