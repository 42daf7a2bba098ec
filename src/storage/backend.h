#ifndef ROTIND_STORAGE_BACKEND_H_
#define ROTIND_STORAGE_BACKEND_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/series.h"
#include "src/core/status.h"
#include "src/core/sync.h"
#include "src/storage/buffer_pool.h"
#include "src/storage/fault_injection.h"
#include "src/storage/index_file.h"
#include "src/storage/simulated_disk.h"

namespace rotind::storage {

/// Pluggable candidate-series storage behind the QueryEngine: every
/// candidate fetch goes through one of these instead of poking a
/// `std::vector<Series>` directly.
///
///   kInMemory   zero-copy borrow from a FlatDataset — today's behavior,
///               no I/O, no accounting beyond the fetch count.
///   kSimulated  the paper's Section 5.4 accounting stub (SimulatedDisk):
///               bytes live in RAM but page reads are tallied as if the
///               series were packed contiguously into fixed-size pages.
///   kFile       a real paged RIDX index file read with pread through a
///               BufferPool (pin -> copy -> unpin per page).
enum class BackendKind { kInMemory, kSimulated, kFile };

/// Per-fetch (or per-query, when accumulated) I/O accounting. The engine
/// folds these into obs::StageStats under the kDiskFetch stage so
/// --metrics-json attributes real I/O per query.
struct FetchStats {
  std::uint64_t object_fetches = 0;
  std::uint64_t page_reads = 0;      ///< Pages read from the medium.
  std::uint64_t pool_hits = 0;       ///< Pages served by the buffer pool.
  std::uint64_t pool_evictions = 0;  ///< Frames recycled to serve misses.
  std::uint64_t bytes_read = 0;      ///< Bytes read from the medium.
  std::uint64_t retries = 0;         ///< Re-attempted page pins.
  std::uint64_t faults_absorbed = 0; ///< Pins that succeeded on a retry.

  FetchStats& operator+=(const FetchStats& other) {
    object_fetches += other.object_fetches;
    page_reads += other.page_reads;
    pool_hits += other.pool_hits;
    pool_evictions += other.pool_evictions;
    bytes_read += other.bytes_read;
    retries += other.retries;
    faults_absorbed += other.faults_absorbed;
    return *this;
  }
};

/// Bounded retry-with-backoff for transient storage faults. Only the
/// transient codes (kIoError, kCorruptHeader — a failed read and a torn
/// page) are retried; everything else surfaces immediately.
struct RetryPolicy {
  int max_attempts = 1;  ///< Total attempts; 1 disables retry.
  std::chrono::nanoseconds initial_backoff{100'000};  // 100 us
  double backoff_multiplier = 2.0;

  [[nodiscard]] bool enabled() const { return max_attempts > 1; }
};

/// True for Status codes a retry may clear (the transient fault classes).
[[nodiscard]] bool IsRetryableStorageError(StatusCode code);

/// A fetched series: either a zero-copy borrow (in-memory and simulated
/// backends) or an owned buffer assembled from pool pages (file backend).
/// The pointer stays valid while the handle lives.
class SeriesHandle {
 public:
  SeriesHandle() = default;

  static SeriesHandle Borrowed(const double* data, std::size_t n) {
    SeriesHandle h;
    h.borrowed_ = data;
    h.n_ = n;
    return h;
  }

  static SeriesHandle TakeOwned(std::vector<double> values) {
    SeriesHandle h;
    h.owned_ = std::move(values);
    h.n_ = h.owned_.size();
    return h;
  }

  [[nodiscard]] bool valid() const {
    return borrowed_ != nullptr || !owned_.empty();
  }
  [[nodiscard]] const double* data() const {
    return borrowed_ != nullptr ? borrowed_ : owned_.data();
  }
  [[nodiscard]] std::size_t length() const { return n_; }

 private:
  const double* borrowed_ = nullptr;
  std::vector<double> owned_;
  std::size_t n_ = 0;
};

/// Stored RIDX v2 rotation-invariant signature rows: a resident count x
/// dims row-major matrix (see IndexFile::ri_signatures), or null/0.
struct SignatureRows {
  const double* rows = nullptr;
  std::size_t dims = 0;
};

/// The RIDX signature-index sections (see IndexFile): per stored series,
/// its first-D FFT magnitudes and its D-segment PAA means; each null/0
/// when the file was built without it.
struct IndexRows {
  SignatureRows fft;
  SignatureRows paa;
};

/// Uniform read interface over the three storages. All methods are const
/// and thread-safe (SearchBatch shares one backend across workers).
class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  virtual BackendKind backend_kind() const = 0;
  /// Short stable name for logs and JSON: "memory" / "simulated" / "file".
  virtual const char* name() const = 0;
  virtual std::size_t size() const = 0;
  virtual std::size_t length() const = 0;

  /// Fetches object `i` (precondition: i < size()). `stats`, when non-null,
  /// accumulates the I/O this fetch performed. On an I/O failure the file
  /// backend returns an invalid handle and latches the Status (see
  /// error()); the in-memory backends cannot fail.
  virtual SeriesHandle Fetch(std::size_t i, FetchStats* stats) const = 0;

  /// Validated fetch for tools and untrusted callers: bounds-checked,
  /// surfaces I/O errors as a Status instead of latching.
  [[nodiscard]] virtual StatusOr<SeriesHandle> TryFetch(
      std::size_t i, FetchStats* stats) const;

  /// Class label of object `i` (0 when the backend carries no labels).
  virtual int label(std::size_t i) const;

  /// First I/O error latched by an unchecked Fetch; OK for healthy
  /// backends. Engines check this once per query, not per candidate.
  [[nodiscard]] virtual Status error() const { return Status::Ok(); }

  /// Resets the latched error. A long-running server calls this after
  /// reporting a failed query, so one transient fault does not poison
  /// every later query on the shared backend. No-op for backends that
  /// cannot fail.
  virtual void ClearError() const {}

  /// Capability queries: resident structures a query driver may read
  /// INSTEAD of calling Fetch. All are null by default. A decorator must
  /// not forward them — its Fetch may not return the inner bytes (fault
  /// injection), and a driver reading the inner structures would route
  /// every candidate around it.
  ///
  /// SoA tiles of the stored series, for blocked 8-candidates-at-a-time
  /// scoring. Exposed only where Fetch is a free, infallible borrow of the
  /// same bytes, so reading tiles directly is observationally identical.
  virtual const FlatDataset* resident_tiles() const { return nullptr; }
  /// Signature rows computed from the stored series when the index was
  /// written (MakeVecSignature over the same bytes Fetch returns).
  virtual SignatureRows stored_signatures() const { return {}; }
  /// Signature-index rows computed from the stored series when the index
  /// was written (MakeSpectralSignature / PaaTransform over the same bytes
  /// Fetch returns).
  virtual IndexRows stored_index_rows() const { return {}; }
};

/// Zero-copy over a FlatDataset (which must outlive the backend).
class InMemoryBackend final : public StorageBackend {
 public:
  explicit InMemoryBackend(const FlatDataset& flat) : flat_(&flat) {}

  BackendKind backend_kind() const override { return BackendKind::kInMemory; }
  const char* name() const override { return "memory"; }
  std::size_t size() const override { return flat_->size(); }
  std::size_t length() const override { return flat_->length(); }
  SeriesHandle Fetch(std::size_t i, FetchStats* stats) const override;
  int label(std::size_t i) const override;
  const FlatDataset* resident_tiles() const override { return flat_; }

 private:
  const FlatDataset* flat_;
};

/// Wraps SimulatedDisk: real bytes in RAM, paper-parity page accounting.
class SimulatedBackend final : public StorageBackend {
 public:
  SimulatedBackend(const std::vector<Series>& db, std::size_t page_size_bytes);
  SimulatedBackend(const FlatDataset& flat, std::size_t page_size_bytes);

  BackendKind backend_kind() const override { return BackendKind::kSimulated; }
  const char* name() const override { return "simulated"; }
  std::size_t size() const override { return disk_.num_objects(); }
  std::size_t length() const override { return length_; }
  SeriesHandle Fetch(std::size_t i, FetchStats* stats) const override;

  const SimulatedDisk& disk() const { return disk_; }

 private:
  SimulatedDisk disk_;
  std::size_t length_ = 0;
};

/// pread-backed RIDX index file behind a BufferPool. Each fetch pins the
/// pages the object's catalog extent touches, copies the slices into an
/// owned buffer, and unpins — so a handle never holds pool frames hostage.
class FileBackend final : public StorageBackend {
 public:
  /// Per-backend knobs beyond pool sizing: the retry budget for transient
  /// page faults and an optional seeded fault schedule installed *under*
  /// the pool (FaultInjectingSource), so injected faults travel the exact
  /// path real disk errors take.
  struct Tuning {
    RetryPolicy retry;
    FaultScheduleSpec faults;
  };

  [[nodiscard]] static StatusOr<std::unique_ptr<FileBackend>> Open(
      const std::string& path, std::size_t pool_pages,
      EvictionPolicy eviction, const Tuning& tuning = Tuning());

  /// Adopts an already-parsed index (file- or memory-backed); used by
  /// tests and the fuzzer.
  [[nodiscard]] static std::unique_ptr<FileBackend> FromIndex(
      std::unique_ptr<IndexFile> file, std::size_t pool_pages,
      EvictionPolicy eviction, const Tuning& tuning = Tuning());

  BackendKind backend_kind() const override { return BackendKind::kFile; }
  const char* name() const override { return "file"; }
  std::size_t size() const override { return file_->num_objects(); }
  std::size_t length() const override { return file_->series_length(); }
  SeriesHandle Fetch(std::size_t i, FetchStats* stats) const override;
  [[nodiscard]] StatusOr<SeriesHandle> TryFetch(
      std::size_t i, FetchStats* stats) const override;
  int label(std::size_t i) const override;
  [[nodiscard]] Status error() const override;
  void ClearError() const override;
  SignatureRows stored_signatures() const override;
  IndexRows stored_index_rows() const override;

  [[nodiscard]] const IndexFile& file() const { return *file_; }
  [[nodiscard]] const BufferPool& pool() const { return pool_; }
  [[nodiscard]] const RetryPolicy& retry_policy() const { return retry_; }
  /// Injected-fault totals; all-zero when no fault schedule is installed.
  [[nodiscard]] FaultCounters fault_counters() const;

 private:
  FileBackend(std::unique_ptr<IndexFile> file, std::size_t pool_pages,
              EvictionPolicy eviction, const Tuning& tuning);

  /// Pins `page` with bounded retry-with-backoff; transient failures
  /// (IsRetryableStorageError) are re-attempted up to the policy budget,
  /// accumulating per-attempt I/O into `stats`.
  [[nodiscard]] StatusOr<BufferPool::Pinned> PinWithRetry(
      std::size_t page, FetchStats* stats) const;

  const std::unique_ptr<IndexFile> file_;
  const RetryPolicy retry_;
  /// Null when disabled; set once in the constructor.
  const std::unique_ptr<FaultSchedule> fault_schedule_;
  const std::unique_ptr<FaultInjectingSource> fault_source_;
  /// SYNC-EXEMPT: internally synchronized — BufferPool owns its own Mutex.
  mutable BufferPool pool_;
  /// kBackendError rank: acquired with no other lock held (PinWithRetry
  /// releases the pool pin before Fetch latches a failure), and strictly
  /// above the pool so error() may never be called from inside a pin.
  mutable Mutex error_mutex_{LockRank::kBackendError};
  /// First failure from an unchecked Fetch.
  mutable Status error_ ROTIND_GUARDED_BY(error_mutex_);
};

/// StorageBackend decorator that injects faults at the *object fetch*
/// boundary — above any pool or retry machinery — so engine- and
/// server-level error handling can be driven deterministically over any
/// inner backend (including the in-memory ones that cannot otherwise
/// fail). Fault keys are object ids.
class FaultInjectingBackend final : public StorageBackend {
 public:
  /// Owning: the decorator keeps `inner` alive.
  FaultInjectingBackend(std::unique_ptr<StorageBackend> inner,
                        const FaultScheduleSpec& spec);
  /// Borrowing: `inner` must outlive the decorator.
  FaultInjectingBackend(const StorageBackend& inner,
                        const FaultScheduleSpec& spec);

  BackendKind backend_kind() const override {
    return inner_->backend_kind();
  }
  const char* name() const override { return "fault-injecting"; }
  std::size_t size() const override { return inner_->size(); }
  std::size_t length() const override { return inner_->length(); }
  SeriesHandle Fetch(std::size_t i, FetchStats* stats) const override;
  [[nodiscard]] StatusOr<SeriesHandle> TryFetch(
      std::size_t i, FetchStats* stats) const override;
  int label(std::size_t i) const override { return inner_->label(i); }
  [[nodiscard]] Status error() const override;
  void ClearError() const override;
  // resident_tiles()/stored_signatures()/stored_index_rows() deliberately
  // stay null: injected faults must reach every candidate through Fetch.

  [[nodiscard]] FaultCounters fault_counters() const {
    return schedule_.counters();
  }
  [[nodiscard]] const StorageBackend& inner() const { return *inner_; }

 private:
  const std::unique_ptr<StorageBackend> owned_;
  const StorageBackend* const inner_;
  /// SYNC-EXEMPT: internally synchronized — FaultSchedule owns its own
  /// Mutex.
  mutable FaultSchedule schedule_;
  mutable Mutex error_mutex_{LockRank::kBackendError};
  /// First injected failure from unchecked Fetch.
  mutable Status error_ ROTIND_GUARDED_BY(error_mutex_);
};

/// Backend selection, carried inside EngineOptions. kInMemory and
/// kSimulated build over the caller's dataset; kFile opens `index_path`.
struct StorageOptions {
  BackendKind backend = BackendKind::kInMemory;
  std::string index_path;               ///< kFile: RIDX file to open.
  std::size_t pool_pages = 64;          ///< kFile: BufferPool capacity.
  EvictionPolicy eviction = EvictionPolicy::kLru;
  std::size_t page_size_bytes = 4096;   ///< kSimulated page size.
  RetryPolicy retry;                    ///< kFile: transient-fault retry.
  FaultScheduleSpec faults;             ///< kFile: injected-fault schedule.
};

/// Builds the backend `options` asks for. `in_memory_source` is required
/// for kInMemory (borrowed — must outlive the backend) and kSimulated
/// (copied); it is ignored for kFile.
[[nodiscard]] StatusOr<std::unique_ptr<StorageBackend>> OpenBackend(
    const StorageOptions& options, const FlatDataset* in_memory_source);

}  // namespace rotind::storage

#endif  // ROTIND_STORAGE_BACKEND_H_
