#include "src/storage/backend.h"

#include <cstring>
#include <thread>
#include <utility>

namespace rotind::storage {

bool IsRetryableStorageError(StatusCode code) {
  // kIoError: the read itself failed (transient EIO class).
  // kCorruptHeader: a torn page — the checksum caught bytes from a
  // half-completed write; a re-read may observe the completed write.
  return code == StatusCode::kIoError || code == StatusCode::kCorruptHeader;
}

StatusOr<SeriesHandle> StorageBackend::TryFetch(std::size_t i,
                                                FetchStats* stats) const {
  if (i >= size()) {
    return Status::OutOfRange("object id " + std::to_string(i) +
                              " not in [0, " + std::to_string(size()) + ")");
  }
  SeriesHandle handle = Fetch(i, stats);
  if (!handle.valid()) {
    Status latched = error();
    if (!latched.ok()) return latched;
    return Status::Internal("backend returned an invalid handle");
  }
  return handle;
}

int StorageBackend::label(std::size_t) const { return 0; }

// --------------------------------------------------------------------------
// InMemoryBackend

SeriesHandle InMemoryBackend::Fetch(std::size_t i, FetchStats* stats) const {
  if (stats != nullptr) ++stats->object_fetches;
  return SeriesHandle::Borrowed(flat_->data(i), flat_->length());
}

int InMemoryBackend::label(std::size_t i) const {
  return i < flat_->labels().size() ? flat_->labels()[i] : 0;
}

// --------------------------------------------------------------------------
// SimulatedBackend

SimulatedBackend::SimulatedBackend(const std::vector<Series>& db,
                                   std::size_t page_size_bytes)
    : disk_(page_size_bytes) {
  disk_.StoreAll(db);
  length_ = db.empty() ? 0 : db[0].size();
}

SimulatedBackend::SimulatedBackend(const FlatDataset& flat,
                                   std::size_t page_size_bytes)
    : disk_(page_size_bytes), length_(flat.length()) {
  for (std::size_t i = 0; i < flat.size(); ++i) {
    (void)disk_.Store(flat.Materialize(i));
  }
}

SeriesHandle SimulatedBackend::Fetch(std::size_t i, FetchStats* stats) const {
  const int id = static_cast<int>(i);
  if (stats != nullptr) {
    ++stats->object_fetches;
    const std::uint64_t pages = disk_.PagesSpanned(id);
    stats->page_reads += pages;
    stats->bytes_read += pages * disk_.page_size_bytes();
  }
  // Fetch() (not Peek) so the disk's own cumulative counters advance in
  // lockstep with the per-call stats — parity with the pre-backend code.
  const Series& s = disk_.Fetch(id);
  return SeriesHandle::Borrowed(s.data(), s.size());
}

// --------------------------------------------------------------------------
// FileBackend

FileBackend::FileBackend(std::unique_ptr<IndexFile> file,
                         std::size_t pool_pages, EvictionPolicy eviction,
                         const Tuning& tuning)
    : file_(std::move(file)),
      retry_(tuning.retry),
      fault_schedule_(tuning.faults.enabled()
                          ? std::make_unique<FaultSchedule>(tuning.faults)
                          : nullptr),
      fault_source_(fault_schedule_ != nullptr
                        ? std::make_unique<FaultInjectingSource>(
                              *file_, *fault_schedule_)
                        : nullptr),
      pool_(fault_source_ != nullptr
                ? static_cast<const PageSource&>(*fault_source_)
                : static_cast<const PageSource&>(*file_),
            pool_pages, eviction) {}

StatusOr<std::unique_ptr<FileBackend>> FileBackend::Open(
    const std::string& path, std::size_t pool_pages, EvictionPolicy eviction,
    const Tuning& tuning) {
  StatusOr<std::unique_ptr<IndexFile>> file = IndexFile::Open(path);
  if (!file.ok()) return file.status();
  return std::unique_ptr<FileBackend>(
      new FileBackend(*std::move(file), pool_pages, eviction, tuning));
}

std::unique_ptr<FileBackend> FileBackend::FromIndex(
    std::unique_ptr<IndexFile> file, std::size_t pool_pages,
    EvictionPolicy eviction, const Tuning& tuning) {
  return std::unique_ptr<FileBackend>(
      new FileBackend(std::move(file), pool_pages, eviction, tuning));
}

FaultCounters FileBackend::fault_counters() const {
  return fault_schedule_ != nullptr ? fault_schedule_->counters()
                                    : FaultCounters();
}

StatusOr<BufferPool::Pinned> FileBackend::PinWithRetry(
    std::size_t page, FetchStats* stats) const {
  std::chrono::nanoseconds backoff = retry_.initial_backoff;
  for (int attempt = 1;; ++attempt) {
    BufferPool::PinOutcome outcome;
    StatusOr<BufferPool::Pinned> pinned = pool_.Pin(page, &outcome);
    if (pinned.ok()) {
      if (stats != nullptr) {
        if (outcome.hit) {
          ++stats->pool_hits;
        } else {
          ++stats->page_reads;
        }
        if (outcome.evicted) ++stats->pool_evictions;
        stats->bytes_read += outcome.bytes_read;
        if (attempt > 1) ++stats->faults_absorbed;
      }
      return pinned;
    }
    if (!IsRetryableStorageError(pinned.status().code()) ||
        attempt >= retry_.max_attempts) {
      return pinned;  // permanent, or the retry budget is spent: surface.
    }
    if (stats != nullptr) ++stats->retries;
    if (backoff.count() > 0) std::this_thread::sleep_for(backoff);
    backoff = std::chrono::nanoseconds(static_cast<std::int64_t>(
        static_cast<double>(backoff.count()) * retry_.backoff_multiplier));
  }
}

StatusOr<SeriesHandle> FileBackend::TryFetch(std::size_t i,
                                             FetchStats* stats) const {
  if (i >= file_->num_objects()) {
    return Status::OutOfRange("object id " + std::to_string(i) +
                              " not in [0, " +
                              std::to_string(file_->num_objects()) + ")");
  }
  const IndexFile::Extent extent = file_->extent(i);
  const std::size_t page_size = file_->page_size_bytes();
  const std::size_t first = extent.offset / page_size;
  const std::size_t last = (extent.offset + extent.bytes - 1) / page_size;

  std::vector<double> values(extent.bytes / sizeof(double));
  char* dst = reinterpret_cast<char*>(values.data());
  std::uint64_t copied = 0;
  for (std::size_t page = first; page <= last; ++page) {
    StatusOr<BufferPool::Pinned> pinned = PinWithRetry(page, stats);
    if (!pinned.ok()) return pinned.status();
    const std::uint64_t page_start =
        static_cast<std::uint64_t>(page) * page_size;
    const std::uint64_t from =
        page == first ? extent.offset - page_start : 0;
    const std::uint64_t until =
        page == last ? extent.offset + extent.bytes - page_start : page_size;
    std::memcpy(dst + copied, pinned->data() + from, until - from);
    copied += until - from;
  }
  if (stats != nullptr) ++stats->object_fetches;
  return SeriesHandle::TakeOwned(std::move(values));
}

SeriesHandle FileBackend::Fetch(std::size_t i, FetchStats* stats) const {
  StatusOr<SeriesHandle> handle = TryFetch(i, stats);
  if (handle.ok()) return *std::move(handle);
  MutexLock lock(error_mutex_);
  if (error_.ok()) error_ = handle.status();
  return SeriesHandle();
}

int FileBackend::label(std::size_t i) const {
  const std::vector<int>& labels = file_->labels();
  return i < labels.size() ? labels[i] : 0;
}

Status FileBackend::error() const {
  MutexLock lock(error_mutex_);
  return error_;
}

void FileBackend::ClearError() const {
  MutexLock lock(error_mutex_);
  error_ = Status::Ok();
}

SignatureRows FileBackend::stored_signatures() const {
  if (file_->ri_dims() == 0) return {};
  return {file_->ri_signatures().data(), file_->ri_dims()};
}

IndexRows FileBackend::stored_index_rows() const {
  IndexRows rows;
  if (file_->sig_dims() > 0) {
    rows.fft = {file_->spectral_signatures().data(), file_->sig_dims()};
  }
  if (file_->paa_dims() > 0) {
    rows.paa = {file_->paa_summaries().data(), file_->paa_dims()};
  }
  return rows;
}

// --------------------------------------------------------------------------
// FaultInjectingBackend

FaultInjectingBackend::FaultInjectingBackend(
    std::unique_ptr<StorageBackend> inner, const FaultScheduleSpec& spec)
    : owned_(std::move(inner)), inner_(owned_.get()), schedule_(spec) {}

FaultInjectingBackend::FaultInjectingBackend(const StorageBackend& inner,
                                             const FaultScheduleSpec& spec)
    : inner_(&inner), schedule_(spec) {}

StatusOr<SeriesHandle> FaultInjectingBackend::TryFetch(
    std::size_t i, FetchStats* stats) const {
  const FaultAction action = schedule_.Decide(i);
  switch (action.kind) {
    case FaultKind::kTransientRead:
      return Status::IoError("injected transient read error on object " +
                             std::to_string(i));
    case FaultKind::kTornPage:
      return Status(StatusCode::kCorruptHeader,
                    "injected torn page under object " + std::to_string(i) +
                        ": checksum mismatch");
    case FaultKind::kLatencySpike:
      std::this_thread::sleep_for(action.latency);
      break;
    case FaultKind::kNone:
      break;
  }
  return inner_->TryFetch(i, stats);
}

SeriesHandle FaultInjectingBackend::Fetch(std::size_t i,
                                          FetchStats* stats) const {
  StatusOr<SeriesHandle> handle = TryFetch(i, stats);
  if (handle.ok()) return *std::move(handle);
  MutexLock lock(error_mutex_);
  if (error_.ok()) error_ = handle.status();
  return SeriesHandle();
}

Status FaultInjectingBackend::error() const {
  // Scoped: the inner backend's error_mutex_ shares this rank, so it must
  // not be acquired while ours is held.
  {
    MutexLock lock(error_mutex_);
    if (!error_.ok()) return error_;
  }
  return inner_->error();
}

void FaultInjectingBackend::ClearError() const {
  {
    MutexLock lock(error_mutex_);
    error_ = Status::Ok();
  }
  inner_->ClearError();
}

// --------------------------------------------------------------------------
// OpenBackend

StatusOr<std::unique_ptr<StorageBackend>> OpenBackend(
    const StorageOptions& options, const FlatDataset* in_memory_source) {
  switch (options.backend) {
    case BackendKind::kInMemory:
      if (in_memory_source == nullptr) {
        return Status::InvalidArgument(
            "in-memory backend needs a source dataset");
      }
      return std::unique_ptr<StorageBackend>(
          std::make_unique<InMemoryBackend>(*in_memory_source));
    case BackendKind::kSimulated:
      if (in_memory_source == nullptr) {
        return Status::InvalidArgument(
            "simulated backend needs a source dataset");
      }
      return std::unique_ptr<StorageBackend>(
          std::make_unique<SimulatedBackend>(*in_memory_source,
                                             options.page_size_bytes));
    case BackendKind::kFile: {
      if (options.index_path.empty()) {
        return Status::InvalidArgument(
            "file backend needs EngineOptions storage.index_path");
      }
      FileBackend::Tuning tuning;
      tuning.retry = options.retry;
      tuning.faults = options.faults;
      StatusOr<std::unique_ptr<FileBackend>> backend = FileBackend::Open(
          options.index_path, options.pool_pages, options.eviction, tuning);
      if (!backend.ok()) return backend.status();
      return std::unique_ptr<StorageBackend>(*std::move(backend));
    }
  }
  return Status::InvalidArgument("unknown backend kind");
}

}  // namespace rotind::storage
