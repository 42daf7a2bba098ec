#ifndef ROTIND_SEARCH_ENGINE_H_
#define ROTIND_SEARCH_ENGINE_H_

#include <atomic>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/cancel.h"
#include "src/core/flat_dataset.h"
#include "src/core/series.h"
#include "src/core/status.h"
#include "src/core/step_counter.h"
#include "src/distance/measure.h"
#include "src/distance/rotation.h"
#include "src/obs/metrics.h"
#include "src/search/hmerge.h"
#include "src/search/scan.h"
#include "src/storage/backend.h"

namespace rotind {

struct CascadeState;

/// One stage of the pruning cascade. A cascade is an optional source
/// stage that orders the visit, then an ordered list of filters followed by
/// one terminal (exact) evaluator: each filter is a cheap lower bound that
/// discards candidates provably at or above the current threshold
/// (Lemire's two-pass principle: bounds compose as increasingly tight
/// filters), and the terminal stage computes the exact thresholded
/// distance. Because every bound is a true lower bound (Propositions 1-2),
/// any composition returns exactly the same matches as brute force — only
/// the work differs.
enum class StageKind {
  /// Source: the paper's signature index (Section 4.2 / Table 7, see
  /// SignatureIndex). Instead of visiting candidates in database order,
  /// the driver visits them in ascending signature-bound order and stops
  /// once the bound reaches the collector's threshold; every visited
  /// candidate runs the rest of the cascade. Euclidean: VP-tree over the
  /// first EngineOptions::index_dims FFT magnitudes. Banded DTW: ascending
  /// LB_PAA. Always leads the normalized cascade; dropped for kLcss and
  /// for the unconstrained-DTW terminal, like kLbImproved.
  kSignatureIndex,
  /// Filter: rotation-invariant FFT-magnitude lower bound (paper Section
  /// 4.2), charged n*log2(n) steps per candidate (Section 5.3). Runs as the
  /// kVecSignature filter at full resolution (dims = n/2, one band per
  /// bin), where the two bounds are equal. Each candidate's magnitudes are
  /// computed once per engine, by the first query that reaches it, and
  /// memoized; every later query reads them, and the charge stays
  /// n*log2(n) either way. Never reads stored rows. Sound for kEuclidean
  /// only; dropped for other measures.
  kFftMagnitude,
  /// Filter: band-pooled rotation/mirror-invariant vector embedding
  /// (fourier::VecSignature). A database whose RIDX v2 signature section
  /// fits the series length supplies every row up front, charged dims
  /// steps per candidate; otherwise each candidate is embedded once per
  /// engine into a memo like kFftMagnitude's, charged n*log2(n) per
  /// candidate on every query like the FFT filter. Sound for kEuclidean
  /// only; dropped for other measures.
  kVecSignature,
  /// Filter: two-pass LB_Improved (Lemire) against the query's rotation
  /// wedge — the second-chance stage after LB_Keogh fails to prune. Sound
  /// for kEuclidean (band 0) and banded kDtw; dropped for kLcss and for
  /// the unconstrained-DTW terminal (kFullScan under kDtw), which a banded
  /// bound does not lower-bound.
  kLbImproved,
  /// Terminal: hierarchal LB_Keogh wedges + H-Merge + dynamic K (the
  /// paper's contribution). Exact.
  kWedge,
  /// Terminal: early-abandoning rotation scan (paper Table 2/3).
  kExactScan,
  /// Terminal: full evaluation of every rotation, no abandoning
  /// (unconstrained DTW for kDtw).
  kFullScan,
  /// Terminal: full evaluation with the Sakoe-Chiba band (kDtw); same as
  /// kFullScan for other measures.
  kFullScanBanded,
};

/// An ordered pruning pipeline. Invalid compositions are normalized, never
/// silently misinterpreted: stages that are unsound for the configured
/// measure are dropped, kSignatureIndex moves to the front, everything
/// after the first terminal stage is ignored, and a filter-only cascade
/// gets kExactScan appended.
struct CascadeSpec {
  std::vector<StageKind> stages = {StageKind::kWedge};

  /// The composition equivalent to one legacy ScanAlgorithm under `kind`
  /// (e.g. kFftLowerBound + kEuclidean -> {kFftMagnitude, kExactScan}).
  static CascadeSpec ForAlgorithm(ScanAlgorithm algorithm, DistanceKind kind);

  /// Returns the normalized form described above.
  CascadeSpec Normalized(DistanceKind kind) const;
};

/// Full engine configuration. Distance kind, band, and rotation options are
/// single-sourced here — the wedge policy cannot carry contradictory
/// copies (see WedgePolicy).
struct EngineOptions {
  DistanceKind kind = DistanceKind::kEuclidean;
  /// Sakoe-Chiba band for kDtw.
  int band = 5;
  /// LCSS knobs for kLcss (delta plays the band's role).
  LcssOptions lcss;
  RotationOptions rotation;
  WedgePolicy wedge;
  CascadeSpec cascade;
  /// Signature dimensionality D of the kSignatureIndex stage: FFT
  /// magnitudes under kEuclidean (1..n/2), PAA segments under kDtw (1..n).
  /// A file backend whose RIDX file carries the measure's section
  /// overrides this with the stored dimensionality (the rows were computed
  /// when the file was written). Unused without the stage.
  std::size_t index_dims = 16;
  /// Dimensionality of the kVecSignature filter's pooled embedding when the
  /// backend has no stored RIDX v2 rows (clamped to [1, n/2]). A
  /// file backend with a signature section overrides this: the stored
  /// dimensionality is authoritative, since both sides must agree.
  std::size_t vec_sig_dims = 8;
  /// Where candidate series live: in-memory borrow (default), the paper's
  /// simulated-disk accounting, or a paged RIDX index file behind a
  /// BufferPool (file selection requires QueryEngine::Open — the borrowing
  /// constructor cannot report an open failure).
  storage::StorageOptions storage;
};

/// Maps a legacy (algorithm, options) pair onto the engine configuration
/// that reproduces it exactly. Used by the benches, tests, and the CLI.
EngineOptions EngineOptionsFrom(const ScanOptions& options,
                                ScanAlgorithm algorithm);

/// Sorts range hits into the one order every range result comes back in:
/// ascending distance, equal distances by ascending index, so the order
/// never depends on which order a scan visited the candidates in.
void SortRangeHits(std::vector<Neighbor>* hits);

/// Runs fn(i) for every i in [0, count) across a small worker pool of
/// `num_threads` threads (clamped to [1, count], and additionally capped at
/// 256 — a std::thread costs a stack, and beyond the machine's core count
/// extra workers only add scheduling overhead; the CLI exposes the same
/// bound on --threads). Work items must be independent and write only to
/// per-index slots; completion order is unspecified. With num_threads <= 1
/// the loop runs inline, bit-identical to the threaded path by
/// construction.
///
/// Exception safety: if fn throws, the FIRST exception (by capture order)
/// is caught, the remaining queue is drained without running further items,
/// all workers are joined, and the exception is rethrown to the caller —
/// the process is never terminated by a worker-thread exception. Items
/// after the failure may or may not have run; their output slots are
/// unspecified.
void ParallelFor(std::size_t count, int num_threads,
                 const std::function<void(std::size_t)>& fn);

/// A best-so-far threshold shared across engines scanning DISJOINT
/// partitions of one database concurrently (ShardedIndex's parallel shard
/// search). Each worker publishes its local pruning threshold as it
/// improves; every worker's cascade prunes against
/// min(local, nextafter(shared, +inf)).
///
/// Exactness: a published value is always the distance of a REAL candidate
/// (or a k-th-best over real candidates), so it is >= the true global
/// answer d*. A candidate pruned against nextafter(shared) has
/// distance >= nextafter(shared) > shared >= d* — strictly worse than the
/// winner even under ties — so cross-partition pruning can never discard a
/// correct result. The one-ulp outward nudge keeps a candidate whose
/// distance EQUALS the foreign bound alive: local collectors break ties by
/// scan order, and a foreign tie carries no order information.
///
/// Lock-free by design (a mutex here would serialize the scans this class
/// exists to parallelize): one atomic double, monotonically non-increasing
/// under a CAS loop, relaxed ordering — the value is a pruning HINT whose
/// staleness only costs work, never correctness.
class SharedBound {
 public:
  SharedBound() = default;
  SharedBound(const SharedBound&) = delete;
  SharedBound& operator=(const SharedBound&) = delete;

  /// Current bound; +inf until the first Publish.
  double load() const { return bound_.load(std::memory_order_relaxed); }

  /// Monotonic CAS-min: the bound only ever tightens, regardless of the
  /// interleaving of concurrent publishers.
  void Publish(double candidate) {
    double current = bound_.load(std::memory_order_relaxed);
    while (candidate < current &&
           !bound_.compare_exchange_weak(current, candidate,
                                         std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> bound_{std::numeric_limits<double>::infinity()};
};

/// The layered query engine: FlatDataset storage -> Measure -> pruning
/// cascade -> one generic driver (parameterized by a result collector:
/// best-so-far, k-th-best heap, or radius) -> batch execution.
///
/// Observability: every search method also takes a nullable
/// `obs::QueryMetrics*`. When non-null, the engine attributes candidate
/// flow, step counts, early abandons, and wall time to each cascade stage,
/// records wedge-level H-Merge behavior and the dynamic-K trajectory, and
/// adds one end-to-end latency sample per query. Passing nullptr (the
/// default) skips all of it and reproduces the uninstrumented results
/// bit-for-bit — the same zero-cost-when-null contract StepCounter has.
/// Stage attribution is exact: per-stage steps + setup_steps sum to the
/// query's StepCounter::total_steps().
///
/// Candidate series are fetched through a storage::StorageBackend: a
/// zero-copy in-memory borrow by default, the paper's simulated-disk
/// accounting, or a real paged index file behind a BufferPool — selected by
/// EngineOptions::storage. A borrowed FlatDataset must outlive the engine.
/// All search methods are const and safe to call concurrently on one
/// engine — this is what SearchBatch relies on. Per-query state (rotation
/// sets, wedge trees, query signatures) is built per call; the backends
/// are internally synchronized; the signature index is immutable once
/// built; and the signature-row memo of the kVecSignature/kFftMagnitude
/// stages is internally synchronized without a lock (each row is claimed
/// and published through its own atomic, and a query that loses a claim
/// uses its own copy). A row is a pure function of the candidate's bytes,
/// so answers and counters never depend on which query filled it.
class QueryEngine {
 public:
  /// Engine over contiguous storage (the fast path). Honors
  /// options.storage for the in-memory and simulated backends; asking for
  /// the file backend here is a contract violation (open can fail) — use
  /// Open(). So is a kSignatureIndex stage whose index dims do not fit the
  /// series length (see SignatureIndex::ValidateDims); Open() reports it.
  explicit QueryEngine(const FlatDataset& db,
                       const EngineOptions& options = {});

  /// Engine owning an explicit backend (the composition root for tests and
  /// Open()).
  QueryEngine(std::unique_ptr<storage::StorageBackend> backend,
              const EngineOptions& options = {});

  /// Builds the backend options.storage asks for and the engine over it.
  /// This is the only way to get a file-backed engine: opening the index
  /// can fail (kNotFound, kBadMagic, ...) and the Status must reach the
  /// caller. Also returns kInvalidArgument when a kSignatureIndex stage's
  /// dims do not fit the series length. `in_memory_source` feeds the
  /// in-memory/simulated kinds and is ignored for kFile.
  [[nodiscard]] static StatusOr<std::unique_ptr<QueryEngine>> Open(
      const EngineOptions& options,
      const FlatDataset* in_memory_source = nullptr);

  /// Borrowing a temporary database would dangle immediately; forbidden.
  explicit QueryEngine(FlatDataset&&, const EngineOptions& = {}) = delete;

  ~QueryEngine();

  const EngineOptions& options() const { return options_; }
  /// The storage candidates are fetched from (never null).
  const storage::StorageBackend* backend() const { return backend_.get(); }
  std::size_t database_size() const { return backend_->size(); }
  /// Common series length of the database (0 when empty).
  std::size_t database_length() const { return backend_->length(); }

  /// 1-NN: the rotation-invariant nearest neighbor of `query`.
  ScanResult Search(const Series& query,
                    obs::QueryMetrics* metrics = nullptr) const;

  /// 1-NN skipping database index `holdout` (leave-one-out protocols:
  /// classification, the benches' query-from-database methodology).
  /// Result indexes refer to the full database. holdout >= size() skips
  /// nothing.
  ScanResult SearchLeaveOneOut(const Series& query, std::size_t holdout,
                               obs::QueryMetrics* metrics = nullptr) const;

  /// k-NN, ascending by distance; the k-th best distance prunes.
  std::vector<Neighbor> Knn(const Series& query, int k,
                            StepCounter* counter = nullptr,
                            obs::QueryMetrics* metrics = nullptr) const;

  /// k-NN skipping database index `holdout` (see SearchLeaveOneOut).
  std::vector<Neighbor> KnnLeaveOneOut(const Series& query, int k,
                                       std::size_t holdout,
                                       StepCounter* counter = nullptr,
                                       obs::QueryMetrics* metrics = nullptr)
      const;

  /// Range query: every object within `radius`, ascending by distance,
  /// equal distances by index (see SortRangeHits).
  std::vector<Neighbor> Range(const Series& query, double radius,
                              StepCounter* counter = nullptr,
                              obs::QueryMetrics* metrics = nullptr) const;

  /// 1-NN with a cross-partition best-so-far exchange: behaves exactly
  /// like SearchLeaveOneOut over THIS engine's database, but additionally
  /// prunes against `shared` (one ulp outward, so foreign ties never
  /// displace a local winner) and publishes local improvements into it.
  /// Used by ShardedIndex to search disjoint shards in parallel with
  /// GLOBAL pruning power; with a fresh SharedBound it degenerates to
  /// SearchLeaveOneOut bit-for-bit. `shared` must be non-null.
  ScanResult SearchShared(const Series& query, std::size_t holdout,
                          SharedBound* shared,
                          obs::QueryMetrics* metrics = nullptr) const;

  /// k-NN variant of SearchShared: publishes the local k-th-best distance
  /// (a sound global bound — any candidate outside its own partition's
  /// top k is outside the global top k).
  std::vector<Neighbor> KnnShared(const Series& query, int k,
                                  std::size_t holdout, SharedBound* shared,
                                  StepCounter* counter = nullptr,
                                  obs::QueryMetrics* metrics = nullptr) const;

  /// Validates a query against this engine's database: non-empty, finite,
  /// and length-matching.
  [[nodiscard]] Status ValidateQuery(const Series& query) const;
  /// The same check against any database of `db_size` series of common
  /// length `db_length` (an empty database accepts every length), for
  /// callers that validate once for several engines (ShardedIndex's
  /// parallel paths) and must report the engine's exact messages.
  [[nodiscard]] static Status ValidateQuery(const Series& query,
                                            std::size_t db_size,
                                            std::size_t db_length);
  /// The argument checks KnnChecked (k >= 1) and RangeChecked (finite
  /// radius >= 0) apply after ValidateQuery.
  [[nodiscard]] static Status ValidateK(int k);
  [[nodiscard]] static Status ValidateRadius(double radius);

  /// Checked variants: the validated public entry points. `cancel`, when
  /// non-null, is polled cooperatively at every cascade stage boundary
  /// (fetch / filter / terminal, per candidate); a fired token aborts the
  /// scan and the call returns the token's typed Status (kDeadlineExceeded
  /// or kCancelled) — NEVER a partial result presented as exact. `metrics`
  /// has the same contract as on the unchecked entry points.
  [[nodiscard]] StatusOr<ScanResult> SearchChecked(
      const Series& query, const CancelToken* cancel = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;
  [[nodiscard]] StatusOr<std::vector<Neighbor>> KnnChecked(
      const Series& query, int k, StepCounter* counter = nullptr,
      const CancelToken* cancel = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;
  [[nodiscard]] StatusOr<std::vector<Neighbor>> RangeChecked(
      const Series& query, double radius, StepCounter* counter = nullptr,
      const CancelToken* cancel = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;

  /// Batch 1-NN over a worker pool. Results (including each per-query
  /// StepCounter) are BIT-IDENTICAL to running Search sequentially: queries
  /// are independent, each runs single-threaded, and `merged` accumulates
  /// per-query counters in query order regardless of which worker ran them.
  /// `metrics`, when given, is merged the same way (thread-local per-query
  /// metrics, folded in query order), so every count except wall time and
  /// latency is independent of the thread count.
  std::vector<ScanResult> SearchBatch(const std::vector<Series>& queries,
                                      int num_threads,
                                      StepCounter* merged = nullptr,
                                      obs::QueryMetrics* metrics = nullptr)
      const;

  /// Batch k-NN; same determinism guarantee as SearchBatch.
  std::vector<std::vector<Neighbor>> KnnSearchBatch(
      const std::vector<Series>& queries, int k, int num_threads,
      StepCounter* merged = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;

  /// Batch range search; same determinism guarantee as SearchBatch.
  std::vector<std::vector<Neighbor>> RangeSearchBatch(
      const std::vector<Series>& queries, double radius, int num_threads,
      StepCounter* merged = nullptr,
      obs::QueryMetrics* metrics = nullptr) const;

 private:
  std::unique_ptr<storage::StorageBackend> backend_;
  EngineOptions options_;
  /// What the cascade's stages keep across queries: the signature index
  /// and the signature-row memos, each built at construction only when
  /// the normalized cascade holds its stage (never null itself).
  std::unique_ptr<const CascadeState> state_;
};

}  // namespace rotind

#endif  // ROTIND_SEARCH_ENGINE_H_
