#include "src/search/engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <thread>
#include <utility>

#include "src/core/contracts.h"
#include "src/core/sync.h"
#include "src/distance/euclidean.h"
#include "src/envelope/lower_bound.h"
#include "src/fourier/spectral.h"
#include "src/search/lcss_search.h"
#include "src/search/signature_index.h"
#include "src/simd/simd.h"

namespace rotind {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// The blocked drivers hand FlatDataset tiles straight to the blocked ED
// kernels; the two lane widths are one constant seen from two layers.
static_assert(FlatDataset::kTileLanes == simd::kBlockLanes,
              "SoA tile width must match the simd kernel lane width");

bool IsTerminal(StageKind kind) {
  return kind != StageKind::kSignatureIndex &&
         kind != StageKind::kFftMagnitude &&
         kind != StageKind::kVecSignature && kind != StageKind::kLbImproved;
}

/// Observability bucket for each cascade stage.
obs::StageId StageIdFor(StageKind kind) {
  switch (kind) {
    case StageKind::kSignatureIndex: return obs::StageId::kSignatureFilter;
    case StageKind::kFftMagnitude: return obs::StageId::kFftFilter;
    case StageKind::kVecSignature: return obs::StageId::kVecSignature;
    case StageKind::kLbImproved: return obs::StageId::kLbImproved;
    case StageKind::kWedge: return obs::StageId::kWedge;
    case StageKind::kExactScan: return obs::StageId::kExactScan;
    case StageKind::kFullScan: return obs::StageId::kFullScan;
    case StageKind::kFullScanBanded: return obs::StageId::kFullScanBanded;
  }
  return obs::StageId::kExactScan;
}

using obs::QueryLatencyScope;
using obs::StageScope;

/// Per-candidate outcome of one cascade pass, in the thresholded contract
/// the drivers expect: found implies distance < the threshold passed in.
struct CandidateMatch {
  double distance = kInf;
  int shift = 0;
  bool mirrored = false;
  bool found = false;
};

/// A cheap lower-bound filter: returns true when the candidate provably
/// cannot beat `threshold`. `index` is the candidate's database position —
/// filters backed by resident per-object sections (stored RIDX v2
/// signature rows) key off it; purely computational filters ignore it.
class FilterStage {
 public:
  virtual ~FilterStage() = default;
  virtual bool Prune(std::size_t index, const double* c, double threshold,
                     StepCounter* counter) const = 0;
  /// The observability bucket this filter's work and candidate flow land
  /// in, so a multi-filter cascade attributes pruning power per stage.
  virtual obs::StageId stage_id() const = 0;
};

/// The candidate side of a VecSignature filter stage: one count x dims
/// row-major matrix of MakeVecSignature rows, shared by every query of an
/// engine. Either borrowed from RIDX v2 stored rows (every row ready from
/// the start, charged dims steps per candidate) or owned and filled
/// lazily, charged n*log2(n) per candidate as in paper Section 5.3 whether
/// the row was already there or not. A lazy row is embedded by the first
/// query that reaches its candidate, from the bytes that query already
/// fetched, so the memo adds no I/O; each row moves empty -> writing ->
/// ready through its own atomic claim (release on publish, acquire on
/// read), and a query that loses the claim uses its own copy instead of
/// waiting. The stored rows were produced by the same MakeVecSignature
/// over the same candidate bytes, so all three sources give bit-identical
/// rows.
class SignatureRowMemo {
 public:
  /// Borrows `stored` (count x stored.dims over series of length n; the
  /// rows outlive the memo).
  static SignatureRowMemo Stored(storage::SignatureRows stored,
                                 std::size_t n) {
    SignatureRowMemo memo(n, stored.dims, stored.dims);
    memo.stored_ = stored.rows;
    return memo;
  }

  /// An empty memo of `count` candidates of length n >= 2 at `dims` bands
  /// (in [1, n/2]).
  static SignatureRowMemo Lazy(std::size_t count, std::size_t n,
                               std::size_t dims) {
    SignatureRowMemo memo(n, dims, FftStepCost(n));
    memo.rows_ = std::make_unique_for_overwrite<double[]>(count * dims);
    // Value-initialized: every claim starts kEmpty.
    memo.claims_ = std::make_unique<std::atomic<std::uint8_t>[]>(count);
    return memo;
  }

  /// Length of the series the rows embed.
  std::size_t length() const { return n_; }
  std::size_t dims() const { return dims_; }
  /// Steps charged per candidate, hit or miss.
  std::uint64_t step_cost() const { return step_cost_; }

  /// Candidate `index`'s row. `c` is its series (length n), embedded when
  /// the row is not ready yet; `scratch` holds the row when another query
  /// holds the claim. Safe to call concurrently.
  const double* Row(std::size_t index, const double* c,
                    std::vector<double>* scratch) const {
    if (stored_ != nullptr) return stored_ + index * dims_;
    double* row = rows_.get() + index * dims_;
    std::atomic<std::uint8_t>& claim = claims_[index];
    if (claim.load(std::memory_order_acquire) == kReady) return row;
    VecSignature sig = MakeVecSignature(Series(c, c + n_), dims_);
    std::uint8_t expected = kEmpty;
    // The claim itself orders nothing: only the release below publishes.
    if (claim.compare_exchange_strong(expected, kWriting,
                                      std::memory_order_relaxed)) {
      std::copy(sig.values.begin(), sig.values.end(), row);
      claim.store(kReady, std::memory_order_release);
      return row;
    }
    *scratch = std::move(sig.values);
    return scratch->data();
  }

 private:
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kWriting = 1;
  static constexpr std::uint8_t kReady = 2;

  SignatureRowMemo(std::size_t n, std::size_t dims, std::uint64_t step_cost)
      : n_(n), dims_(dims), step_cost_(step_cost) {}

  std::size_t n_;
  std::size_t dims_;
  std::uint64_t step_cost_;
  const double* stored_ = nullptr;
  std::unique_ptr<double[]> rows_;
  std::unique_ptr<std::atomic<std::uint8_t>[]> claims_;
};

/// The memo a spectral filter stage reads for queries of length n over
/// `backend`'s candidates: for kVecSignature, the backend's stored RIDX v2
/// rows when their dimensionality fits the pooled space (dims <= n/2, or
/// the two sides of the distance would be incomparable), else an empty
/// lazy memo at dims = clamp(vec_sig_dims, 1, n/2); for kFftMagnitude, an
/// empty lazy memo at n/2 — it never reads stored rows, which would charge
/// dims steps per candidate instead of the paper's n*log2(n). None when
/// n < 2: no spectrum to pool.
std::unique_ptr<SignatureRowMemo> MemoFor(
    StageKind kind, const storage::StorageBackend& backend,
    const EngineOptions& options, std::size_t n) {
  if (n < 2) return nullptr;
  if (kind == StageKind::kFftMagnitude) {
    return std::make_unique<SignatureRowMemo>(
        SignatureRowMemo::Lazy(backend.size(), n, n / 2));
  }
  const storage::SignatureRows stored = backend.stored_signatures();
  if (stored.rows != nullptr && stored.dims <= n / 2 &&
      n == backend.length()) {
    return std::make_unique<SignatureRowMemo>(
        SignatureRowMemo::Stored(stored, n));
  }
  return std::make_unique<SignatureRowMemo>(SignatureRowMemo::Lazy(
      backend.size(), n,
      std::min(std::max<std::size_t>(options.vec_sig_dims, 1), n / 2)));
}

}  // namespace

/// What a QueryEngine's cascade stages keep across queries; each member is
/// set only when the normalized cascade holds its stage.
struct CascadeState {
  /// kSignatureIndex: built once, immutable.
  std::shared_ptr<const SignatureIndex> index;
  /// kVecSignature and kFftMagnitude: internally synchronized.
  std::unique_ptr<SignatureRowMemo> vec_rows;
  std::unique_ptr<SignatureRowMemo> fft_rows;
};

namespace {

/// Band-pooled rotation/mirror-invariant vector pre-filter (the VecSignature
/// embedding): ||v(Q) - v(C)||_2 <= RED(Q, C), sound for Euclidean only.
/// The query is embedded once at setup; each candidate's row comes from
/// the stage's SignatureRowMemo. At dims = n/2 every band holds one bin,
/// and the distance equals the paper's FFT-magnitude bound bit-for-bit, so
/// this class also serves StageKind::kFftMagnitude.
class VecSignatureFilter final : public FilterStage {
 public:
  /// `rows` is null when the series are too short to embed (n < 2); Prune
  /// then never fires.
  VecSignatureFilter(const Series& query, const SignatureRowMemo* rows,
                     obs::StageId stage_id, StepCounter* counter)
      : rows_(rows), stage_id_(stage_id) {
    if (rows_ == nullptr) return;
    signature_ = MakeVecSignature(query, rows_->dims());
    AddSetupSteps(counter, FftStepCost(query.size()));
  }

  bool Prune(std::size_t index, const double* c, double threshold,
             StepCounter* counter) const override {
    if (counter != nullptr) ++counter->lower_bound_evals;
    if (rows_ == nullptr) return false;
    AddSteps(counter, rows_->step_cost());
    std::vector<double> scratch;
    const double* row = rows_->Row(index, c, &scratch);
    // Same accumulation order as VecSignatureDistance (query minus
    // candidate, ascending band).
    double acc = 0.0;
    for (std::size_t b = 0; b < signature_.values.size(); ++b) {
      const double diff = signature_.values[b] - row[b];
      acc += diff * diff;
    }
    return std::sqrt(acc) >= threshold;
  }

  obs::StageId stage_id() const override { return stage_id_; }

 private:
  const SignatureRowMemo* rows_;
  obs::StageId stage_id_;
  VecSignature signature_;
};

/// Two-pass LB_Improved second-chance filter (see envelope/lower_bound.h):
/// pass 1 is LB_Keogh of the candidate against the band-expanded rotation
/// wedge, pass 2 adds the gap between the UNexpanded wedge and the sliding
/// envelope of the candidate's projection. Tightness ordering makes it a
/// strict second chance: every candidate LB_Keogh would prune, this prunes
/// too, plus some LB_Keogh misses. Sound for kEuclidean (band 0) and for
/// banded DTW terminals; CascadeSpec::Normalized drops the unsound
/// compositions.
class LbImprovedFilter final : public FilterStage {
 public:
  LbImprovedFilter(const Series& query, const EngineOptions& options,
                   StepCounter* counter) {
    const RotationSet rots(query, options.rotation);
    const std::size_t n = rots.length();
    if (options.kind == DistanceKind::kDtw) {
      // A negative band means the terminal warps without constraint; the
      // full-width band keeps the bound sound there (DTW_{n-1} is the
      // unconstrained distance), and ExpandedForDtw clamps oversized bands.
      band_ = options.band < 0 ? static_cast<int>(n == 0 ? 0 : n - 1)
                               : options.band;
    }
    if (n == 0 || rots.count() == 0) return;  // nothing to bound
    // The wedge encloses EVERY rotation (and mirror) the terminal will
    // consider, so one envelope bounds the whole orbit (paper Section 4.1).
    wedge_ = Envelope::FromSeries(rots.rotation(0), n);
    for (std::size_t r = 1; r < rots.count(); ++r) {
      wedge_.MergeSeries(rots.rotation(r), n);
    }
    AddSetupSteps(counter, rots.count() * n);
    expanded_ = wedge_.ExpandedForDtw(band_);
    AddSetupSteps(counter, 2 * n);
  }

  bool Prune(std::size_t /*index*/, const double* c, double threshold,
             StepCounter* counter) const override {
    if (wedge_.size() == 0) return false;
    const double sq_threshold =
        std::isinf(threshold) ? threshold : threshold * threshold;
    const double sq =
        LbImprovedSquared(c, wedge_, expanded_, band_, sq_threshold, counter);
    // kAbandoned means the accumulator tripped the limit mid-pass; a
    // finite result prunes on >= exactly like the other filters.
    return std::isinf(sq) || sq >= sq_threshold;
  }

  obs::StageId stage_id() const override {
    return obs::StageId::kLbImproved;
  }

 private:
  int band_ = 0;
  Envelope wedge_;
  Envelope expanded_;
};

/// The exact terminal evaluator at the end of every cascade.
class TerminalStage {
 public:
  virtual ~TerminalStage() = default;
  virtual CandidateMatch Evaluate(const double* c, double threshold,
                                  StepCounter* counter) = 0;
  /// Hook fired by the driver when the collector's threshold improves
  /// (dynamic-K re-probing for wedges; no-op otherwise).
  virtual void NotifyImproved(const double* trigger, double best,
                              StepCounter* counter) {
    (void)trigger;
    (void)best;
    (void)counter;
  }

  /// Whether this terminal can score a whole SoA tile group at once.
  /// Default: per-candidate only.
  virtual bool SupportsBlocked() const { return false; }
  /// Scores the first `valid` lanes of one tile (FlatDataset::tile).
  /// out[l].distance must be the lane's exact distance with shift/mirrored
  /// resolved; out[l].found is left false — the DRIVER resolves it against
  /// the live threshold so the stats attribution matches the per-candidate
  /// path exactly.
  virtual void EvaluateBlock(const double* tile, std::size_t valid,
                             CandidateMatch* out, StepCounter* counter) {
    (void)tile;
    (void)valid;
    (void)out;
    (void)counter;
  }

  /// The query's wedge tree when this terminal built one (kWedge under
  /// ED/DTW), so the signature index can reuse it instead of building a
  /// second; null otherwise.
  virtual const WedgeTree* wedge_tree() const { return nullptr; }
};

/// LB_Keogh wedge H-Merge for ED/DTW (the paper's contribution).
class WedgeTerminal final : public TerminalStage {
 public:
  WedgeTerminal(const Series& query, const EngineOptions& options,
                StepCounter* counter, obs::WedgeStats* wedge_stats)
      : wedge_stats_(wedge_stats),
        searcher_(query, MakeWedgeOptions(options), counter) {}

  static WedgeSearchOptions MakeWedgeOptions(const EngineOptions& options) {
    WedgeSearchOptions w;
    static_cast<WedgePolicy&>(w) = options.wedge;
    w.kind = options.kind;
    w.band = options.band;
    w.rotation = options.rotation;
    return w;
  }

  CandidateMatch Evaluate(const double* c, double threshold,
                          StepCounter* counter) override {
    CandidateMatch out;
    const HMergeResult r =
        searcher_.Distance(c, threshold, counter, wedge_stats_);
    if (!r.abandoned) {
      const RotationSet& rots = searcher_.tree().rotations();
      out.distance = r.distance;
      out.shift = rots.shift_of(r.rotation_index);
      out.mirrored = rots.mirrored_of(r.rotation_index);
      out.found = true;
    }
    return out;
  }

  void NotifyImproved(const double* trigger, double best,
                      StepCounter* counter) override {
    searcher_.AdaptK(trigger, best, counter, wedge_stats_);
  }

  const WedgeTree* wedge_tree() const override { return &searcher_.tree(); }

 private:
  obs::WedgeStats* wedge_stats_;
  WedgeSearcher searcher_;
};

/// Wedge pruning in the LCSS similarity domain (paper Section 4.3): the
/// engine's distance threshold 1 - L/n converts to a required match count,
/// and the envelope bound prunes wedges that cannot reach it.
class LcssWedgeTerminal final : public TerminalStage {
 public:
  LcssWedgeTerminal(const Series& query, const LcssOptions& lcss,
                    const RotationOptions& rotation, StepCounter* counter)
      : n_(query.size()),
        lcss_(lcss),
        searcher_(query, lcss, rotation, counter) {}

  CandidateMatch Evaluate(const double* c, double threshold,
                          StepCounter* counter) override {
    CandidateMatch out;
    const double n = static_cast<double>(n_ == 0 ? 1 : n_);
    // Largest length whose distance is still >= threshold: Match must only
    // find lengths strictly beyond it. Guard the floor against FP rounding
    // at integer boundaries using the exact distance expression.
    long bound = -1;
    if (threshold <= 1.0) {
      bound = static_cast<long>(std::floor(n * (1.0 - threshold)));
      bound = std::clamp(bound, -1L, static_cast<long>(n_));
      while (bound >= 0 && 1.0 - static_cast<double>(bound) / n < threshold) {
        --bound;
      }
      while (bound < static_cast<long>(n_) &&
             1.0 - static_cast<double>(bound + 1) / n >= threshold) {
        ++bound;
      }
    }
    if (bound < 0) {
      // Even a zero-length match (distance exactly 1.0) beats the
      // threshold, so nothing can be pruned: every rotation ties at
      // distance <= 1.0 and an exact scan settles which wins.
      const RotationMatch m = RotationInvariantLcss(
          searcher_.tree().rotations(), c, lcss_, counter);
      out.distance = m.distance;
      out.shift = searcher_.tree().rotations().shift_of(m.rotation_index);
      out.mirrored =
          searcher_.tree().rotations().mirrored_of(m.rotation_index);
      out.found = m.distance < threshold;
      return out;
    }
    const LcssMatchResult r = searcher_.Match(
        c, static_cast<std::size_t>(bound), counter);
    if (!r.pruned) {
      const RotationSet& rots = searcher_.tree().rotations();
      out.distance = 1.0 - static_cast<double>(r.length) / n;
      out.shift = rots.shift_of(r.rotation_index);
      out.mirrored = rots.mirrored_of(r.rotation_index);
      out.found = true;
    }
    return out;
  }

 private:
  std::size_t n_;
  LcssOptions lcss_;
  LcssWedgeSearcher searcher_;
};

/// Rotation-scan terminal: full or early-abandoning evaluation of every
/// candidate rotation, dispatched through the unified Measure layer (with
/// the specialized ED/DTW kernels kept on the hot path for step parity
/// with the paper's Tables 1-3).
class ScanTerminal final : public TerminalStage {
 public:
  enum class Mode { kEarlyAbandon, kFull, kFullBanded };

  ScanTerminal(const Series& query, const EngineOptions& options, Mode mode)
      : mode_(mode),
        kind_(options.kind),
        band_(options.band),
        rotations_(query, options.rotation) {
    MeasureParams params;
    params.band = options.band;
    params.lcss = options.lcss;
    measure_ = MakeMeasure(options.kind, params);
  }

  CandidateMatch Evaluate(const double* c, double threshold,
                          StepCounter* counter) override {
    RotationMatch match;
    switch (kind_) {
      case DistanceKind::kEuclidean:
        match = mode_ == Mode::kEarlyAbandon
                    ? EarlyAbandonRotationEuclidean(rotations_, c, threshold,
                                                    counter)
                    : RotationInvariantEuclidean(rotations_, c, counter);
        break;
      case DistanceKind::kDtw:
        switch (mode_) {
          case Mode::kEarlyAbandon:
            match = EarlyAbandonRotationDtw(rotations_, c, band_, threshold,
                                            counter);
            break;
          case Mode::kFull:
            match = RotationInvariantDtw(rotations_, c, /*band=*/-1, counter);
            break;
          case Mode::kFullBanded:
            match = RotationInvariantDtw(rotations_, c, band_, counter);
            break;
        }
        break;
      case DistanceKind::kLcss:
        match = mode_ == Mode::kEarlyAbandon
                    ? MeasureRotationScan(c, threshold, counter)
                    : MeasureFullScan(c, counter);
        break;
    }

    // Full (non-abandoning) modes report any distance; translate into the
    // thresholded contract the drivers expect.
    CandidateMatch out;
    if (!match.abandoned && match.distance < threshold) {
      out.distance = match.distance;
      out.shift = rotations_.shift_of(match.rotation_index);
      out.mirrored = rotations_.mirrored_of(match.rotation_index);
      out.found = true;
    }
    return out;
  }

  bool SupportsBlocked() const override {
    return kind_ == DistanceKind::kEuclidean && mode_ != Mode::kEarlyAbandon;
  }

  // Blocked full-scan ED over one SoA tile, per-lane identical to
  // RotationInvariantEuclidean: each lane tracks its own best SQUARED
  // distance across rotations (strict <, first rotation wins ties) and
  // takes one sqrt at the end. Vectorizing across candidates instead of
  // within one keeps every lane's accumulation chain in scalar order, so
  // distances — and therefore answers and step counts — are bit-identical.
  void EvaluateBlock(const double* tile, std::size_t valid,
                     CandidateMatch* out, StepCounter* counter) override {
    const std::size_t n = rotations_.length();
    double sq_best[simd::kBlockLanes];
    std::size_t best_r[simd::kBlockLanes];
    double out_sq[simd::kBlockLanes];
    for (std::size_t l = 0; l < simd::kBlockLanes; ++l) {
      sq_best[l] = kInf;
      best_r[l] = 0;
    }
    for (std::size_t r = 0; r < rotations_.count(); ++r) {
      SquaredEuclideanBlock(rotations_.rotation(r), tile, n, valid, out_sq,
                            counter);
      if (counter != nullptr) counter->full_evals += valid;
      for (std::size_t l = 0; l < simd::kBlockLanes; ++l) {
        if (out_sq[l] < sq_best[l]) {
          sq_best[l] = out_sq[l];
          best_r[l] = r;
        }
      }
    }
    for (std::size_t l = 0; l < simd::kBlockLanes; ++l) {
      out[l] = CandidateMatch{};
      out[l].distance = std::sqrt(sq_best[l]);
      out[l].shift = rotations_.shift_of(best_r[l]);
      out[l].mirrored = rotations_.mirrored_of(best_r[l]);
    }
  }

 private:
  /// Generic early-abandoning scan over the Measure interface: the path a
  /// new distance measure gets for free.
  RotationMatch MeasureRotationScan(const double* c, double best_so_far,
                                    StepCounter* counter) const {
    RotationMatch best{best_so_far, 0, true};
    double limit = best_so_far;
    for (std::size_t r = 0; r < rotations_.count(); ++r) {
      const double d = measure_->Distance(rotations_.rotation(r), c,
                                          rotations_.length(), limit, counter);
      if (!std::isinf(d) && d < limit) {
        limit = d;
        best.distance = d;
        best.rotation_index = r;
        best.abandoned = false;
      }
    }
    if (best.abandoned) best.distance = kAbandoned;
    return best;
  }

  RotationMatch MeasureFullScan(const double* c, StepCounter* counter) const {
    RotationMatch best{kInf, 0, false};
    for (std::size_t r = 0; r < rotations_.count(); ++r) {
      const double d = measure_->FullDistance(
          rotations_.rotation(r), c, rotations_.length(), counter);
      if (d < best.distance) {
        best.distance = d;
        best.rotation_index = r;
      }
    }
    return best;
  }

  Mode mode_;
  DistanceKind kind_;
  int band_;
  RotationSet rotations_;
  std::unique_ptr<Measure> measure_;
};

/// A compiled per-query cascade: ordered filters then one terminal. When
/// `metrics` is non-null, every stage's candidate flow, step-count delta,
/// early abandons, and wall time are attributed to its obs::StageId —
/// including setup charged during construction — so the per-stage totals
/// sum exactly to the query's StepCounter.
class QueryCascade {
 public:
  /// The spectral filters read the engine's signature-row memos in
  /// `state`; a query whose length differs from the database's (a
  /// validated one can only over an empty database) gets memos of its own
  /// over `backend`.
  QueryCascade(const Series& query, const EngineOptions& options,
               StepCounter* counter, obs::QueryMetrics* metrics,
               const CancelToken* cancel,
               const storage::StorageBackend& backend,
               const CascadeState& state)
      : metrics_(metrics), cancel_(cancel) {
    for (StageKind kind : options.cascade.stages) {
      if (IsTerminal(kind)) {
        terminal_id_ = StageIdFor(kind);
        StageScope scope(StatsFor(terminal_id_), counter);
        switch (kind) {
          case StageKind::kWedge:
            if (options.kind == DistanceKind::kLcss) {
              terminal_ = std::make_unique<LcssWedgeTerminal>(
                  query, options.lcss, options.rotation, counter);
            } else {
              terminal_ = std::make_unique<WedgeTerminal>(
                  query, options, counter,
                  metrics_ != nullptr ? &metrics_->wedge : nullptr);
            }
            break;
          case StageKind::kExactScan:
            terminal_ = std::make_unique<ScanTerminal>(
                query, options, ScanTerminal::Mode::kEarlyAbandon);
            break;
          case StageKind::kFullScan:
            terminal_ = std::make_unique<ScanTerminal>(
                query, options, ScanTerminal::Mode::kFull);
            break;
          case StageKind::kFullScanBanded:
            terminal_ = std::make_unique<ScanTerminal>(
                query, options, ScanTerminal::Mode::kFullBanded);
            break;
          case StageKind::kSignatureIndex:
          case StageKind::kFftMagnitude:
          case StageKind::kVecSignature:
          case StageKind::kLbImproved:
            break;  // not terminal
        }
        break;  // normalization guarantees the terminal is last
      }
      switch (kind) {
        case StageKind::kFftMagnitude:
        case StageKind::kVecSignature: {
          const obs::StageId id = StageIdFor(kind);
          StageScope scope(StatsFor(id), counter);
          const SignatureRowMemo* rows = kind == StageKind::kFftMagnitude
                                             ? state.fft_rows.get()
                                             : state.vec_rows.get();
          if (rows == nullptr || rows->length() != query.size()) {
            own_rows_.push_back(MemoFor(kind, backend, options, query.size()));
            rows = own_rows_.back().get();
          }
          filters_.push_back(
              std::make_unique<VecSignatureFilter>(query, rows, id, counter));
          break;
        }
        case StageKind::kLbImproved: {
          StageScope scope(StatsFor(obs::StageId::kLbImproved), counter);
          filters_.push_back(
              std::make_unique<LbImprovedFilter>(query, options, counter));
          break;
        }
        default:
          break;  // terminals handled above; the index drives the visit
      }
    }
    assert(terminal_ != nullptr && "cascade must be normalized");
  }

  CandidateMatch Compare(std::size_t index, const double* c, double threshold,
                         StepCounter* counter) {
    // Cooperative cancellation: the token is polled at every stage
    // boundary — before each filter and before the terminal — so a fired
    // deadline stops the cascade within one stage's work. Once fired, the
    // cascade stays cancelled and every later Compare is a no-op; the
    // driver checks cancelled() and abandons the scan.
    if (CheckCancelBoundary()) return CandidateMatch{};
    for (const auto& filter : filters_) {
      obs::StageStats* stats = StatsFor(filter->stage_id());
      bool pruned;
      {
        StageScope scope(stats, counter);
        pruned = filter->Prune(index, c, threshold, counter);
      }
      if (stats != nullptr) {
        ++stats->candidates_entered;
        ++(pruned ? stats->candidates_pruned : stats->candidates_survived);
      }
      if (pruned) return CandidateMatch{};
      if (CheckCancelBoundary()) return CandidateMatch{};
    }
    obs::StageStats* stats = StatsFor(terminal_id_);
    CandidateMatch m;
    {
      StageScope scope(stats, counter);
      m = terminal_->Evaluate(c, threshold, counter);
    }
    if (stats != nullptr) {
      ++stats->candidates_entered;
      ++(m.found ? stats->candidates_survived : stats->candidates_pruned);
    }
    return m;
  }

  /// Whether the whole cascade can score SoA tile groups: no filter stages
  /// (a blocked pass would bypass them) and a terminal that opted in.
  bool SupportsBlocked() const {
    return filters_.empty() && terminal_->SupportsBlocked();
  }

  /// Blocked counterpart of Compare for one tile group. Cancellation is
  /// polled once per group (the per-candidate path polls per candidate; a
  /// fired token still stops within one group's work). Stats attribution:
  /// step deltas land on the terminal stage here, and the DRIVER calls
  /// RecordTerminalOutcome per lane once it resolves found against the
  /// live threshold — summing to exactly the per-candidate totals.
  void CompareBlock(const double* tile, std::size_t valid,
                    CandidateMatch* out, StepCounter* counter) {
    if (CheckCancelBoundary()) return;
    StageScope scope(StatsFor(terminal_id_), counter);
    terminal_->EvaluateBlock(tile, valid, out, counter);
  }

  /// Candidate-flow bookkeeping for one blocked-scored lane.
  void RecordTerminalOutcome(bool found) {
    obs::StageStats* stats = StatsFor(terminal_id_);
    if (stats != nullptr) {
      ++stats->candidates_entered;
      ++(found ? stats->candidates_survived : stats->candidates_pruned);
    }
  }

  /// True once the token has fired; stays true (the scan result is void).
  bool cancelled() const { return !cancel_status_.ok(); }
  const Status& cancel_status() const { return cancel_status_; }

  void NotifyImproved(const double* trigger, double best,
                      StepCounter* counter) {
    StageScope scope(StatsFor(terminal_id_), counter);
    terminal_->NotifyImproved(trigger, best, counter);
  }

  const WedgeTree* wedge_tree() const { return terminal_->wedge_tree(); }

 private:
  obs::StageStats* StatsFor(obs::StageId id) {
    return metrics_ != nullptr ? &metrics_->stage(id) : nullptr;
  }

  /// Polls the token (if any), latches the first failure, and reports
  /// whether the cascade is (now) cancelled.
  bool CheckCancelBoundary() {
    if (cancel_ != nullptr && cancel_status_.ok()) {
      Status s = cancel_->Check();
      if (!s.ok()) cancel_status_ = std::move(s);
    }
    return !cancel_status_.ok();
  }

  obs::QueryMetrics* metrics_;
  const CancelToken* cancel_;
  Status cancel_status_;
  obs::StageId terminal_id_ = obs::StageId::kExactScan;
  /// Memos for a query the engine's do not fit (see the constructor).
  std::vector<std::unique_ptr<SignatureRowMemo>> own_rows_;
  std::vector<std::unique_ptr<FilterStage>> filters_;
  std::unique_ptr<TerminalStage> terminal_;
};

constexpr std::size_t kNoHoldout = std::numeric_limits<std::size_t>::max();

/// Folds a query's accumulated backend I/O into the observability layer:
/// object/page totals into IndexStats, pool activity into the kDiskFetch
/// stage. Called only for backends that do real I/O, so in-memory runs
/// keep their exact metrics shape.
void FoldFetchIo(const storage::FetchStats& io, obs::StageStats* fetch_stats,
                 obs::QueryMetrics* metrics) {
  if (metrics != nullptr) {
    metrics->index.object_fetches += io.object_fetches;
    metrics->index.page_reads += io.page_reads;
  }
  if (fetch_stats != nullptr) {
    fetch_stats->candidates_entered += io.object_fetches;
    fetch_stats->candidates_survived += io.object_fetches;
    fetch_stats->pool_hits += io.pool_hits;
    fetch_stats->pages_read += io.page_reads;
    fetch_stats->pool_evictions += io.pool_evictions;
    fetch_stats->io_bytes += io.bytes_read;
    fetch_stats->io_retries += io.retries;
    fetch_stats->io_faults_absorbed += io.faults_absorbed;
  }
}

/// One candidate through the cascade, shared by every driver. `Fetch` maps
/// a database index to a storage::SeriesHandle (fetched exactly once and
/// held alive across the cascade pass plus the improve hook); `Collector`
/// supplies the pruning threshold and absorbs accepted matches:
///   double threshold() const;
///   bool Offer(std::size_t index, const CandidateMatch&);  // true -> improved
/// Returns false once a cancellation token has fired: the scan must stop,
/// leaving whatever partial state the collector holds for the caller to
/// DISCARD (the Checked entry points return the typed cancel Status).
template <typename Fetch, typename Collector>
bool VisitCandidate(std::size_t i, const Fetch& fetch, QueryCascade& cascade,
                    Collector& collector, StepCounter* counter) {
  const storage::SeriesHandle h = fetch(i);
  // An invalid handle means a storage I/O failure; the backend has latched
  // the Status (surfaced by the Checked entry points).
  if (!h.valid()) return true;
  const CandidateMatch m =
      cascade.Compare(i, h.data(), collector.threshold(), counter);
  if (cascade.cancelled()) return false;
  if (m.found && collector.Offer(i, m)) {
    cascade.NotifyImproved(h.data(), collector.threshold(), counter);
  }
  return true;
}

/// The plain driver: every candidate, in database order.
template <typename Fetch, typename Collector>
void RunScan(std::size_t db_size, const Fetch& fetch, std::size_t holdout,
             QueryCascade& cascade, Collector& collector,
             StepCounter* counter) {
  for (std::size_t i = 0; i < db_size; ++i) {
    if (i == holdout) continue;
    if (!VisitCandidate(i, fetch, cascade, collector, counter)) return;
  }
}

/// Blocked driver: scores SoA tile groups 8 candidates at a time against
/// the cascade terminal, used when the candidates live in an in-memory
/// FlatDataset (fetches are free borrows there, so skipping them is
/// observationally identical) and the cascade opted in. Lane outcomes are
/// resolved against the LIVE collector threshold in candidate order, so
/// answers, counters, and per-stage stats match RunScan exactly.
template <typename Collector>
void RunBlockedScan(const FlatDataset& flat, std::size_t holdout,
                    QueryCascade& cascade, Collector& collector,
                    StepCounter* counter) {
  constexpr std::size_t kLanes = FlatDataset::kTileLanes;
  const std::size_t db_size = flat.size();
  const auto borrow = [&](std::size_t i) {
    return storage::SeriesHandle::Borrowed(flat.data(i), flat.length());
  };
  for (std::size_t g = 0; g < flat.tile_groups(); ++g) {
    const std::size_t base = g * kLanes;
    const std::size_t valid = std::min(kLanes, db_size - base);
    if (holdout >= base && holdout < base + valid) {
      // The held-out candidate shares this tile group: score its
      // groupmates through the per-candidate path (the reference
      // semantics) rather than teaching the kernels about gaps.
      for (std::size_t i = base; i < base + valid; ++i) {
        if (i == holdout) continue;
        if (!VisitCandidate(i, borrow, cascade, collector, counter)) return;
      }
      continue;
    }
    CandidateMatch block[kLanes];
    cascade.CompareBlock(flat.tile(g), valid, block, counter);
    if (cascade.cancelled()) return;
    for (std::size_t l = 0; l < valid; ++l) {
      CandidateMatch m = block[l];
      // Resolve found against the LIVE threshold (a lane earlier in this
      // group may have improved it), exactly as the per-candidate terminal
      // would have compared.
      m.found = m.distance < collector.threshold();
      cascade.RecordTerminalOutcome(m.found);
      if (m.found && collector.Offer(base + l, m)) {
        cascade.NotifyImproved(flat.data(base + l), collector.threshold(),
                               counter);
      }
    }
  }
}

/// Band of the wedge tree whose envelopes bound DTW candidates for the
/// signature index: the terminal's band (at least 1, as WedgeSearcher
/// builds it), or the full width for a negative (unconstrained) band —
/// an envelope widened by a larger band lower-bounds every narrower one.
int IndexTreeBand(int band, std::size_t n) {
  return std::max(1, band < 0 ? static_cast<int>(n) - 1 : band);
}

/// Index-ordered driver (the kSignatureIndex stage): the index decides
/// which candidates are visited and in what order, and every visited
/// candidate runs the rest of the cascade exactly as under RunScan.
/// Attribution: the query-side signature setup (and, under DTW, a wedge
/// tree the terminal did not already build) plus every signature bound
/// land on kSignatureFilter, whose candidate flow is entered = candidates
/// in the scan, survived = visited; the visits' own fetch and cascade work
/// land on their own stages. The signature work is tallied on a private
/// counter while the visits charge the query's, so both sum exactly.
template <typename Fetch, typename Collector>
void RunIndexedScan(const SignatureIndex& index, const Series& query,
                    const EngineOptions& options, std::size_t db_size,
                    const Fetch& fetch, std::size_t holdout,
                    QueryCascade& cascade, Collector& collector,
                    StepCounter* counter, obs::QueryMetrics* metrics) {
  obs::StageStats* stats =
      metrics != nullptr ? &metrics->stage(obs::StageId::kSignatureFilter)
                         : nullptr;
  const auto t0 = std::chrono::steady_clock::now();
  StepCounter own;
  std::optional<WedgeTree> own_tree;
  const WedgeTree* tree = nullptr;
  if (options.kind == DistanceKind::kDtw) {
    const int band = IndexTreeBand(options.band, query.size());
    tree = cascade.wedge_tree();
    if (tree == nullptr || tree->dtw_band() != band) {
      own_tree.emplace(query, options.rotation, band, options.wedge.linkage,
                       options.wedge.hierarchy, &own);
      tree = &*own_tree;
    }
  }
  std::uint64_t visited = 0;
  std::uint64_t visit_nanos = 0;
  const auto threshold = [&] { return collector.threshold(); };
  const auto visit = [&](int id) {
    const auto i = static_cast<std::size_t>(id);
    if (i == holdout) return true;
    ++visited;
    if (stats == nullptr) {
      return VisitCandidate(i, fetch, cascade, collector, counter);
    }
    const auto v0 = std::chrono::steady_clock::now();
    const bool go = VisitCandidate(i, fetch, cascade, collector, counter);
    visit_nanos += obs::NanosSince(v0);
    return go;
  };
  const std::uint64_t evals = index.Visit(query, tree, threshold, visit, &own);
  *counter += own;
  const std::uint64_t scanned = db_size - (holdout < db_size ? 1 : 0);
  if (stats != nullptr) {
    const std::uint64_t wall = obs::NanosSince(t0);
    stats->used = true;
    stats->steps += own.steps;
    stats->setup_steps += own.setup_steps;
    stats->early_abandons += own.early_abandons;
    stats->wall_nanos += wall - std::min(wall, visit_nanos);
    stats->candidates_entered += scanned;
    stats->candidates_survived += visited;
    stats->candidates_pruned += scanned - visited;
  }
  if (metrics != nullptr) {
    metrics->index.signature_evals += evals;
    metrics->index.candidates_pruned += scanned - visited;
    metrics->index.refinements += visited;
  }
}

/// Best-so-far collector (1-NN).
class BestCollector {
 public:
  explicit BestCollector(ScanResult* result) : result_(result) {}

  double threshold() const { return best_; }

  bool Offer(std::size_t index, const CandidateMatch& m) {
    if (m.distance >= best_) return false;
    best_ = m.distance;
    result_->best_index = static_cast<int>(index);
    result_->best_distance = m.distance;
    result_->best_shift = m.shift;
    result_->best_mirrored = m.mirrored;
    return true;
  }

 private:
  ScanResult* result_;
  double best_ = kInf;
};

/// k-th-best heap collector (k-NN): a max-heap whose top is the current
/// k-th best distance, playing best-so-far's pruning role.
class KnnCollector {
 public:
  explicit KnnCollector(int k) : k_(k) {}

  double threshold() const {
    return static_cast<int>(heap_.size()) < k_ ? kInf : heap_.top().distance;
  }

  bool Offer(std::size_t index, const CandidateMatch& m) {
    if (m.distance >= threshold()) return false;
    heap_.push(Neighbor{static_cast<int>(index), m.distance, m.shift,
                        m.mirrored});
    if (static_cast<int>(heap_.size()) > k_) heap_.pop();
    return static_cast<int>(heap_.size()) == k_;
  }

  std::vector<Neighbor> Take() {
    std::vector<Neighbor> out;
    out.reserve(heap_.size());
    while (!heap_.empty()) {
      out.push_back(heap_.top());
      heap_.pop();
    }
    std::reverse(out.begin(), out.end());
    return out;
  }

 private:
  struct FurtherFirst {
    bool operator()(const Neighbor& a, const Neighbor& b) const {
      return a.distance < b.distance;
    }
  };

  int k_;
  std::priority_queue<Neighbor, std::vector<Neighbor>, FurtherFirst> heap_;
};

/// Wraps a collector so its pruning threshold also honors a cross-engine
/// SharedBound (ShardedIndex's parallel shard search). The effective
/// threshold is min(inner, nextafter(shared, +inf)): the one-ulp outward
/// nudge means a candidate EQUAL to a foreign bound still reaches the
/// inner collector, so tie-breaking stays local-scan-order and sharded
/// answers replay to the monolithic result exactly (see SharedBound).
/// Acceptance and result bookkeeping are delegated untouched; every inner
/// improvement is published.
template <typename Inner>
class SharedBoundCollector {
 public:
  SharedBoundCollector(Inner& inner, SharedBound* shared)
      : inner_(inner), shared_(shared) {}

  double threshold() const {
    // nextafter(+inf, +inf) == +inf, so an unpublished bound is a no-op.
    return std::min(inner_.threshold(),
                    std::nextafter(shared_->load(), kInf));
  }

  bool Offer(std::size_t index, const CandidateMatch& m) {
    const bool improved = inner_.Offer(index, m);
    if (improved) shared_->Publish(inner_.threshold());
    return improved;
  }

 private:
  Inner& inner_;
  SharedBound* shared_;
};

/// Radius collector (range search): fixed threshold, never "improves".
class RangeCollector {
 public:
  explicit RangeCollector(double radius)
      : radius_(radius),
        // Distances exactly equal to the radius must be reported; pruning
        // kernels use strict comparisons, so nudge the threshold one ulp
        // outward. The floor keeps the SQUARED threshold from underflowing
        // to zero for tiny radii (a radius-0 query must still report exact
        // duplicates).
        threshold_(std::max(std::nextafter(radius, kInf), 1e-150)) {}

  double threshold() const { return threshold_; }

  bool Offer(std::size_t index, const CandidateMatch& m) {
    if (m.distance <= radius_) {
      out_.push_back(Neighbor{static_cast<int>(index), m.distance, m.shift,
                              m.mirrored});
    }
    return false;
  }

  std::vector<Neighbor> Take() {
    SortRangeHits(&out_);
    return std::move(out_);
  }

 private:
  double radius_;
  double threshold_;
  std::vector<Neighbor> out_;
};

/// Per-call inputs and outcome of one scan, shared by every query kind.
struct ScanCall {
  std::size_t holdout = kNoHoldout;
  obs::QueryMetrics* metrics = nullptr;
  /// Polled at every cascade stage boundary (see QueryCascade::Compare).
  const CancelToken* cancel = nullptr;
  /// Cross-partition best-so-far exchange (see SharedBound); null
  /// reproduces the single-engine behavior exactly.
  SharedBound* shared = nullptr;
  /// The token's typed Status when `cancel` fired mid-scan; the collector's
  /// partial result must then be discarded.
  Status interrupted = Status::Ok();
  /// Set if any candidate fetch of THIS query returned an invalid handle —
  /// a per-query signal, unlike the backend's shared error latch, so
  /// concurrent queries on one backend cannot mask each other's skipped
  /// candidates.
  bool fetch_failed = false;
};

/// The one driver behind every query kind and entry point: compiles the
/// per-query cascade, then visits candidates in signature-index order when
/// the engine has an index, scans the backend's resident tiles with the
/// blocked driver when both the backend and the cascade allow it, and
/// fetches candidate by candidate otherwise; finally folds the query's
/// fetch I/O into the metrics. The collector decides what kind of query
/// this is.
template <typename Collector>
void RunQuery(const storage::StorageBackend& backend,
              const EngineOptions& options, const CascadeState& state,
              const Series& query, Collector& collector, StepCounter* counter,
              ScanCall& call) {
  const QueryLatencyScope latency(call.metrics);
  QueryCascade cascade(query, options, counter, call.metrics, call.cancel,
                       backend, state);
  const SignatureIndex* index = state.index.get();
  // Only fetches that do attributable I/O (simulated or file backend) get
  // the kDiskFetch stage, so purely in-memory runs keep their metrics
  // shape.
  const bool does_io =
      backend.backend_kind() != storage::BackendKind::kInMemory;
  storage::FetchStats fetch_io;
  obs::StageStats* fetch_stats =
      call.metrics != nullptr && does_io
          ? &call.metrics->stage(obs::StageId::kDiskFetch)
          : nullptr;
  const auto fetch = [&](std::size_t i) {
    const StageScope scope(fetch_stats, counter);
    storage::SeriesHandle h = backend.Fetch(i, &fetch_io);
    if (!h.valid()) call.fetch_failed = true;
    return h;
  };
  const FlatDataset* tiles = backend.resident_tiles();
  const auto drive = [&](auto& c) {
    if (index != nullptr && query.size() == backend.length()) {
      RunIndexedScan(*index, query, options, backend.size(), fetch,
                     call.holdout, cascade, c, counter, call.metrics);
    } else if (tiles != nullptr && tiles->length() == query.size() &&
               cascade.SupportsBlocked()) {
      RunBlockedScan(*tiles, call.holdout, cascade, c, counter);
    } else {
      RunScan(backend.size(), fetch, call.holdout, cascade, c, counter);
    }
  };
  if (call.shared != nullptr) {
    SharedBoundCollector<Collector> wrapped(collector, call.shared);
    drive(wrapped);
  } else {
    drive(collector);
  }
  if (does_io) FoldFetchIo(fetch_io, fetch_stats, call.metrics);
  if (cascade.cancelled()) call.interrupted = cascade.cancel_status();
}

ScanResult BestScan(const storage::StorageBackend& backend,
                    const EngineOptions& options, const CascadeState& state,
                    const Series& query, ScanCall& call) {
  ScanResult result;
  result.best_distance = kInf;
  BestCollector collector(&result);
  RunQuery(backend, options, state, query, collector, &result.counter, call);
  return result;
}

std::vector<Neighbor> KnnScan(const storage::StorageBackend& backend,
                              const EngineOptions& options,
                              const CascadeState& state, const Series& query,
                              int k, StepCounter* counter, ScanCall& call) {
  StepCounter local;
  KnnCollector collector(k);
  RunQuery(backend, options, state, query, collector,
           counter != nullptr ? counter : &local, call);
  return collector.Take();
}

std::vector<Neighbor> RangeScan(const storage::StorageBackend& backend,
                                const EngineOptions& options,
                                const CascadeState& state,
                                const Series& query, double radius,
                                StepCounter* counter, ScanCall& call) {
  StepCounter local;
  RangeCollector collector(radius);
  RunQuery(backend, options, state, query, collector,
           counter != nullptr ? counter : &local, call);
  return collector.Take();
}

/// The Checked entry points' shared envelope: argument validation, the
/// fired-token short cut, the scan, and one status step after it. `args`
/// is the kind-specific argument check (k, radius), reported after the
/// query's own.
template <typename Scan>
auto RunChecked(const QueryEngine& engine, const Series& query, Status args,
                const CancelToken* cancel, obs::QueryMetrics* metrics,
                const Scan& scan)
    -> StatusOr<decltype(scan(std::declval<ScanCall&>()))> {
  Status valid = engine.ValidateQuery(query);
  if (!valid.ok()) return valid;
  if (!args.ok()) return args;
  if (cancel != nullptr) {
    // An already-fired token must not pay for cascade setup (the wedge
    // tree build is real work).
    Status early = cancel->Check();
    if (!early.ok()) return early;
  }
  ScanCall call{.metrics = metrics, .cancel = cancel};
  auto result = scan(call);
  if (!call.interrupted.ok()) return call.interrupted;
  // A storage failure mid-scan silently skips candidates in the unchecked
  // path; here it must invalidate the result. The per-query flag is
  // authoritative (the shared latch can be cleared by a concurrent
  // query's error handling); the latch is kept as a fallback detail.
  Status io = engine.backend()->error();
  if (call.fetch_failed && io.ok()) {
    io = Status::IoError("candidate fetch failed during scan");
  }
  if (!io.ok()) return io;
  return result;
}

/// The batch entry points' shared body: runs `one(query, counter,
/// metrics)` per query over a worker pool, then folds per-query counters
/// and metrics in QUERY order, so the merged aggregates are independent of
/// which worker ran which query.
template <typename Result, typename One>
std::vector<Result> RunBatch(const std::vector<Series>& queries,
                             int num_threads, StepCounter* merged,
                             obs::QueryMetrics* metrics, const One& one) {
  std::vector<Result> results(queries.size());
  std::vector<StepCounter> counters(queries.size());
  std::vector<obs::QueryMetrics> query_metrics(
      metrics != nullptr ? queries.size() : 0);
  ParallelFor(queries.size(), num_threads, [&](std::size_t qi) {
    results[qi] = one(queries[qi], &counters[qi],
                      metrics != nullptr ? &query_metrics[qi] : nullptr);
  });
  if (merged != nullptr) {
    for (const StepCounter& c : counters) *merged += c;
  }
  if (metrics != nullptr) {
    for (const obs::QueryMetrics& m : query_metrics) *metrics += m;
  }
  return results;
}

/// Whether the signature index the (normalized) cascade asks for fits the
/// database: OK without a kSignatureIndex stage or over an empty database.
Status IndexDimsStatus(const storage::StorageBackend& backend,
                       const EngineOptions& options) {
  if (options.cascade.stages.front() != StageKind::kSignatureIndex ||
      backend.size() == 0) {
    return Status::Ok();
  }
  return SignatureIndex::ValidateDims(
      options.kind,
      SignatureIndex::EffectiveDims(backend, options.kind,
                                    options.index_dims),
      backend.length());
}

/// The engine's signature index, built once (null without the stage).
std::shared_ptr<const SignatureIndex> BuildIndex(
    const storage::StorageBackend& backend, const EngineOptions& options) {
  if (options.cascade.stages.front() != StageKind::kSignatureIndex ||
      backend.size() == 0) {
    return nullptr;
  }
  const Status dims = IndexDimsStatus(backend, options);
  ROTIND_CONTRACT(dims.ok(),
                  "signature index dims must fit the series length; "
                  "QueryEngine::Open reports this as kInvalidArgument");
  // With contracts compiled out, an unfit index is simply not built: the
  // plain scan is exact.
  if (!dims.ok()) return nullptr;
  return SignatureIndex::Build(backend, options.kind, options.index_dims);
}

/// The engine's cross-query cascade state: the signature index and one
/// empty signature-row memo per spectral filter stage the normalized
/// cascade holds, so wedge-only engines allocate nothing.
std::unique_ptr<const CascadeState> BuildState(
    const storage::StorageBackend& backend, const EngineOptions& options) {
  auto state = std::make_unique<CascadeState>();
  state->index = BuildIndex(backend, options);
  const std::vector<StageKind>& stages = options.cascade.stages;
  const auto holds = [&](StageKind kind) {
    return std::find(stages.begin(), stages.end(), kind) != stages.end();
  };
  if (holds(StageKind::kVecSignature)) {
    state->vec_rows = MemoFor(StageKind::kVecSignature, backend, options,
                              backend.length());
  }
  if (holds(StageKind::kFftMagnitude)) {
    state->fft_rows = MemoFor(StageKind::kFftMagnitude, backend, options,
                              backend.length());
  }
  return state;
}

}  // namespace

CascadeSpec CascadeSpec::ForAlgorithm(ScanAlgorithm algorithm,
                                      DistanceKind kind) {
  CascadeSpec spec;
  switch (algorithm) {
    case ScanAlgorithm::kBruteForce:
      spec.stages = {StageKind::kFullScan};
      break;
    case ScanAlgorithm::kBruteForceBanded:
      spec.stages = {StageKind::kFullScanBanded};
      break;
    case ScanAlgorithm::kEarlyAbandon:
      spec.stages = {StageKind::kExactScan};
      break;
    case ScanAlgorithm::kFftLowerBound:
      // Sound for Euclidean only; other measures degrade to the
      // early-abandoning scan (the legacy behavior, now explicit).
      spec.stages = {StageKind::kFftMagnitude, StageKind::kExactScan};
      break;
    case ScanAlgorithm::kWedge:
      spec.stages = {StageKind::kWedge};
      break;
  }
  return spec.Normalized(kind);
}

CascadeSpec CascadeSpec::Normalized(DistanceKind kind) const {
  CascadeSpec out;
  out.stages.clear();
  bool index = false;
  for (StageKind stage : stages) {
    if (stage == StageKind::kSignatureIndex) {
      index = true;  // a source stage, not a filter: placed below
      continue;
    }
    if (!IsTerminal(stage)) {
      // Magnitude-spectrum bounds hold for Euclidean distance only.
      const bool spectral = stage == StageKind::kFftMagnitude ||
                            stage == StageKind::kVecSignature;
      if (spectral && kind != DistanceKind::kEuclidean) continue;
      out.stages.push_back(stage);
      continue;
    }
    out.stages.push_back(stage);  // first terminal ends the cascade
    break;
  }
  if (out.stages.empty() || !IsTerminal(out.stages.back())) {
    out.stages.push_back(StageKind::kExactScan);
  }
  // LB_Improved and the signature index bound ED and BANDED DTW. Neither
  // bounds LCSS similarity, and a banded bound does not lower-bound
  // UNCONSTRAINED DTW (the kFullScan terminal computes band -1): keeping
  // them there would falsely dismiss true matches. kFullScanBanded and the
  // other DTW terminals warp inside the configured band, where the bounds
  // are exact.
  const bool banded_bounds_sound =
      kind != DistanceKind::kLcss &&
      !(kind == DistanceKind::kDtw &&
        out.stages.back() == StageKind::kFullScan);
  if (!banded_bounds_sound) {
    out.stages.erase(std::remove(out.stages.begin(), out.stages.end(),
                                 StageKind::kLbImproved),
                     out.stages.end());
  } else if (index) {
    out.stages.insert(out.stages.begin(), StageKind::kSignatureIndex);
  }
  return out;
}

EngineOptions EngineOptionsFrom(const ScanOptions& options,
                                ScanAlgorithm algorithm) {
  EngineOptions out;
  out.kind = options.kind;
  out.band = options.band;
  out.lcss = options.lcss;
  out.rotation = options.rotation;
  out.wedge = options.wedge;
  out.cascade = CascadeSpec::ForAlgorithm(algorithm, options.kind);
  return out;
}

void SortRangeHits(std::vector<Neighbor>* hits) {
  std::sort(hits->begin(), hits->end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance && a.index < b.index);
            });
}

void ParallelFor(std::size_t count, int num_threads,
                 const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // The 256 cap bounds thread-stack memory and creation cost when a caller
  // passes an absurd thread count; it is documented in engine.h and
  // mirrored by the CLI's --threads validation.
  const int workers = std::max(
      1, std::min(num_threads, static_cast<int>(std::min(
                                   count, static_cast<std::size_t>(256)))));
  if (workers == 1) {
    // Inline path: an exception from fn propagates directly.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // A throwing fn must never escape a worker thread (that would
  // std::terminate the process). Capture the first exception, let every
  // worker drain the remaining queue without running further items, join,
  // and rethrow on the calling thread.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  Mutex error_mutex;  // kLeaf: nothing else is acquired under it.
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < count; i = next.fetch_add(1, std::memory_order_relaxed)) {
        if (failed.load(std::memory_order_relaxed)) break;
        try {
          fn(i);
        } catch (...) {
          {
            MutexLock lock(error_mutex);
            if (first_error == nullptr) {
              first_error = std::current_exception();
            }
          }
          failed.store(true, std::memory_order_relaxed);
          break;
        }
      }
    });
  }
  for (std::thread& worker : pool) worker.join();
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

QueryEngine::QueryEngine(const FlatDataset& db, const EngineOptions& options)
    : options_(options) {
  options_.cascade = options.cascade.Normalized(options.kind);
  ROTIND_CONTRACT(
      options_.storage.backend != storage::BackendKind::kFile,
      "opening an index file can fail; the borrowing constructor cannot "
      "report it — use QueryEngine::Open for the file backend");
  StatusOr<std::unique_ptr<storage::StorageBackend>> opened =
      storage::OpenBackend(options_.storage, &db);
  // In-memory and simulated kinds cannot fail with a non-null source; the
  // release-build escape hatch for a (contract-violating) file request is
  // the zero-copy default.
  backend_ = opened.ok() ? *std::move(opened)
                         : std::make_unique<storage::InMemoryBackend>(db);
  state_ = BuildState(*backend_, options_);
}

QueryEngine::QueryEngine(std::unique_ptr<storage::StorageBackend> backend,
                         const EngineOptions& options)
    : backend_(std::move(backend)), options_(options) {
  options_.cascade = options.cascade.Normalized(options.kind);
  ROTIND_CONTRACT(backend_ != nullptr,
                  "the backend-owning constructor needs a backend");
  state_ = BuildState(*backend_, options_);
}

QueryEngine::~QueryEngine() = default;

StatusOr<std::unique_ptr<QueryEngine>> QueryEngine::Open(
    const EngineOptions& options, const FlatDataset* in_memory_source) {
  StatusOr<std::unique_ptr<storage::StorageBackend>> backend =
      storage::OpenBackend(options.storage, in_memory_source);
  if (!backend.ok()) return backend.status();
  EngineOptions normalized = options;
  normalized.cascade = options.cascade.Normalized(options.kind);
  const Status dims = IndexDimsStatus(**backend, normalized);
  if (!dims.ok()) return dims;
  return std::make_unique<QueryEngine>(*std::move(backend), options);
}

ScanResult QueryEngine::Search(const Series& query,
                               obs::QueryMetrics* metrics) const {
  return SearchLeaveOneOut(query, kNoHoldout, metrics);
}

ScanResult QueryEngine::SearchLeaveOneOut(const Series& query,
                                          std::size_t holdout,
                                          obs::QueryMetrics* metrics) const {
  ScanCall call{.holdout = holdout, .metrics = metrics};
  return BestScan(*backend_, options_, *state_, query, call);
}

ScanResult QueryEngine::SearchShared(const Series& query, std::size_t holdout,
                                     SharedBound* shared,
                                     obs::QueryMetrics* metrics) const {
  ROTIND_CONTRACT(shared != nullptr, "SearchShared needs a SharedBound");
  ScanCall call{.holdout = holdout, .metrics = metrics, .shared = shared};
  return BestScan(*backend_, options_, *state_, query, call);
}

std::vector<Neighbor> QueryEngine::Knn(const Series& query, int k,
                                       StepCounter* counter,
                                       obs::QueryMetrics* metrics) const {
  return KnnLeaveOneOut(query, k, kNoHoldout, counter, metrics);
}

std::vector<Neighbor> QueryEngine::KnnLeaveOneOut(
    const Series& query, int k, std::size_t holdout, StepCounter* counter,
    obs::QueryMetrics* metrics) const {
  ScanCall call{.holdout = holdout, .metrics = metrics};
  return KnnScan(*backend_, options_, *state_, query, k, counter, call);
}

std::vector<Neighbor> QueryEngine::KnnShared(
    const Series& query, int k, std::size_t holdout, SharedBound* shared,
    StepCounter* counter, obs::QueryMetrics* metrics) const {
  ROTIND_CONTRACT(shared != nullptr, "KnnShared needs a SharedBound");
  ScanCall call{.holdout = holdout, .metrics = metrics, .shared = shared};
  return KnnScan(*backend_, options_, *state_, query, k, counter, call);
}

std::vector<Neighbor> QueryEngine::Range(const Series& query, double radius,
                                         StepCounter* counter,
                                         obs::QueryMetrics* metrics) const {
  ScanCall call{.metrics = metrics};
  return RangeScan(*backend_, options_, *state_, query, radius, counter,
                   call);
}

Status QueryEngine::ValidateQuery(const Series& query) const {
  return ValidateQuery(query, database_size(), database_length());
}

Status QueryEngine::ValidateQuery(const Series& query, std::size_t db_size,
                                  std::size_t db_length) {
  if (query.empty()) {
    return Status::InvalidArgument("query is empty");
  }
  for (std::size_t j = 0; j < query.size(); ++j) {
    if (!std::isfinite(query[j])) {
      return Status::InvalidArgument("query value " + std::to_string(j) +
                                     " is NaN or Inf");
    }
  }
  if (db_size > 0 && db_length != query.size()) {
    return Status::InvalidArgument(
        "query has length " + std::to_string(query.size()) +
        ", database items have length " + std::to_string(db_length));
  }
  return Status::Ok();
}

Status QueryEngine::ValidateK(int k) {
  if (k < 1) {
    return Status::InvalidArgument("k must be >= 1, got " + std::to_string(k));
  }
  return Status::Ok();
}

Status QueryEngine::ValidateRadius(double radius) {
  if (!std::isfinite(radius) || radius < 0.0) {
    return Status::InvalidArgument("radius must be finite and >= 0, got " +
                                   std::to_string(radius));
  }
  return Status::Ok();
}

StatusOr<ScanResult> QueryEngine::SearchChecked(
    const Series& query, const CancelToken* cancel,
    obs::QueryMetrics* metrics) const {
  return RunChecked(*this, query, Status::Ok(), cancel, metrics,
                    [&](ScanCall& call) {
                      return BestScan(*backend_, options_, *state_,
                                      query, call);
                    });
}

StatusOr<std::vector<Neighbor>> QueryEngine::KnnChecked(
    const Series& query, int k, StepCounter* counter,
    const CancelToken* cancel, obs::QueryMetrics* metrics) const {
  return RunChecked(*this, query, ValidateK(k), cancel, metrics,
                    [&](ScanCall& call) {
                      return KnnScan(*backend_, options_, *state_,
                                     query, k, counter, call);
                    });
}

StatusOr<std::vector<Neighbor>> QueryEngine::RangeChecked(
    const Series& query, double radius, StepCounter* counter,
    const CancelToken* cancel, obs::QueryMetrics* metrics) const {
  return RunChecked(*this, query, ValidateRadius(radius), cancel, metrics,
                    [&](ScanCall& call) {
                      return RangeScan(*backend_, options_, *state_, query,
                                       radius, counter, call);
                    });
}

std::vector<ScanResult> QueryEngine::SearchBatch(
    const std::vector<Series>& queries, int num_threads, StepCounter* merged,
    obs::QueryMetrics* metrics) const {
  return RunBatch<ScanResult>(
      queries, num_threads, merged, metrics,
      [&](const Series& q, StepCounter* counter, obs::QueryMetrics* m) {
        ScanResult r = Search(q, m);
        *counter = r.counter;
        return r;
      });
}

std::vector<std::vector<Neighbor>> QueryEngine::KnnSearchBatch(
    const std::vector<Series>& queries, int k, int num_threads,
    StepCounter* merged, obs::QueryMetrics* metrics) const {
  return RunBatch<std::vector<Neighbor>>(
      queries, num_threads, merged, metrics,
      [&](const Series& q, StepCounter* counter, obs::QueryMetrics* m) {
        return Knn(q, k, counter, m);
      });
}

std::vector<std::vector<Neighbor>> QueryEngine::RangeSearchBatch(
    const std::vector<Series>& queries, double radius, int num_threads,
    StepCounter* merged, obs::QueryMetrics* metrics) const {
  return RunBatch<std::vector<Neighbor>>(
      queries, num_threads, merged, metrics,
      [&](const Series& q, StepCounter* counter, obs::QueryMetrics* m) {
        return Range(q, radius, counter, m);
      });
}

}  // namespace rotind
