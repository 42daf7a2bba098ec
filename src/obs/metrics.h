#ifndef ROTIND_OBS_METRICS_H_
#define ROTIND_OBS_METRICS_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/status.h"
#include "src/core/step_counter.h"

namespace rotind::obs {

/// Query observability layer.
///
/// The paper's whole argument is a cost ledger (Tables 1-5 compare rivals by
/// pruning power and step counts), and Lemire's two-pass lower-bounding work
/// shows that *per-stage* bound-tightness measurement is what drives cascade
/// design. This subsystem attributes the engine's flat `StepCounter` totals
/// to individual cascade stages, records candidate flow (entered / pruned /
/// survived) per stage, tracks wedge-level H-Merge behavior and the
/// dynamic-K trajectory, and captures per-query latency histograms — all
/// exportable as structured JSON.
///
/// Contract (mirrors StepCounter): every instrumented entry point takes a
/// nullable `QueryMetrics*`; passing nullptr disables all observation and
/// reproduces the uninstrumented behavior bit-for-bit with no measurable
/// overhead. Attribution is exact: the per-stage `steps + setup_steps` sum
/// equals the legacy `StepCounter::total_steps()` for the same query
/// (asserted by tests/obs_engine_test.cc over the equivalence corpus).

/// Identity of one attribution bucket along the query path. The JSON
/// names them (StageName) and lists used stages in this order; the order
/// follows the stages' history, not the query path.
enum class StageId {
  kFftFilter = 0,      ///< cascade: FFT-magnitude lower-bound filter
  kWedge,              ///< cascade terminal: LB_Keogh wedges + H-Merge
  kExactScan,          ///< cascade terminal: early-abandoning rotation scan
  kFullScan,           ///< cascade terminal: full evaluation, no abandoning
  kFullScanBanded,     ///< cascade terminal: full evaluation, Sakoe-Chiba band
  kSignatureFilter,    ///< cascade source: signature-index ordering/pruning
  kDiskFetch,          ///< candidate fetches from a simulated or file backend
  kLbImproved,         ///< cascade: two-pass LB_Improved wedge filter
  kVecSignature,       ///< cascade: pooled rotation-invariant vector filter
};
inline constexpr std::size_t kNumStages = 9;

/// Stable machine-readable name ("fft_filter", "wedge", ...).
const char* StageName(StageId id);

/// Candidate flow and cost attributed to one stage of one (or many merged)
/// queries. A "candidate" is one database object offered to the stage;
/// entered == pruned + survived always holds.
struct StageStats {
  std::uint64_t candidates_entered = 0;
  std::uint64_t candidates_pruned = 0;
  std::uint64_t candidates_survived = 0;
  /// Kernel steps (real-value subtractions) spent inside this stage.
  std::uint64_t steps = 0;
  /// One-off per-query setup steps charged to this stage (wedge-tree
  /// construction, the query's FFT).
  std::uint64_t setup_steps = 0;
  /// Distance evaluations cut short by early abandoning inside this stage.
  std::uint64_t early_abandons = 0;
  /// Wall-clock nanoseconds spent inside this stage (stage evaluation plus
  /// stage setup). Only meaningful on the machine that recorded it; never
  /// compared across runs.
  std::uint64_t wall_nanos = 0;
  /// Storage I/O attributed to this stage (populated for kDiskFetch when a
  /// query runs over a real StorageBackend; all zero otherwise and then
  /// omitted from the JSON). pages_read counts pages fetched from the
  /// medium — buffer-pool misses on the file backend, simulated page reads
  /// on the accounting backend.
  std::uint64_t pool_hits = 0;
  std::uint64_t pages_read = 0;
  std::uint64_t pool_evictions = 0;
  std::uint64_t io_bytes = 0;
  /// Transient-fault absorption by the storage retry loop: page pins that
  /// were re-attempted, and pins that eventually succeeded on a retry.
  /// Nonzero only under storage faults, so healthy runs keep their shape.
  std::uint64_t io_retries = 0;
  std::uint64_t io_faults_absorbed = 0;
  /// Whether this stage participated in at least one query.
  bool used = false;

  std::uint64_t total_steps() const { return steps + setup_steps; }
  bool has_io() const {
    return (pool_hits | pages_read | pool_evictions | io_bytes | io_retries |
            io_faults_absorbed) != 0;
  }
  StageStats& operator+=(const StageStats& o);
};

/// Fixed-bucket latency histogram: 40 power-of-two nanosecond buckets
/// (bucket b counts samples in [2^b, 2^(b+1)) ns; the last bucket absorbs
/// everything >= 2^39 ns ~ 9.2 min). Fixed buckets make the merge across
/// SearchBatch workers a plain element-wise sum — deterministic in
/// structure, no rebinning.
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void Record(std::uint64_t nanos);

  std::uint64_t count() const { return count_; }
  std::uint64_t total_nanos() const { return sum_nanos_; }
  std::uint64_t min_nanos() const { return count_ == 0 ? 0 : min_nanos_; }
  std::uint64_t max_nanos() const { return max_nanos_; }
  const std::array<std::uint64_t, kBuckets>& buckets() const {
    return buckets_;
  }

  /// Upper edge (exclusive, in nanoseconds) of bucket `b`.
  static std::uint64_t BucketUpperNanos(std::size_t b);

  /// Estimated p-th percentile (p in [0, 100]): the upper edge of the
  /// bucket containing the p-th sample, clamped to the observed max.
  /// Returns 0 when empty.
  std::uint64_t PercentileNanos(double p) const;

  LatencyHistogram& operator+=(const LatencyHistogram& o);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_nanos_ = 0;
  std::uint64_t min_nanos_ = ~std::uint64_t{0};
  std::uint64_t max_nanos_ = 0;
};

/// H-Merge internals the flat per-stage view cannot express: how the wedge
/// hierarchy was walked and how dynamic K evolved (paper Section 4.1).
struct WedgeStats {
  /// Wedges popped off the H-Merge stack and tested with LB_Keogh.
  std::uint64_t wedges_tested = 0;
  /// Wedges whose whole rotation subtree was discarded by the bound.
  std::uint64_t wedges_pruned = 0;
  /// Surviving internal wedges whose children were pushed (descents).
  std::uint64_t wedges_descended = 0;
  /// Leaf wedges that reached an exact distance evaluation.
  std::uint64_t leaves_evaluated = 0;
  /// Leaf evaluations cut short by early abandoning (DTW leaves).
  std::uint64_t leaves_abandoned = 0;
  /// Dynamic-K re-probes executed (AdaptK calls that ran the probe loop).
  std::uint64_t adapt_probes = 0;
  /// K after each adaptation, in query order (capped at kMaxTrajectory;
  /// adapt_probes keeps the true count).
  std::vector<int> k_trajectory;

  static constexpr std::size_t kMaxTrajectory = 256;
  void RecordK(int k);
  WedgeStats& operator+=(const WedgeStats& o);
};

/// Signature-index accounting (the kSignatureIndex cascade stage): what
/// was pruned in signature space versus fetched and refined (paper Section
/// 5.4 / Figure 24). object_fetches and page_reads are filled for every
/// query over a simulated or file backend, with or without the stage.
struct IndexStats {
  /// Signature-space lower-bound evaluations (VP-tree metric calls or
  /// LB_PAA evaluations).
  std::uint64_t signature_evals = 0;
  /// Database objects never fetched from disk (pruned purely in signature
  /// space).
  std::uint64_t candidates_pruned = 0;
  std::uint64_t object_fetches = 0;
  std::uint64_t page_reads = 0;
  /// Candidates the index visited, i.e. handed to the rest of the cascade.
  std::uint64_t refinements = 0;

  IndexStats& operator+=(const IndexStats& o);
};

/// The per-query (or merged multi-query) metrics aggregate. Merging is
/// deterministic: SearchBatch accumulates per-query QueryMetrics in query
/// order, exactly like StepCounter, so an N-thread batch produces the same
/// merged counters as a serial run (wall_nanos and latency excepted — they
/// measure real time).
struct QueryMetrics {
  std::array<StageStats, kNumStages> stages{};
  WedgeStats wedge;
  IndexStats index;
  /// End-to-end per-query latency (one Record per query).
  LatencyHistogram latency;
  /// Queries merged into this aggregate.
  std::uint64_t queries = 0;

  StageStats& stage(StageId id) {
    return stages[static_cast<std::size_t>(id)];
  }
  const StageStats& stage(StageId id) const {
    return stages[static_cast<std::size_t>(id)];
  }

  /// Sum of per-stage steps + setup_steps: equals the legacy
  /// StepCounter::total_steps() of the same queries (exact attribution).
  std::uint64_t attributed_total_steps() const;

  QueryMetrics& operator+=(const QueryMetrics& o);

  /// Structured JSON object (stages, wedge, index, latency percentiles).
  /// `indent` is the number of leading spaces applied to every line.
  std::string ToJson(int indent = 0) const;
};

inline std::uint64_t NanosSince(std::chrono::steady_clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

/// Attributes the StepCounter delta and wall time of one scoped region to
/// one stage. A null `stats` makes construction and destruction no-ops, so
/// an uninstrumented path stays free of clock calls; the counter itself is
/// only read, never written, keeping instrumented results bit-identical.
class StageScope {
 public:
  StageScope(StageStats* stats, const StepCounter* counter)
      : stats_(stats), counter_(counter) {
    if (stats_ == nullptr) return;
    stats_->used = true;
    if (counter_ != nullptr) {
      steps0_ = counter_->steps;
      setup0_ = counter_->setup_steps;
      abandons0_ = counter_->early_abandons;
    }
    t0_ = std::chrono::steady_clock::now();
  }

  ~StageScope() {
    if (stats_ == nullptr) return;
    stats_->wall_nanos += NanosSince(t0_);
    if (counter_ != nullptr) {
      stats_->steps += counter_->steps - steps0_;
      stats_->setup_steps += counter_->setup_steps - setup0_;
      stats_->early_abandons += counter_->early_abandons - abandons0_;
    }
  }

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  StageStats* stats_;
  const StepCounter* counter_;
  std::uint64_t steps0_ = 0;
  std::uint64_t setup0_ = 0;
  std::uint64_t abandons0_ = 0;
  std::chrono::steady_clock::time_point t0_;
};

/// Records one end-to-end query latency sample (and bumps the query count)
/// on destruction. No-op for null metrics.
class QueryLatencyScope {
 public:
  explicit QueryLatencyScope(QueryMetrics* metrics) : metrics_(metrics) {
    if (metrics_ != nullptr) t0_ = std::chrono::steady_clock::now();
  }
  ~QueryLatencyScope() {
    if (metrics_ == nullptr) return;
    metrics_->latency.Record(NanosSince(t0_));
    ++metrics_->queries;
  }
  QueryLatencyScope(const QueryLatencyScope&) = delete;
  QueryLatencyScope& operator=(const QueryLatencyScope&) = delete;

 private:
  QueryMetrics* metrics_;
  std::chrono::steady_clock::time_point t0_;
};

/// Named collection of QueryMetrics (one entry per configuration / command),
/// preserving insertion order. The single JSON producer shared by
/// `rotind_cli --metrics-json` and bench/engine_scan_bench.
class MetricsRegistry {
 public:
  /// Insert-or-find by name.
  QueryMetrics& Get(const std::string& name);

  std::size_t size() const { return entries_.size(); }
  const std::vector<std::pair<std::string, QueryMetrics>>& entries() const {
    return entries_;
  }

  /// {"metrics": {"<name>": {...}, ...}}
  std::string ToJson() const;

  /// Writes ToJson() to `path`; kIoError on failure.
  [[nodiscard]] Status WriteJsonFile(const std::string& path) const;

 private:
  std::vector<std::pair<std::string, QueryMetrics>> entries_;
};

}  // namespace rotind::obs

#endif  // ROTIND_OBS_METRICS_H_
