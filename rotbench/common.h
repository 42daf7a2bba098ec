#ifndef ROTBENCH_COMMON_H_
#define ROTBENCH_COMMON_H_

// Shared plumbing for the rotbench workloads: command-line arguments,
// raw-sample statistics, the result line, and the span tracer.
//
// Every percentile here is computed from the benchmark's own raw samples
// (nearest rank over the sorted values), never from obs::LatencyHistogram,
// whose power-of-two buckets would report bucket edges.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "src/search/engine.h"
#include "src/search/scan.h"

namespace rotbench {

using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for index files and manifests.
  std::string workdir;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans;
};

/// Machine facts printed with every result.
int Nproc();

double SecondsBetween(Clock::time_point a, Clock::time_point b);
double MsBetween(Clock::time_point a, Clock::time_point b);

/// Nearest-rank percentile (p in (0, 100]) of raw samples; 0 when empty.
/// For p = 99 over N >= 1000 samples at least ten samples lie above it.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

/// Peak resident set size of this program since it started, in MiB.
double PeakRssMb();

/// Total bytes of the regular files directly inside `dir`.
std::uint64_t DirectoryBytes(const std::string& dir);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One workload's outcome. `metrics` is filled with every end-to-end metric
/// (untraced run) or every per-layer metric (traced run).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a wrong answer or counter mismatch (printed to stderr).
  void Wrong(const std::string& what);
};

/// The per-layer metric catalogue shared by every workload: a traced run
/// prints each of these names, with 0 where the workload never enters
/// that layer.
const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue();

/// Renders the single-line JSON result.
std::string ResultJson(const Result& result);

/// Exactness of one answer against ground truth. 1-NN and range answers
/// must match index and distance exactly. k-NN answers must match the
/// distance sequence exactly and every index strictly inside the k-th
/// distance; an index AT the k-th distance may be any row whose true
/// distance equals it (the documented parallel sharded k-NN tie), which
/// `truth` — computed deeper than k — lists when it has room to.
bool SameNeighbors(const std::vector<rotind::Neighbor>& got,
                   const std::vector<rotind::Neighbor>& want);
bool KnnMatches(const std::vector<rotind::Neighbor>& got,
                const std::vector<rotind::Neighbor>& truth, std::size_t k);

/// Step and candidate-flow counters of a batch, flattened for exact
/// comparison between repeated runs.
std::vector<std::uint64_t> CounterFingerprint(
    const rotind::StepCounter& steps, const rotind::obs::QueryMetrics& m);

/// Per-layer search metrics derived from QueryMetrics, divided by `reads`
/// logical read operations: search.<stage>.*, search.hmerge.*, and the
/// storage.* fetch counters.
void AddSearchMetrics(const rotind::obs::QueryMetrics& m, double reads,
                      Result* out);

/// In-memory span recorder for the traced run. A span is (name, start,
/// end, id, parent, request); spans are recorded from the benchmark's own
/// code around each call into a layer, kept in memory, and written out by
/// Dump at exit. Thread-safe. A null Tracer* means tracing is off, and
/// Scope then costs nothing.
class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  struct Span {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t id;
    std::uint64_t parent;   ///< 0: root.
    std::uint64_t request;  ///< 0: not part of a request.
  };

  std::uint64_t NewId();
  void Record(const char* name, Clock::time_point start,
              Clock::time_point end, std::uint64_t id, std::uint64_t parent,
              std::uint64_t request);

  /// RAII span; no-op when `tracer` is null.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t parent = 0,
          std::uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_;
    std::uint64_t request_;
    Clock::time_point start_;
  };

  /// Raw durations (ms) of every span named `name`.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Adds trace.<name>.self_ms_mean for every span name in the catalogue:
  /// self time = duration minus the part of it covered by child spans.
  void AddSelfTimes(Result* out) const;
  /// Writes every span as a tab-separated line to `path`.
  void Dump(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Span names the traced run reports self times for.
const std::vector<std::string>& SpanNames();

/// Number of setups per run; setup_s is their median.
inline constexpr int kSetupReps = 11;

/// What one timed pass reports for the end-to-end metrics.
struct PassSummary {
  double throughput_qps = 0.0;
  double read_p50_ms = 0.0;
  double read_tail_ms = 0.0;  ///< p90.
  double read_p99_ms = 0.0;
  std::size_t read_samples = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// One workload as RunSchedule drives it. A workload holds at most one
/// set-up instance at a time, between Setup and Teardown.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the instance the following WarmUp or Pass runs on; timed as
  /// setup_s.
  virtual void Setup(int rep, Tracer* tracer) = 0;
  /// A short, untimed run on the instance, answers checked.
  virtual void WarmUp(Result* result) = 0;
  /// The timed phase on the instance, `seconds` long. Spans go to
  /// `tracer` when it is not null.
  virtual PassSummary Pass(double seconds, Tracer* tracer) = 0;
  /// Checks every answer the last Pass recorded.
  virtual void Verify(Result* result) = 0;
  /// Releases the instance and its files.
  virtual void Teardown() = 0;
  /// Adds the per-layer metrics of the last (traced) pass.
  virtual void AddLayers(const Tracer& tracer, Result* result) = 0;
};

/// Runs a workload on the schedule every workload shares: kSetupReps
/// setups, setup_s being their median. Freed heap memory is handed back
/// to the system before each setup, so earlier instances do not add to
/// peak_rss_mb. Each setup but the last one (or,
/// traced, the last two) is followed by a warm-up; the others by a timed
/// pass of args.seconds (traced: an untraced and a traced pass of half
/// that each). peak_rss_mb is read after the timed pass and before its
/// answers are checked. Returns the end-to-end metrics, or with
/// args.trace the per-layer ones.
Result RunSchedule(const Args& args, Workload* workload);

/// Prints "rotbench: <message>" and exits 1.
[[noreturn]] void Fatal(const std::string& message);

}  // namespace rotbench

#endif  // ROTBENCH_COMMON_H_
