/// End-to-end scan benchmark with machine-readable output.
///
/// Runs every cascade composition (the legacy algorithm set plus the
/// FFT-filter + wedge pipeline) over a synthetic projectile-points
/// workload under Euclidean and DTW, then times the batch driver at 1 and
/// N threads. Results — implementation-free step counts, stage-attributed
/// observability metrics, AND wall-clock — are written as JSON so CI can
/// archive and diff them across commits.
///
///   engine_scan_bench [output.json] [--check baseline.json]
///                     [--tolerance FRAC]
///
/// --check compares the run's deterministic counters (step counts and
/// candidate-flow fields; never wall-clock or latency) against a committed
/// baseline and exits nonzero on drift beyond --tolerance (a fraction,
/// default 0 = exact; CI passes a small tolerance to absorb libm
/// differences across platforms that can shift prune counts near ties).
///
/// Scale: ROTIND_BENCH_SCALE=full for paper-sized inputs.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "src/datasets/synthetic.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"
#include "src/simd/simd.h"

namespace rotind::bench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Row {
  std::string name;
  std::string kind;
  std::uint64_t total_steps = 0;
  double wall_seconds = 0.0;
  std::size_t queries = 0;
  obs::QueryMetrics metrics;
};

/// Runs `queries` leave-one-out 1-NN searches through one engine
/// configuration and records total steps, per-stage metrics, and wall time.
Row RunConfig(const std::string& name, const FlatDataset& db,
              const std::vector<std::size_t>& queries,
              const EngineOptions& options) {
  Row row;
  row.name = name;
  row.kind = DistanceKindName(options.kind);
  row.queries = queries.size();
  const QueryEngine engine(db, options);
  const auto t0 = Clock::now();
  for (std::size_t qi : queries) {
    const ScanResult r =
        engine.SearchLeaveOneOut(db.Materialize(qi), qi, &row.metrics);
    row.total_steps += r.counter.total_steps();
  }
  row.wall_seconds = Seconds(t0, Clock::now());
  return row;
}

int Run(int argc, char** argv) {
  const CheckArgs args = ParseCheckArgs(argc, argv, "BENCH_scan.json");
  const std::string& out_path = args.out_path;
  const bool full = FullScale();
  const std::size_t n = 251;
  const std::size_t m = full ? 4000 : 400;
  const std::size_t num_queries = full ? 20 : 8;

  const FlatDataset db =
      FlatDataset::FromItems(MakeProjectilePointsDatabase(m, n, 2006));
  const QuerySet qs = PickQueries(m, num_queries, 42);

  // Every composition the engine can express for each measure. The names
  // spell out the cascade so the JSON is self-describing.
  struct Config {
    const char* name;
    DistanceKind kind;
    CascadeSpec cascade;
    /// Pooled-embedding width for kVecSignature (0 = engine default). On
    /// this dataset band-pooling collapses the bound fast (reverse
    /// triangle inequality per band: similar band energies => tiny lower
    /// bound), so the bench runs the filter at full spectral resolution
    /// n/2, where it actually prunes; coarse dims pay off only on the
    /// stored-row (RIDX v2) path, where each comparison is O(dims).
    std::size_t vec_sig_dims = 0;
  };
  const std::vector<Config> configs = {
      {"ed/full-scan", DistanceKind::kEuclidean, {{StageKind::kFullScan}}},
      {"ed/early-abandon", DistanceKind::kEuclidean,
       {{StageKind::kExactScan}}},
      {"ed/fft+early-abandon", DistanceKind::kEuclidean,
       {{StageKind::kFftMagnitude, StageKind::kExactScan}}},
      {"ed/wedge", DistanceKind::kEuclidean, {{StageKind::kWedge}}},
      {"ed/fft+wedge", DistanceKind::kEuclidean,
       {{StageKind::kFftMagnitude, StageKind::kWedge}}},
      {"ed/vecsig+early-abandon", DistanceKind::kEuclidean,
       {{StageKind::kVecSignature, StageKind::kExactScan}},
       /*vec_sig_dims=*/125},
      {"ed/lbimproved+early-abandon", DistanceKind::kEuclidean,
       {{StageKind::kLbImproved, StageKind::kExactScan}}},
      {"ed/vecsig+fft+lbimproved+early-abandon", DistanceKind::kEuclidean,
       {{StageKind::kVecSignature, StageKind::kFftMagnitude,
         StageKind::kLbImproved, StageKind::kExactScan}},
       /*vec_sig_dims=*/125},
      {"dtw/full-scan-banded", DistanceKind::kDtw,
       {{StageKind::kFullScanBanded}}},
      {"dtw/early-abandon", DistanceKind::kDtw, {{StageKind::kExactScan}}},
      {"dtw/lbimproved+early-abandon", DistanceKind::kDtw,
       {{StageKind::kLbImproved, StageKind::kExactScan}}},
      {"dtw/wedge", DistanceKind::kDtw, {{StageKind::kWedge}}},
  };

  bool attribution_exact = true;
  std::vector<Row> rows;
  for (const Config& c : configs) {
    EngineOptions options;
    options.kind = c.kind;
    options.band = 5;
    options.cascade = c.cascade;
    if (c.vec_sig_dims != 0) options.vec_sig_dims = c.vec_sig_dims;
    rows.push_back(RunConfig(c.name, db, qs.query_indices, options));
    const Row& row = rows.back();
    if (row.metrics.attributed_total_steps() != row.total_steps) {
      std::fprintf(stderr,
                   "  %s: stage attribution leak — %llu attributed vs %llu "
                   "counted\n",
                   row.name.c_str(),
                   static_cast<unsigned long long>(
                       row.metrics.attributed_total_steps()),
                   static_cast<unsigned long long>(row.total_steps));
      attribution_exact = false;
    }
    // Per stage: its pruning power — what fraction of the candidates
    // entering it it removed, the paper's Figure 19-23 metric per stage
    // instead of per cascade, shown only for stages that pruned at least
    // once — and its wall time per charged step (steps + setup_steps), so
    // a stage whose cost model and wall time disagree stands out.
    std::string stages;
    for (std::size_t s = 0; s < obs::kNumStages; ++s) {
      const obs::StageStats& st = row.metrics.stages[s];
      if (!st.used || st.candidates_entered == 0) continue;
      stages += "  ";
      stages += obs::StageName(static_cast<obs::StageId>(s));
      stages += "=";
      char cell[64];
      if (st.candidates_pruned != 0) {
        std::snprintf(cell, sizeof cell, "%.1f%% ",
                      100.0 * static_cast<double>(st.candidates_pruned) /
                          static_cast<double>(st.candidates_entered));
        stages += cell;
      }
      const std::uint64_t steps = st.total_steps();
      std::snprintf(cell, sizeof cell, "%.2fns/step",
                    steps == 0 ? 0.0
                               : static_cast<double>(st.wall_nanos) /
                                     static_cast<double>(steps));
      stages += cell;
    }
    std::printf("  %-40s %14llu steps  %8.3f s%s\n", row.name.c_str(),
                static_cast<unsigned long long>(row.total_steps),
                row.wall_seconds, stages.c_str());
  }

  // Batch driver scaling: the same wedge workload at 1 thread vs the
  // machine's parallelism, with bit-identical results by construction.
  std::vector<Series> batch_queries;
  for (std::size_t qi : qs.query_indices) {
    batch_queries.push_back(db.Materialize(qi));
  }
  const QueryEngine engine(db);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int threads = hw > 1 ? hw : 2;
  obs::QueryMetrics serial_metrics;
  obs::QueryMetrics parallel_metrics;
  const auto t1 = Clock::now();
  const auto serial = engine.SearchBatch(batch_queries, 1, nullptr,
                                         &serial_metrics);
  const auto t2 = Clock::now();
  const auto parallel = engine.SearchBatch(batch_queries, threads, nullptr,
                                           &parallel_metrics);
  const auto t3 = Clock::now();
  const double serial_s = Seconds(t1, t2);
  const double parallel_s = Seconds(t2, t3);
  bool identical = serial.size() == parallel.size() &&
                   serial_metrics.attributed_total_steps() ==
                       parallel_metrics.attributed_total_steps();
  for (std::size_t i = 0; identical && i < serial.size(); ++i) {
    identical = serial[i].best_index == parallel[i].best_index &&
                serial[i].best_distance == parallel[i].best_distance &&
                serial[i].counter.total_steps() ==
                    parallel[i].counter.total_steps();
  }
  std::printf("  batch: %zu queries  1 thread %.3f s, %d threads %.3f s "
              "(%.2fx, identical=%s)\n",
              batch_queries.size(), serial_s, threads, parallel_s,
              parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
              identical ? "yes" : "NO");

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out,
               "  \"dataset\": {\"generator\": \"projectile-points\", "
               "\"m\": %zu, \"n\": %zu, \"queries\": %zu, "
               "\"simd\": \"%s\"},\n",
               m, n, num_queries, simd::ActiveTierName());
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"kind\": \"%s\", "
                 "\"total_steps\": %llu, \"wall_seconds\": %.6f, "
                 "\"queries\": %zu,\n"
                 "     \"metrics\":\n%s}%s\n",
                 rows[i].name.c_str(), rows[i].kind.c_str(),
                 static_cast<unsigned long long>(rows[i].total_steps),
                 rows[i].wall_seconds, rows[i].queries,
                 rows[i].metrics.ToJson(5).c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"batch\": {\"queries\": %zu, \"threads\": %d, "
               "\"serial_seconds\": %.6f, \"parallel_seconds\": %.6f, "
               "\"speedup\": %.3f, \"bit_identical\": %s,\n"
               "   \"metrics\":\n%s}\n",
               batch_queries.size(), threads, serial_s, parallel_s,
               parallel_s > 0.0 ? serial_s / parallel_s : 0.0,
               identical ? "true" : "false",
               serial_metrics.ToJson(3).c_str());
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("wrote %s\n", out_path.c_str());
  if (!identical || !attribution_exact) return 1;
  return args.baseline_path.empty()
             ? 0
             : CheckAgainstBaseline(out_path, args.baseline_path,
                                    args.tolerance);
}

}  // namespace
}  // namespace rotind::bench

int main(int argc, char** argv) { return rotind::bench::Run(argc, argv); }
