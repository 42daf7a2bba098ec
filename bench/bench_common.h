#ifndef ROTIND_BENCH_BENCH_COMMON_H_
#define ROTIND_BENCH_BENCH_COMMON_H_

/// Shared infrastructure for the figure/table reproduction benches.
///
/// Methodology follows the paper's Section 5.3:
///  * cost = implementation-free step counts (real-value subtractions);
///  * queries are randomly chosen database objects, removed from the
///    database for the duration of their query;
///  * reported numbers are "average steps for a single comparison of two
///    shapes, divided by the steps required by brute force" — i.e. the
///    y-axis of Figures 19-23;
///  * brute-force rivals are data-independent, so their counts are computed
///    in closed form (validated against actual runs in the test suite).
///
/// Scale: `ROTIND_BENCH_SCALE=full` reproduces the paper's sizes;
/// the default is a laptop-friendly reduction with the same curve shapes.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/core/random.h"
#include "src/core/series.h"
#include "src/search/engine.h"
#include "src/search/scan.h"

namespace rotind::bench {

inline bool FullScale() {
  const char* env = std::getenv("ROTIND_BENCH_SCALE");
  return env != nullptr && std::strcmp(env, "full") == 0;
}

/// A query drawn from the database: the object is excluded while it is the
/// query (paper Section 5.3).
struct QuerySet {
  std::vector<std::size_t> query_indices;
};

inline QuerySet PickQueries(std::size_t database_size, std::size_t count,
                            std::uint64_t seed) {
  QuerySet qs;
  Rng rng(seed);
  for (std::size_t i = 0; i < count && database_size > 1; ++i) {
    qs.query_indices.push_back(rng.NextBounded(database_size));
  }
  return qs;
}

/// FlatDataset over the first m objects of db (contiguous engine storage).
inline FlatDataset RestrictFlat(const std::vector<Series>& db,
                                std::size_t m) {
  FlatDataset out;
  for (std::size_t i = 0; i < m && i < db.size(); ++i) out.Add(db[i]);
  return out;
}

/// Average steps per object comparison for one rival algorithm across the
/// query set, on the first m objects of db. Runs through the QueryEngine:
/// the database prefix is stored once as a FlatDataset, and a query drawn
/// from the prefix is excluded via the engine's leave-one-out scan instead
/// of copying the database minus one item per query.
inline double AverageStepsPerComparison(const std::vector<Series>& db,
                                        std::size_t m, const QuerySet& queries,
                                        ScanAlgorithm algorithm,
                                        const ScanOptions& options) {
  const FlatDataset flat = RestrictFlat(db, m);
  const QueryEngine engine(flat, EngineOptionsFrom(options, algorithm));
  const std::size_t no_holdout = flat.size();  // skips nothing
  double total = 0.0;
  std::uint64_t comparisons = 0;
  for (std::size_t qi : queries.query_indices) {
    const std::size_t holdout = qi < m ? qi : no_holdout;
    const ScanResult r = engine.SearchLeaveOneOut(db[qi], holdout);
    total += static_cast<double>(r.counter.total_steps());
    comparisons += flat.size() - (holdout < flat.size() ? 1 : 0);
  }
  return comparisons == 0 ? 0.0 : total / static_cast<double>(comparisons);
}

/// Closed-form steps/comparison of the data-independent rivals.
inline double BruteStepsPerComparison(std::size_t n, std::size_t rotations,
                                      DistanceKind kind, int band) {
  return static_cast<double>(
      AnalyticBruteForceSteps(1, n, rotations, kind, band));
}

/// Prints one row of a relative-performance table.
inline void PrintRow(std::size_t m, const std::vector<double>& relative,
                     const std::vector<const char*>& names) {
  std::printf("%8zu", m);
  for (std::size_t i = 0; i < relative.size(); ++i) {
    std::printf("  %12.6f", relative[i]);
  }
  std::printf("\n");
  (void)names;
}

inline void PrintHeader(const char* title,
                        const std::vector<const char*>& names) {
  std::printf("%s\n", title);
  std::printf("%8s", "m");
  for (const char* name : names) std::printf("  %12s", name);
  std::printf("\n");
}

/// Command line shared by the JSON-writing benches:
///   <bench> [output.json] [--check baseline.json] [--tolerance FRAC]
struct CheckArgs {
  std::string out_path;
  std::string baseline_path;  ///< Empty: no check.
  double tolerance = 0.0;     ///< Relative; 0 = exact.
};

inline CheckArgs ParseCheckArgs(int argc, char** argv,
                                const char* default_out) {
  CheckArgs args;
  args.out_path = default_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      args.baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      args.tolerance = std::atof(argv[++i]);
    } else {
      args.out_path = argv[i];
    }
  }
  return args;
}

/// The deterministic counter keys a --check run compares. Everything that
/// measures real time (wall_seconds, *_nanos, speedup) is deliberately
/// absent: only step counts and candidate/wedge/index flow are stable
/// across runs.
inline bool IsCounterKey(const std::string& key) {
  static const char* const kKeys[] = {
      "total_steps",     "attributed_total_steps",
      "queries",         "candidates_entered",
      "candidates_pruned", "candidates_survived",
      "steps",           "setup_steps",
      "early_abandons",  "wedges_tested",
      "wedges_pruned",   "wedges_descended",
      "leaves_evaluated", "leaves_abandoned",
      "adapt_probes",    "signature_evals",
      "object_fetches",  "page_reads",
      "refinements",
  };
  for (const char* k : kKeys) {
    if (key == k) return true;
  }
  return false;
}

struct CounterSample {
  std::string key;
  double value = 0.0;
};

/// Extracts every `"key": <number>` pair whose key is a deterministic
/// counter, in document order. A full JSON parser is overkill: both sides
/// of the diff are produced by the same bench binary, so positional
/// comparison of the counter stream is exact.
inline std::vector<CounterSample> ExtractCounters(const std::string& text) {
  std::vector<CounterSample> out;
  std::size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '"') {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < text.size() && text[j] != '"') ++j;
    if (j >= text.size()) break;
    const std::string key = text.substr(i + 1, j - i - 1);
    std::size_t k = j + 1;
    while (k < text.size() && std::isspace(static_cast<unsigned char>(text[k])))
      ++k;
    if (k < text.size() && text[k] == ':') {
      ++k;
      while (k < text.size() &&
             std::isspace(static_cast<unsigned char>(text[k])))
        ++k;
      if (k < text.size() &&
          (std::isdigit(static_cast<unsigned char>(text[k])) ||
           text[k] == '-')) {
        char* end = nullptr;
        const double v = std::strtod(text.c_str() + k, &end);
        if (end != text.c_str() + k) {
          if (IsCounterKey(key)) out.push_back({key, v});
          i = static_cast<std::size_t>(end - text.c_str());
          continue;
        }
      }
    }
    i = j + 1;
  }
  return out;
}

inline bool ReadFile(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[4096];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, got);
  std::fclose(f);
  return true;
}

/// Diffs the deterministic counters of `current_path` against
/// `baseline_path`. Returns 0 when every counter is within `tolerance`
/// (relative), 1 otherwise.
inline int CheckAgainstBaseline(const std::string& current_path,
                                const std::string& baseline_path,
                                double tolerance) {
  std::string current_text;
  std::string baseline_text;
  if (!ReadFile(current_path, &current_text)) {
    std::fprintf(stderr, "check: cannot read %s\n", current_path.c_str());
    return 1;
  }
  if (!ReadFile(baseline_path, &baseline_text)) {
    std::fprintf(stderr, "check: cannot read baseline %s\n",
                 baseline_path.c_str());
    return 1;
  }
  const std::vector<CounterSample> current = ExtractCounters(current_text);
  const std::vector<CounterSample> baseline = ExtractCounters(baseline_text);
  if (current.size() != baseline.size()) {
    std::fprintf(stderr,
                 "check FAILED: counter stream length differs (current %zu "
                 "vs baseline %zu) — schema or configuration drift\n",
                 current.size(), baseline.size());
    return 1;
  }
  int failures = 0;
  for (std::size_t i = 0; i < current.size(); ++i) {
    if (current[i].key != baseline[i].key) {
      std::fprintf(stderr,
                   "check FAILED at counter %zu: key '%s' vs baseline '%s'\n",
                   i, current[i].key.c_str(), baseline[i].key.c_str());
      return 1;
    }
    const double base = baseline[i].value;
    const double diff = std::fabs(current[i].value - base);
    const double allowed = tolerance * std::fabs(base);
    if (diff > allowed) {
      std::fprintf(stderr,
                   "check FAILED: counter %zu '%s' = %.0f, baseline %.0f "
                   "(|diff| %.0f > allowed %.0f)\n",
                   i, current[i].key.c_str(), current[i].value, base, diff,
                   allowed);
      ++failures;
    }
  }
  if (failures > 0) return 1;
  std::printf("baseline check passed: %zu counters within %.2f%% of %s\n",
              current.size(), 100.0 * tolerance, baseline_path.c_str());
  return 0;
}

}  // namespace rotind::bench

#endif  // ROTIND_BENCH_BENCH_COMMON_H_
