/// rotind — command-line front end for the rotation-invariant shape/series
/// search library.
///
///   rotind generate --kind projectile|heterogeneous|lightcurve|table8
///                   --m 1000 --n 251 --seed 1 --out db.csv [--binary]
///   rotind info     --db db.csv
///   rotind search   --db db.csv --query-index 5 [--algo wedge|brute|ea|fft]
///                   [--cascade index,vecsig,fft,lbi,ea] [--dtw --band 5]
///                   [--mirror] [--max-shift S] [--metrics-json out.json]
///   rotind knn      --db db.csv --query-index 5 --k 5 [...]
///                   [--cascade ...] [--metrics-json out.json]
///   rotind classify --db db.csv [--dtw --band 5] [--threads T]
///   rotind motif    --db db.csv [--dtw --band 5]
///   rotind discord  --db db.csv [--dtw --band 5]
///   rotind index build  --db db.csv --index db.ridx [--page-size 4096]
///                       [--dims 16] [--paa-dims 16]
///   rotind index shard-build --db db.csv --manifest db.rman --shards 4
///                       [--page-size 4096] [--dims 16] [--paa-dims 16]
///   rotind index compact --manifest db.rman [--inserts more.csv]
///                       [--tombstones 3,17,42] [--page-size 4096]
///                       [--dims 16] [--paa-dims 16]
///   rotind index search --index db.ridx --query-db q.csv --query-index 5
///                       [--k 1] [--backend file|memory|simulated]
///                       [--db db.csv (memory/simulated)] [--pool-pages 64]
///                       [--eviction lru|clock] [--dtw --band 5] [--mirror]
///                       [--metrics-json out.json]
///   rotind version  (prints the build version and the dispatched SIMD
///                    kernel tier; honours ROTIND_SIMD=avx2|scalar)
///   rotind serve    --index db.ridx | --manifest db.rman
///                   [--workers 4] [--queue-capacity 64]
///                   [--default-deadline-ms D] [--drain-deadline-ms 5000]
///                   [--no-degrade] [--degraded-k 1] [--retry-attempts 3]
///                   [--fault-transient-prob p] [--fault-torn-prob p]
///                   [--fault-latency-prob p] [--fault-seed s]
///                   [--pool-pages 64] [--eviction lru|clock]
///                   [--dtw --band 5] [--mirror] [--metrics-json out.json]
///
/// `index build` writes the paged RIDX container (resident FFT/PAA
/// signatures + paged series data); `index search` answers exact
/// rotation-invariant (k-)NN queries over it. --backend selects storage:
/// `file` reads data pages with pread through a BufferPool, while `memory`
/// and `simulated` rebuild the index in RAM from --db (simulated adds the
/// paper's Section 5.4 page accounting). All three return bit-identical
/// matches; only the `io:` line differs — diffing the `match:` lines across
/// backends is the storage-roundtrip check CI runs.
///
/// --cascade overrides --algo for `search` and `knn` with an explicit
/// pruning pipeline: a comma-separated list of stages from index (the
/// signature index of `index search`: visit candidates in signature-bound
/// order, at --dims FFT magnitudes or, under --dtw, --paa-dims PAA
/// segments), vecsig (pooled rotation-invariant signature filter), fft
/// (FFT-magnitude filter), lbi (two-pass LB_Improved filter), wedge
/// (hierarchal wedge terminal), ea (early-abandoning scan terminal), full /
/// fullband (exhaustive terminals). Unsound compositions are normalized,
/// not rejected: stages that do not lower-bound the configured measure are
/// dropped, index moves to the front, and a filter-only list gets `ea`
/// appended, so the answers stay exact.
///
/// Databases are UCR-format text (label,v1,v2,...) or the binary format
/// produced with --binary; the loader sniffs the magic bytes.
///
/// --metrics-json writes the query's stage-attributed observability report
/// (candidate flow, step attribution, wedge walk, latency) as JSON.
///
/// `index shard-build` splits the database into --shards contiguous RIDX
/// shards (uneven split: the first `m % shards` shards get one extra row)
/// next to a checksummed manifest published by atomic rename; `index
/// compact` opens a manifest, stages --inserts / --tombstones in the delta
/// segment, and folds them into a new manifest generation. `serve
/// --manifest` serves a sharded index and accepts the admin line
/// `reload [<manifest>]` on stdin: the server re-opens the manifest,
/// drains in-flight queries, and atomically swaps the engine — a reload
/// that does not advance the generation (rollback) is refused.
///
/// `serve` runs a long-lived concurrent query server over the file
/// backend: requests are read one per line from stdin (see
/// src/serve/protocol.h for the grammar), responses are written one per
/// line to stdout, and SIGINT/SIGTERM (or stdin EOF) triggers a graceful
/// shutdown — admission stops, in-flight and queued work drains under
/// --drain-deadline-ms, and the final server stats are dumped as JSON to
/// stderr (or --metrics-json). The --fault-* flags wire a seeded fault
/// schedule into the backend for resilience testing.
///
/// Exit codes: 0 success; 1 runtime/I-O failure (e.g. a write failed, or
/// `serve` could not open the index); 2 usage error or invalid input
/// (unknown flag, malformed number, value out of range for the loaded
/// database, unreadable/corrupt database). A signal-triggered `serve`
/// drain exits 0: shutdown-by-request is the server working as designed.

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/flat_dataset.h"
#include "src/datasets/synthetic.h"
#include "src/lightcurve/lightcurve.h"
#include "src/eval/classify.h"
#include "src/index/index_io.h"
#include "src/index/sharded_index.h"
#include "src/io/serialize.h"
#include "src/mining/motif.h"
#include "src/obs/metrics.h"
#include "src/search/engine.h"
#include "src/search/scan.h"
#include "src/simd/simd.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"
#include "src/storage/backend.h"
#include "src/storage/manifest.h"

namespace {

using namespace rotind;

struct Args {
  std::string command;
  std::string subcommand;  ///< `index` only: build|search.
  std::string db_path;
  std::string out_path;
  std::string metrics_json_path;
  std::string kind = "projectile";
  std::string algo = "wedge";
  std::string cascade;  ///< Comma-separated stage list; empty = use --algo.
  CascadeSpec cascade_spec;  ///< Parsed form of `cascade` (when non-empty).
  std::size_t m = 1000;
  std::size_t n = 251;
  std::uint64_t seed = 1;
  int query_index = 0;
  int k = 5;
  bool dtw = false;
  int band = 5;
  bool mirror = false;
  int max_shift = -1;
  bool binary = false;
  int threads = 1;
  // `index` subcommands.
  std::string index_path;
  std::string query_db_path;
  // Sharded-index subcommands + `serve --manifest`.
  std::string manifest_path;
  std::string inserts_path;
  std::string tombstones;  ///< Comma-separated global ids.
  int shards = 4;
  std::string backend = "file";
  std::string eviction = "lru";
  std::size_t page_size = 4096;
  std::size_t dims = 16;
  std::size_t paa_dims = 16;
  std::size_t pool_pages = 64;
  // `serve` only.
  int workers = 4;
  std::size_t queue_capacity = 64;
  double default_deadline_ms = 0.0;
  double drain_deadline_ms = 5000.0;
  bool no_degrade = false;
  int degraded_k = 1;
  int retry_attempts = 3;
  double fault_transient_prob = 0.0;
  double fault_torn_prob = 0.0;
  double fault_latency_prob = 0.0;
  std::uint64_t fault_seed = 1;
};

int Usage() {
  std::fprintf(stderr,
               "usage: rotind <generate|info|search|knn|classify|motif|"
               "discord|index build|index search|serve|version> [flags]\n"
               "  see the header of tools/rotind_cli.cc for the flag list\n");
  return 2;
}

/// Strict numeric parsing: the whole token must convert, with no silent
/// truncation (std::atoi("12abc") == 12 and std::atoi("zebra") == 0 both
/// used to slip through).
bool ParseInt(const char* flag, const char* text, long min, long max,
              long* out) {
  if (text == nullptr || *text == '\0') {
    std::fprintf(stderr, "%s needs a value\n", flag);
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (errno == ERANGE || end != text + std::strlen(text)) {
    std::fprintf(stderr, "%s: '%s' is not a valid integer\n", flag, text);
    return false;
  }
  if (v < min || v > max) {
    std::fprintf(stderr, "%s: %ld is out of range [%ld, %ld]\n", flag, v, min,
                 max);
    return false;
  }
  *out = v;
  return true;
}

/// Same strictness for floating-point flags (probabilities, deadlines).
bool ParseDoubleFlag(const char* flag, const char* text, double min,
                     double max, double* out) {
  if (text == nullptr || *text == '\0') {
    std::fprintf(stderr, "%s needs a value\n", flag);
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (errno == ERANGE || end != text + std::strlen(text)) {
    std::fprintf(stderr, "%s: '%s' is not a valid number\n", flag, text);
    return false;
  }
  if (!(v >= min && v <= max)) {  // NaN fails too.
    std::fprintf(stderr, "%s: %g is out of range [%g, %g]\n", flag, v, min,
                 max);
    return false;
  }
  *out = v;
  return true;
}

/// Parses a comma-separated --cascade stage list into a CascadeSpec.
/// Stage names mirror the StageKind enum: the source stage index, filters
/// vecsig|fft|lbi, terminals wedge|ea|full|fullband. Soundness
/// normalization (dropping stages that do not lower-bound the configured
/// measure) is the engine's job, not the parser's — the CLI only rejects
/// names it does not know.
bool ParseCascadeFlag(const std::string& text, CascadeSpec* out) {
  out->stages.clear();
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string token =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (token == "index") {
      out->stages.push_back(StageKind::kSignatureIndex);
    } else if (token == "vecsig") {
      out->stages.push_back(StageKind::kVecSignature);
    } else if (token == "fft") {
      out->stages.push_back(StageKind::kFftMagnitude);
    } else if (token == "lbi") {
      out->stages.push_back(StageKind::kLbImproved);
    } else if (token == "wedge") {
      out->stages.push_back(StageKind::kWedge);
    } else if (token == "ea") {
      out->stages.push_back(StageKind::kExactScan);
    } else if (token == "full") {
      out->stages.push_back(StageKind::kFullScan);
    } else if (token == "fullband") {
      out->stages.push_back(StageKind::kFullScanBanded);
    } else {
      std::fprintf(stderr,
                   "--cascade: unknown stage '%s' (use "
                   "index|vecsig|fft|lbi|wedge|ea|full|fullband)\n",
                   token.c_str());
      return false;
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  if (out->stages.empty()) {
    std::fprintf(stderr, "--cascade needs at least one stage\n");
    return false;
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 2) return false;
  args->command = argv[1];
  int first_flag = 2;
  if (args->command == "index") {
    if (argc < 3) {
      std::fprintf(stderr, "index needs a subcommand: build|search\n");
      return false;
    }
    args->subcommand = argv[2];
    if (args->subcommand != "build" && args->subcommand != "search" &&
        args->subcommand != "shard-build" && args->subcommand != "compact") {
      std::fprintf(stderr,
                   "unknown index subcommand '%s' (use "
                   "build|search|shard-build|compact)\n",
                   args->subcommand.c_str());
      return false;
    }
    first_flag = 3;
  }
  for (int i = first_flag; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    auto next_int = [&](long min, long max, long* out) {
      return ParseInt(flag.c_str(), next(), min, max, out);
    };
    long v = 0;
    if (flag == "--db") {
      const char* value = next();
      if (value == nullptr) return false;
      args->db_path = value;
    } else if (flag == "--out") {
      const char* value = next();
      if (value == nullptr) return false;
      args->out_path = value;
    } else if (flag == "--metrics-json") {
      const char* value = next();
      if (value == nullptr) return false;
      args->metrics_json_path = value;
    } else if (flag == "--kind") {
      const char* value = next();
      if (value == nullptr) return false;
      args->kind = value;
    } else if (flag == "--algo") {
      const char* value = next();
      if (value == nullptr) return false;
      args->algo = value;
    } else if (flag == "--cascade") {
      const char* value = next();
      if (value == nullptr) return false;
      args->cascade = value;
    } else if (flag == "--m") {
      if (!next_int(1, std::numeric_limits<long>::max(), &v)) return false;
      args->m = static_cast<std::size_t>(v);
    } else if (flag == "--n") {
      if (!next_int(1, std::numeric_limits<long>::max(), &v)) return false;
      args->n = static_cast<std::size_t>(v);
    } else if (flag == "--seed") {
      if (!next_int(0, std::numeric_limits<long>::max(), &v)) return false;
      args->seed = static_cast<std::uint64_t>(v);
    } else if (flag == "--query-index") {
      if (!next_int(0, std::numeric_limits<int>::max(), &v)) return false;
      args->query_index = static_cast<int>(v);
    } else if (flag == "--k") {
      if (!next_int(1, std::numeric_limits<int>::max(), &v)) return false;
      args->k = static_cast<int>(v);
    } else if (flag == "--band") {
      if (!next_int(0, std::numeric_limits<int>::max(), &v)) return false;
      args->band = static_cast<int>(v);
    } else if (flag == "--max-shift") {
      if (!next_int(-1, std::numeric_limits<int>::max(), &v)) return false;
      args->max_shift = static_cast<int>(v);
    } else if (flag == "--threads") {
      if (!next_int(1, 256, &v)) return false;
      args->threads = static_cast<int>(v);
    } else if (flag == "--dtw") {
      args->dtw = true;
    } else if (flag == "--mirror") {
      args->mirror = true;
    } else if (flag == "--binary") {
      args->binary = true;
    } else if (flag == "--index") {
      const char* value = next();
      if (value == nullptr) return false;
      args->index_path = value;
    } else if (flag == "--query-db") {
      const char* value = next();
      if (value == nullptr) return false;
      args->query_db_path = value;
    } else if (flag == "--manifest") {
      const char* value = next();
      if (value == nullptr) return false;
      args->manifest_path = value;
    } else if (flag == "--inserts") {
      const char* value = next();
      if (value == nullptr) return false;
      args->inserts_path = value;
    } else if (flag == "--tombstones") {
      const char* value = next();
      if (value == nullptr) return false;
      args->tombstones = value;
    } else if (flag == "--shards") {
      if (!next_int(1, 1 << 20, &v)) return false;
      args->shards = static_cast<int>(v);
    } else if (flag == "--backend") {
      const char* value = next();
      if (value == nullptr) return false;
      args->backend = value;
    } else if (flag == "--eviction") {
      const char* value = next();
      if (value == nullptr) return false;
      args->eviction = value;
    } else if (flag == "--page-size") {
      if (!next_int(64, 64L << 20, &v)) return false;
      args->page_size = static_cast<std::size_t>(v);
    } else if (flag == "--dims") {
      if (!next_int(0, std::numeric_limits<int>::max(), &v)) return false;
      args->dims = static_cast<std::size_t>(v);
    } else if (flag == "--paa-dims") {
      if (!next_int(0, std::numeric_limits<int>::max(), &v)) return false;
      args->paa_dims = static_cast<std::size_t>(v);
    } else if (flag == "--pool-pages") {
      if (!next_int(1, std::numeric_limits<int>::max(), &v)) return false;
      args->pool_pages = static_cast<std::size_t>(v);
    } else if (flag == "--workers") {
      if (!next_int(1, 256, &v)) return false;
      args->workers = static_cast<int>(v);
    } else if (flag == "--queue-capacity") {
      if (!next_int(1, 1 << 20, &v)) return false;
      args->queue_capacity = static_cast<std::size_t>(v);
    } else if (flag == "--default-deadline-ms") {
      if (!ParseDoubleFlag(flag.c_str(), next(), 0.0, 86'400'000.0,
                           &args->default_deadline_ms)) {
        return false;
      }
    } else if (flag == "--drain-deadline-ms") {
      if (!ParseDoubleFlag(flag.c_str(), next(), 1.0, 86'400'000.0,
                           &args->drain_deadline_ms)) {
        return false;
      }
    } else if (flag == "--no-degrade") {
      args->no_degrade = true;
    } else if (flag == "--degraded-k") {
      if (!next_int(1, std::numeric_limits<int>::max(), &v)) return false;
      args->degraded_k = static_cast<int>(v);
    } else if (flag == "--retry-attempts") {
      if (!next_int(1, 16, &v)) return false;
      args->retry_attempts = static_cast<int>(v);
    } else if (flag == "--fault-transient-prob") {
      if (!ParseDoubleFlag(flag.c_str(), next(), 0.0, 1.0,
                           &args->fault_transient_prob)) {
        return false;
      }
    } else if (flag == "--fault-torn-prob") {
      if (!ParseDoubleFlag(flag.c_str(), next(), 0.0, 1.0,
                           &args->fault_torn_prob)) {
        return false;
      }
    } else if (flag == "--fault-latency-prob") {
      if (!ParseDoubleFlag(flag.c_str(), next(), 0.0, 1.0,
                           &args->fault_latency_prob)) {
        return false;
      }
    } else if (flag == "--fault-seed") {
      if (!next_int(0, std::numeric_limits<long>::max(), &v)) return false;
      args->fault_seed = static_cast<std::uint64_t>(v);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args->algo != "wedge" && args->algo != "brute" && args->algo != "ea" &&
      args->algo != "fft") {
    std::fprintf(stderr,
                 "--algo must be one of wedge|brute|ea|fft, got '%s'\n",
                 args->algo.c_str());
    return false;
  }
  if (!args->cascade.empty() &&
      !ParseCascadeFlag(args->cascade, &args->cascade_spec)) {
    return false;
  }
  if (args->backend != "file" && args->backend != "memory" &&
      args->backend != "simulated") {
    std::fprintf(stderr,
                 "--backend must be one of file|memory|simulated, got '%s'\n",
                 args->backend.c_str());
    return false;
  }
  if (args->eviction != "lru" && args->eviction != "clock") {
    std::fprintf(stderr, "--eviction must be lru or clock, got '%s'\n",
                 args->eviction.c_str());
    return false;
  }
  return true;
}

bool LoadDb(const std::string& path, Dataset* out) {
  StatusOr<Dataset> binary = LoadDatasetBinaryStatus(path);
  if (binary.ok()) {
    *out = *std::move(binary);
    return true;
  }
  // Not a binary container at all? Try UCR text; otherwise report the
  // binary loader's specific verdict (truncated, corrupt header, ...).
  if (binary.status().code() == StatusCode::kBadMagic ||
      binary.status().code() == StatusCode::kTruncated) {
    StatusOr<Dataset> ucr = LoadDatasetUcrStatus(path);
    if (ucr.ok()) {
      *out = *std::move(ucr);
      return true;
    }
    std::fprintf(stderr, "cannot read database %s: %s\n", path.c_str(),
                 ucr.status().ToString().c_str());
    return false;
  }
  std::fprintf(stderr, "cannot read database %s: %s\n", path.c_str(),
               binary.status().ToString().c_str());
  return false;
}

/// Checks every flag whose valid range depends on the loaded database.
/// Returns false (after an actionable message) when any is out of range.
bool ValidateArgsAgainstDb(const Args& args, const Dataset& db) {
  const long m = static_cast<long>(db.size());
  const long n = static_cast<long>(db.length());
  if (args.command == "search" || args.command == "knn") {
    if (args.query_index >= m) {
      std::fprintf(stderr,
                   "--query-index %d is out of range: database has %ld "
                   "series (valid: 0..%ld)\n",
                   args.query_index, m, m - 1);
      return false;
    }
  }
  if (args.command == "knn") {
    if (args.k > m - 1) {
      std::fprintf(stderr,
                   "--k %d exceeds the %ld available neighbors (database "
                   "size %ld minus the query)\n",
                   args.k, m - 1, m);
      return false;
    }
  }
  if (args.dtw && args.band > n) {
    std::fprintf(stderr,
                 "--band %d exceeds the series length %ld; use 0..%ld\n",
                 args.band, n, n);
    return false;
  }
  if (args.max_shift > n) {
    std::fprintf(stderr,
                 "--max-shift %d exceeds the series length %ld; use -1 "
                 "(unlimited) or 0..%ld\n",
                 args.max_shift, n, n);
    return false;
  }
  return true;
}

ScanOptions MakeScanOptions(const Args& args) {
  ScanOptions options;
  options.kind = args.dtw ? DistanceKind::kDtw : DistanceKind::kEuclidean;
  options.band = args.band;
  options.rotation.mirror = args.mirror;
  options.rotation.max_shift = args.max_shift;
  return options;
}

ScanAlgorithm MakeAlgorithm(const Args& args) {
  if (args.algo == "brute") {
    return args.dtw ? ScanAlgorithm::kBruteForceBanded
                    : ScanAlgorithm::kBruteForce;
  }
  if (args.algo == "ea") return ScanAlgorithm::kEarlyAbandon;
  if (args.algo == "fft") return ScanAlgorithm::kFftLowerBound;
  return ScanAlgorithm::kWedge;
}

/// Engine configuration for `search`/`knn`: the legacy --algo mapping,
/// with --cascade (when given) overriding the pruning pipeline. The engine
/// normalizes the spec for the configured measure, so an unsound filter is
/// dropped rather than producing wrong answers.
EngineOptions MakeEngineOptions(const Args& args) {
  EngineOptions options =
      EngineOptionsFrom(MakeScanOptions(args), MakeAlgorithm(args));
  if (!args.cascade.empty()) options.cascade = args.cascade_spec;
  options.index_dims = args.dtw ? args.paa_dims : args.dims;
  return options;
}

/// Opens the `search`/`knn` engine over `flat`; a usage error (an index
/// stage whose dims do not fit the series) is printed and yields null.
std::unique_ptr<QueryEngine> OpenEngine(const Args& args,
                                        const FlatDataset& flat,
                                        const char* command) {
  StatusOr<std::unique_ptr<QueryEngine>> opened =
      QueryEngine::Open(MakeEngineOptions(args), &flat);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", command,
                 opened.status().ToString().c_str());
    return nullptr;
  }
  return *std::move(opened);
}

/// Metrics-registry key suffix: the explicit cascade string when one was
/// given, the legacy algorithm name otherwise.
std::string PipelineLabel(const Args& args) {
  return args.cascade.empty() ? args.algo : "cascade:" + args.cascade;
}

int CmdGenerate(const Args& args) {
  Dataset ds;
  if (args.kind == "projectile") {
    ds.items = MakeProjectilePointsDatabase(args.m, args.n, args.seed);
  } else if (args.kind == "heterogeneous") {
    ds.items = MakeHeterogeneousDatabase(args.m, args.n, args.seed);
  } else if (args.kind == "lightcurve") {
    ds = MakeLightCurveDataset((args.m + 2) / 3, args.n, args.seed);
    ds.items.resize(std::min(ds.items.size(), args.m));
    ds.labels.resize(ds.items.size());
    ds.names.resize(ds.items.size());
  } else if (args.kind == "table8") {
    // Concatenates all Table 8 stand-ins; mostly useful for inspection.
    for (const auto& spec : Table8Specs(0.05)) {
      const Dataset part = MakeTable8Dataset(spec);
      ds.items.insert(ds.items.end(), part.items.begin(), part.items.end());
      ds.labels.insert(ds.labels.end(), part.labels.begin(),
                       part.labels.end());
    }
  } else {
    std::fprintf(stderr,
                 "unknown --kind %s (use projectile|heterogeneous|"
                 "lightcurve|table8)\n",
                 args.kind.c_str());
    return 2;
  }
  if (args.out_path.empty()) {
    std::fprintf(stderr, "--out is required\n");
    return 2;
  }
  const Status ok = args.binary
                        ? SaveDatasetBinaryStatus(ds, args.out_path)
                        : SaveDatasetUcrStatus(ds, args.out_path);
  if (!ok.ok()) {
    std::fprintf(stderr, "write failed: %s: %s\n", args.out_path.c_str(),
                 ok.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu series of length %zu to %s\n", ds.size(),
              ds.length(), args.out_path.c_str());
  return 0;
}

int CmdInfo(const Dataset& db) {
  std::printf("series:  %zu\n", db.size());
  std::printf("length:  %zu\n", db.length());
  if (!db.labels.empty()) {
    int max_label = 0;
    for (int l : db.labels) max_label = std::max(max_label, l);
    std::printf("labels:  0..%d\n", max_label);
  }
  return 0;
}

/// Writes the registry to --metrics-json when requested. Returns false
/// (after a message on stderr) when the write fails.
bool WriteMetricsIfRequested(const Args& args,
                             const obs::MetricsRegistry& registry) {
  if (args.metrics_json_path.empty()) return true;
  const Status ok = registry.WriteJsonFile(args.metrics_json_path);
  if (!ok.ok()) {
    std::fprintf(stderr, "cannot write metrics to %s: %s\n",
                 args.metrics_json_path.c_str(), ok.ToString().c_str());
    return false;
  }
  return true;
}

int CmdSearch(const Args& args, const Dataset& db) {
  // The engine's leave-one-out scan excludes the query's own database slot
  // directly; result indexes are already in full-database space (no copy of
  // the database, no index remapping).
  const std::size_t qi = static_cast<std::size_t>(args.query_index);
  const FlatDataset flat = FlatDataset::FromDataset(db);
  const std::unique_ptr<QueryEngine> opened = OpenEngine(args, flat, "search");
  if (opened == nullptr) return 2;
  const QueryEngine& engine = *opened;
  const Status valid = engine.ValidateQuery(db.items[qi]);
  if (!valid.ok()) {
    std::fprintf(stderr, "search failed: %s\n", valid.ToString().c_str());
    return 2;
  }
  obs::MetricsRegistry registry;
  obs::QueryMetrics* metrics =
      args.metrics_json_path.empty()
          ? nullptr
          : &registry.Get("search/" + PipelineLabel(args));
  const ScanResult r = engine.SearchLeaveOneOut(db.items[qi], qi, metrics);
  std::printf("best match: %d  distance=%.6f  shift=%d%s  steps=%llu\n",
              r.best_index, r.best_distance, r.best_shift,
              r.best_mirrored ? " (mirrored)" : "",
              static_cast<unsigned long long>(r.counter.total_steps()));
  if (!WriteMetricsIfRequested(args, registry)) return 1;
  return 0;
}

int CmdKnn(const Args& args, const Dataset& db) {
  const std::size_t qi = static_cast<std::size_t>(args.query_index);
  const FlatDataset flat = FlatDataset::FromDataset(db);
  const std::unique_ptr<QueryEngine> opened = OpenEngine(args, flat, "knn");
  if (opened == nullptr) return 2;
  const QueryEngine& engine = *opened;
  const Status valid = engine.ValidateQuery(db.items[qi]);
  if (!valid.ok()) {
    std::fprintf(stderr, "knn failed: %s\n", valid.ToString().c_str());
    return 2;
  }
  obs::MetricsRegistry registry;
  obs::QueryMetrics* metrics =
      args.metrics_json_path.empty()
          ? nullptr
          : &registry.Get("knn/" + PipelineLabel(args));
  const std::vector<Neighbor> knn =
      engine.KnnLeaveOneOut(db.items[qi], args.k, qi, nullptr, metrics);
  for (const Neighbor& nb : knn) {
    std::printf("%6d  distance=%.6f  shift=%d%s\n", nb.index, nb.distance,
                nb.shift, nb.mirrored ? " (mirrored)" : "");
  }
  if (!WriteMetricsIfRequested(args, registry)) return 1;
  return 0;
}

int CmdClassify(const Args& args, const Dataset& db) {
  if (db.labels.empty()) {
    std::fprintf(stderr, "database has no labels\n");
    return 2;
  }
  const ClassificationResult r = LeaveOneOutOneNnRotationInvariant(
      db, args.dtw ? DistanceKind::kDtw : DistanceKind::kEuclidean,
      args.band, MakeScanOptions(args).rotation, args.threads);
  std::printf("leave-one-out 1-NN error: %d / %d = %.2f%%\n", r.errors,
              r.total, 100.0 * r.error_rate());
  return 0;
}

int CmdIndexBuild(const Args& args) {
  if (args.db_path.empty() || args.index_path.empty()) {
    std::fprintf(stderr, "index build needs --db and --index\n");
    return 2;
  }
  Dataset db;
  if (!LoadDb(args.db_path, &db)) return 2;
  IndexBuildOptions build;
  build.sig_dims = args.dims;
  build.paa_dims = args.paa_dims;
  build.page_size_bytes = args.page_size;
  const Status ok = BuildIndexFile(db, build, args.index_path);
  if (!ok.ok()) {
    std::fprintf(stderr, "index build failed: %s\n", ok.ToString().c_str());
    return ok.code() == StatusCode::kInvalidArgument ? 2 : 1;
  }
  std::printf(
      "wrote %s: %zu series of length %zu, page_size=%zu, "
      "fft_dims=%zu, paa_dims=%zu%s\n",
      args.index_path.c_str(), db.size(), db.length(), args.page_size,
      args.dims, args.paa_dims, db.labels.empty() ? "" : ", labelled");
  return 0;
}

/// Directory of `path` for resolving manifest-relative shard files.
std::string DirName(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Parses the --tombstones comma-separated global-id list.
bool ParseIdList(const std::string& text, std::vector<std::uint64_t>* out) {
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string token =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    long v = 0;
    if (!ParseInt("--tombstones", token.c_str(), 0,
                  std::numeric_limits<long>::max(), &v)) {
      return false;
    }
    out->push_back(static_cast<std::uint64_t>(v));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return true;
}

int CmdIndexShardBuild(const Args& args) {
  if (args.db_path.empty() || args.manifest_path.empty()) {
    std::fprintf(stderr, "index shard-build needs --db and --manifest\n");
    return 2;
  }
  Dataset db;
  if (!LoadDb(args.db_path, &db)) return 2;
  const std::size_t shards = static_cast<std::size_t>(args.shards);
  if (db.size() < shards) {
    std::fprintf(stderr,
                 "--shards %zu exceeds the %zu series in %s (every shard "
                 "must be non-empty)\n",
                 shards, db.size(), args.db_path.c_str());
    return 2;
  }
  IndexBuildOptions build;
  build.sig_dims = args.dims;
  build.paa_dims = args.paa_dims;
  build.page_size_bytes = args.page_size;

  // Contiguous uneven split: base rows per shard, the first `extra`
  // shards take one more. Global ids are manifest order, so row g of the
  // database keeps global id g.
  const std::string dir = DirName(args.manifest_path);
  const std::size_t base = db.size() / shards;
  const std::size_t extra = db.size() % shards;
  storage::Manifest manifest;
  manifest.generation = 1;
  std::size_t row = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    const std::size_t count = base + (s < extra ? 1 : 0);
    Dataset part;
    part.items.assign(db.items.begin() + static_cast<std::ptrdiff_t>(row),
                      db.items.begin() +
                          static_cast<std::ptrdiff_t>(row + count));
    if (db.labels.size() == db.size()) {
      part.labels.assign(
          db.labels.begin() + static_cast<std::ptrdiff_t>(row),
          db.labels.begin() + static_cast<std::ptrdiff_t>(row + count));
    }
    const std::string shard_file = "shard-" + std::to_string(s) + ".ridx";
    const Status ok = BuildIndexFile(part, build, dir + "/" + shard_file);
    if (!ok.ok()) {
      std::fprintf(stderr, "shard %zu build failed: %s\n", s,
                   ok.ToString().c_str());
      return ok.code() == StatusCode::kInvalidArgument ? 2 : 1;
    }
    manifest.shards.push_back(storage::ManifestShard{
        shard_file, static_cast<std::uint64_t>(count),
        static_cast<std::uint64_t>(db.length())});
    row += count;
  }
  const Status published = storage::WriteManifest(manifest,
                                                  args.manifest_path);
  if (!published.ok()) {
    std::fprintf(stderr, "manifest write failed: %s\n",
                 published.ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote %s: generation=1, %zu shards, %zu series of length %zu "
      "(split %zu+%zu)\n",
      args.manifest_path.c_str(), shards, db.size(), db.length(),
      base + (extra > 0 ? 1 : 0), base);
  return 0;
}

int CmdIndexCompact(const Args& args) {
  if (args.manifest_path.empty()) {
    std::fprintf(stderr, "index compact needs --manifest\n");
    return 2;
  }
  StatusOr<std::unique_ptr<ShardedIndex>> opened =
      ShardedIndex::Open(args.manifest_path);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open manifest %s: %s\n",
                 args.manifest_path.c_str(),
                 opened.status().ToString().c_str());
    return 2;
  }
  ShardedIndex& index = **opened;

  std::size_t inserted = 0;
  if (!args.inserts_path.empty()) {
    Dataset more;
    if (!LoadDb(args.inserts_path, &more)) return 2;
    for (std::size_t i = 0; i < more.size(); ++i) {
      const int label = more.labels.size() == more.size() ? more.labels[i]
                                                          : 0;
      StatusOr<std::uint64_t> id = index.Insert(more.items[i], label);
      if (!id.ok()) {
        std::fprintf(stderr, "insert %zu from %s failed: %s\n", i,
                     args.inserts_path.c_str(),
                     id.status().ToString().c_str());
        return 2;
      }
      ++inserted;
    }
  }
  std::size_t removed = 0;
  if (!args.tombstones.empty()) {
    std::vector<std::uint64_t> ids;
    if (!ParseIdList(args.tombstones, &ids)) return 2;
    for (const std::uint64_t id : ids) {
      const Status gone = index.Remove(id);
      if (!gone.ok()) {
        std::fprintf(stderr, "tombstone %llu failed: %s\n",
                     static_cast<unsigned long long>(id),
                     gone.ToString().c_str());
        return 2;
      }
      ++removed;
    }
  }

  IndexBuildOptions build;
  build.sig_dims = args.dims;
  build.paa_dims = args.paa_dims;
  build.page_size_bytes = args.page_size;
  StatusOr<std::uint64_t> generation = index.Compact(build);
  if (!generation.ok()) {
    std::fprintf(stderr, "compaction failed: %s\n",
                 generation.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "compacted %s: generation=%llu, %zu shards, live=%zu "
      "(+%zu inserts, -%zu tombstones)\n",
      args.manifest_path.c_str(),
      static_cast<unsigned long long>(*generation), index.shard_count(),
      index.live_size(), inserted, removed);
  return 0;
}

int CmdIndexSearch(const Args& args) {
  if (args.index_path.empty() && args.backend == "file") {
    std::fprintf(stderr, "index search --backend file needs --index\n");
    return 2;
  }
  // The paper's Table 7 index is the engine's kSignatureIndex stage in
  // front of the wedge terminal. file: open the paged container, whose
  // resident FFT/PAA sections become the index rows; memory/simulated:
  // build the index in RAM from --db (simulated adds the paper's page
  // accounting, memory reports no I/O). All three answer bit-identically.
  EngineOptions options;
  options.kind = args.dtw ? DistanceKind::kDtw : DistanceKind::kEuclidean;
  options.band = args.band;
  options.rotation.mirror = args.mirror;
  options.rotation.max_shift = args.max_shift;
  options.cascade.stages = {StageKind::kSignatureIndex, StageKind::kWedge};
  options.index_dims = args.dtw ? args.paa_dims : args.dims;
  Dataset db;
  FlatDataset flat;
  if (args.backend == "file") {
    options.storage.backend = storage::BackendKind::kFile;
    options.storage.index_path = args.index_path;
    options.storage.pool_pages = args.pool_pages;
    options.storage.eviction = args.eviction == "clock"
                                   ? storage::EvictionPolicy::kClock
                                   : storage::EvictionPolicy::kLru;
  } else {
    if (args.db_path.empty()) {
      std::fprintf(stderr, "index search --backend %s needs --db\n",
                   args.backend.c_str());
      return 2;
    }
    if (!LoadDb(args.db_path, &db)) return 2;
    flat = FlatDataset::FromDataset(db);
    if (args.backend == "simulated") {
      options.storage.backend = storage::BackendKind::kSimulated;
      options.storage.page_size_bytes = args.page_size;
    }
  }
  StatusOr<std::unique_ptr<QueryEngine>> opened =
      QueryEngine::Open(options, &flat);
  if (!opened.ok()) {
    std::fprintf(stderr, "cannot open index over %s: %s\n",
                 args.backend == "file" ? args.index_path.c_str()
                                        : args.db_path.c_str(),
                 opened.status().ToString().c_str());
    return 2;
  }
  const QueryEngine& engine = **opened;
  const storage::StorageBackend& backend = *engine.backend();

  // The query comes from --query-db when given (the normal case: querying
  // an index with fresh data), else from the indexed objects themselves
  // (self-match at distance 0 — useful as a smoke test).
  Series query;
  const std::size_t qi = static_cast<std::size_t>(args.query_index);
  if (!args.query_db_path.empty()) {
    Dataset qdb;
    if (!LoadDb(args.query_db_path, &qdb)) return 2;
    if (qi >= qdb.size()) {
      std::fprintf(stderr,
                   "--query-index %d is out of range: %s has %zu series\n",
                   args.query_index, args.query_db_path.c_str(), qdb.size());
      return 2;
    }
    query = std::move(qdb.items[qi]);
  } else {
    if (qi >= backend.size()) {
      std::fprintf(stderr,
                   "--query-index %d is out of range: index has %zu series\n",
                   args.query_index, backend.size());
      return 2;
    }
    StatusOr<storage::SeriesHandle> handle = backend.TryFetch(qi, nullptr);
    if (!handle.ok()) {
      std::fprintf(stderr, "cannot fetch query %zu: %s\n", qi,
                   handle.status().ToString().c_str());
      return 1;
    }
    query.assign(handle->data(), handle->data() + handle->length());
  }
  if (query.size() != backend.length()) {
    std::fprintf(stderr, "query has length %zu, indexed objects %zu\n",
                 query.size(), backend.length());
    return 2;
  }

  // The io: line reads the query's fetch accounting from its metrics, so
  // they are collected even without --metrics-json.
  obs::MetricsRegistry registry;
  obs::QueryMetrics local;
  obs::QueryMetrics* metrics =
      args.metrics_json_path.empty()
          ? &local
          : &registry.Get("index-search/" + args.backend);
  if (args.k <= 1) {
    const ScanResult r = engine.Search(query, metrics);
    std::printf("match: rank=0 index=%d distance=%.6f\n", r.best_index,
                r.best_distance);
  } else {
    const std::vector<Neighbor> knn =
        engine.Knn(query, args.k, nullptr, metrics);
    for (std::size_t rank = 0; rank < knn.size(); ++rank) {
      std::printf("match: rank=%zu index=%d distance=%.6f\n", rank,
                  knn[rank].index, knn[rank].distance);
    }
  }

  // Only the file and simulated backends print an io: line (keeping the
  // match: lines the only backend-independent output is what the CI
  // roundtrip diff relies on).
  const obs::IndexStats& io = metrics->index;
  if (args.backend == "file") {
    const storage::PoolCounters pool =
        static_cast<const storage::FileBackend&>(backend).pool().counters();
    std::printf("io: backend=%s fetches=%llu pages_read=%llu "
                "pool_hits=%llu pool_evictions=%llu bytes_read=%llu\n",
                backend.name(),
                static_cast<unsigned long long>(io.object_fetches),
                static_cast<unsigned long long>(io.page_reads),
                static_cast<unsigned long long>(pool.hits),
                static_cast<unsigned long long>(pool.evictions),
                static_cast<unsigned long long>(pool.bytes_read));
    const Status failed = backend.error();
    if (!failed.ok()) {
      std::fprintf(stderr, "storage error during search: %s\n",
                   failed.ToString().c_str());
      return 1;
    }
  } else if (args.backend == "simulated") {
    std::printf("io: backend=%s fetches=%llu pages_read=%llu "
                "fetch_fraction=%.4f\n",
                backend.name(),
                static_cast<unsigned long long>(io.object_fetches),
                static_cast<unsigned long long>(io.page_reads),
                static_cast<double>(io.object_fetches) /
                    static_cast<double>(backend.size()));
  }
  if (!WriteMetricsIfRequested(args, registry)) return 1;
  return 0;
}

int CmdMotif(const Args& args, const Dataset& db, bool discord) {
  if (db.size() < 2) {
    std::fprintf(stderr, "motif/discord mining needs at least 2 series\n");
    return 2;
  }
  MiningOptions options;
  options.kind = args.dtw ? DistanceKind::kDtw : DistanceKind::kEuclidean;
  options.band = args.band;
  options.rotation.mirror = args.mirror;
  options.rotation.max_shift = args.max_shift;
  if (discord) {
    const DiscordResult r = FindDiscord(db.items, options);
    std::printf("discord: %d  nn=%d  nn-distance=%.6f\n", r.index,
                r.nearest_neighbor, r.distance);
  } else {
    const MotifResult r = FindMotifPair(db.items, options);
    std::printf("motif pair: (%d, %d)  distance=%.6f  shift=%d%s\n", r.first,
                r.second, r.distance, r.shift,
                r.mirrored ? " (mirrored)" : "");
  }
  return 0;
}

/// Set by the SIGINT/SIGTERM handler; polled by the serve read loop.
volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleShutdownSignal(int /*signum*/) { g_shutdown_requested = 1; }

/// Installs `HandleShutdownSignal` WITHOUT SA_RESTART: the blocking
/// read(2) on stdin must fail with EINTR so the serve loop can notice the
/// signal and begin the drain instead of sleeping until the next request.
bool InstallShutdownHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleShutdownSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;
  return sigaction(SIGINT, &action, nullptr) == 0 &&
         sigaction(SIGTERM, &action, nullptr) == 0;
}

/// Sharded-serve configuration shared by startup and `reload`.
ShardedOptions MakeShardedOptions(const Args& args) {
  ShardedOptions options;
  options.pool_pages = args.pool_pages;
  options.eviction = args.eviction == "clock"
                         ? storage::EvictionPolicy::kClock
                         : storage::EvictionPolicy::kLru;
  options.tuning.retry.max_attempts = args.retry_attempts;
  options.tuning.faults.seed = args.fault_seed;
  options.tuning.faults.transient_read_prob = args.fault_transient_prob;
  options.tuning.faults.torn_page_prob = args.fault_torn_prob;
  options.tuning.faults.latency_spike_prob = args.fault_latency_prob;
  options.engine.kind =
      args.dtw ? DistanceKind::kDtw : DistanceKind::kEuclidean;
  options.engine.band = args.band;
  options.engine.rotation.mirror = args.mirror;
  options.engine.rotation.max_shift = args.max_shift;
  return options;
}

int CmdServe(const Args& args) {
  if (args.index_path.empty() == args.manifest_path.empty()) {
    std::fprintf(stderr,
                 "serve needs exactly one of --index or --manifest\n");
    return 2;
  }

  // Server-mode contract: a fatal open failure is exit 1, not 2 — the
  // flags were fine, the storage was not.
  std::shared_ptr<const QueryEngine> engine;
  std::uint64_t generation = 0;
  if (!args.manifest_path.empty()) {
    StatusOr<std::unique_ptr<ShardedIndex>> sharded =
        ShardedIndex::Open(args.manifest_path, MakeShardedOptions(args));
    if (!sharded.ok()) {
      std::fprintf(stderr, "serve: cannot open manifest %s: %s\n",
                   args.manifest_path.c_str(),
                   sharded.status().ToString().c_str());
      return 1;
    }
    // The engine owns its snapshot (shards included); the ShardedIndex
    // handle itself is not needed once the engine is built — reloads
    // re-open the manifest from scratch.
    engine = (*sharded)->SnapshotEngine();
    generation = (*sharded)->generation();
  } else {
    EngineOptions options;
    options.kind = args.dtw ? DistanceKind::kDtw : DistanceKind::kEuclidean;
    options.band = args.band;
    options.rotation.mirror = args.mirror;
    options.rotation.max_shift = args.max_shift;
    options.storage.backend = storage::BackendKind::kFile;
    options.storage.index_path = args.index_path;
    options.storage.pool_pages = args.pool_pages;
    options.storage.eviction = args.eviction == "clock"
                                   ? storage::EvictionPolicy::kClock
                                   : storage::EvictionPolicy::kLru;
    options.storage.retry.max_attempts = args.retry_attempts;
    options.storage.faults.seed = args.fault_seed;
    options.storage.faults.transient_read_prob = args.fault_transient_prob;
    options.storage.faults.torn_page_prob = args.fault_torn_prob;
    options.storage.faults.latency_spike_prob = args.fault_latency_prob;

    StatusOr<std::unique_ptr<QueryEngine>> opened =
        QueryEngine::Open(options);
    if (!opened.ok()) {
      std::fprintf(stderr, "serve: cannot open index %s: %s\n",
                   args.index_path.c_str(),
                   opened.status().ToString().c_str());
      return 1;
    }
    engine = std::shared_ptr<const QueryEngine>(*std::move(opened));
  }

  serve::ServerOptions server_options;
  server_options.num_workers = args.workers;
  server_options.queue_capacity = args.queue_capacity;
  server_options.default_deadline = std::chrono::nanoseconds(
      static_cast<std::int64_t>(args.default_deadline_ms * 1'000'000.0));
  server_options.drain_deadline = std::chrono::nanoseconds(
      static_cast<std::int64_t>(args.drain_deadline_ms * 1'000'000.0));
  server_options.degrade_under_overload = !args.no_degrade;
  server_options.degraded_k = args.degraded_k;

  serve::QueryServer server(std::move(engine), server_options, generation);
  server.Start();

  // Responses arrive on worker threads; rejections are printed inline from
  // this thread. One mutex keeps the output line-atomic either way.
  std::mutex stdout_mutex;
  const auto print_line = [&stdout_mutex](const std::string& line) {
    std::lock_guard<std::mutex> lock(stdout_mutex);
    std::fputs(line.c_str(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
  };
  const auto on_done = [&print_line](const serve::Request& request,
                                     const serve::Response& response) {
    print_line(serve::FormatResponse(request, response));
  };

  if (!InstallShutdownHandlers()) {
    std::fprintf(stderr, "serve: cannot install signal handlers\n");
    return 1;
  }

  // Raw read(2) loop, not iostreams: the signal handler interrupts the
  // syscall (EINTR) so a SIGTERM with no traffic still drains promptly.
  std::string current_manifest = args.manifest_path;
  std::string pending;
  char buf[4096];
  bool eof = false;
  while (!eof && g_shutdown_requested == 0) {
    const ssize_t got = read(STDIN_FILENO, buf, sizeof(buf));
    if (got < 0) {
      if (errno == EINTR) continue;  // Re-check g_shutdown_requested.
      std::fprintf(stderr, "serve: stdin read failed: %s\n",
                   std::strerror(errno));
      break;
    }
    if (got == 0) {
      eof = true;
      if (pending.empty()) break;
      pending.push_back('\n');  // Flush an unterminated final line.
    } else {
      pending.append(buf, static_cast<std::size_t>(got));
    }
    std::size_t start = 0;
    for (std::size_t nl = pending.find('\n', start);
         nl != std::string::npos; nl = pending.find('\n', start)) {
      const std::string_view line(pending.data() + start, nl - start);
      start = nl + 1;
      if (line.empty()) continue;
      // Admin verbs never enter the query queue: `reload` re-opens the
      // manifest and swaps the engine under the server's drain barrier.
      if (serve::IsAdminRequest(line)) {
        const auto reload_err = [&print_line](const Status& status) {
          print_line("ERR " +
                     std::string(StatusCodeName(status.code())) +
                     " op=reload msg=" + status.message());
        };
        StatusOr<serve::AdminRequest> admin =
            serve::ParseAdminRequest(line);
        if (!admin.ok()) {
          reload_err(admin.status());
          continue;
        }
        if (current_manifest.empty() && admin->path.empty()) {
          reload_err(Status::InvalidArgument(
              "reload needs a manifest (server was started with --index; "
              "pass `reload <manifest>` or restart with --manifest)"));
          continue;
        }
        const std::string target =
            admin->path.empty() ? current_manifest : admin->path;
        StatusOr<std::unique_ptr<ShardedIndex>> next =
            ShardedIndex::Open(target, MakeShardedOptions(args));
        if (!next.ok()) {
          reload_err(next.status());
          continue;
        }
        const std::uint64_t next_generation = (*next)->generation();
        const Status swapped =
            server.SwapEngine((*next)->SnapshotEngine(), next_generation);
        if (!swapped.ok()) {
          reload_err(swapped);
          continue;
        }
        current_manifest = target;
        print_line("OK op=reload generation=" +
                   std::to_string(next_generation));
        continue;
      }
      StatusOr<serve::Request> request = serve::ParseRequest(line);
      if (!request.ok()) {
        print_line("ERR " +
                   std::string(StatusCodeName(request.status().code())) +
                   " msg=" + request.status().message());
        continue;
      }
      Status admitted = server.Submit(*request, on_done);
      if (!admitted.ok()) {
        serve::Response rejected;
        rejected.status = admitted;
        print_line(serve::FormatResponse(*request, rejected));
      }
    }
    pending.erase(0, start);
  }

  const bool clean = server.Shutdown();
  const serve::ServerStats stats = server.stats();
  const std::string report = stats.ToJson();
  if (!args.metrics_json_path.empty()) {
    std::FILE* f = std::fopen(args.metrics_json_path.c_str(), "w");
    if (f == nullptr || std::fputs(report.c_str(), f) == EOF ||
        std::fputc('\n', f) == EOF || std::fclose(f) != 0) {
      if (f != nullptr) std::fclose(f);
      std::fprintf(stderr, "serve: cannot write %s\n",
                   args.metrics_json_path.c_str());
      return 1;
    }
  } else {
    std::fprintf(stderr, "%s\n", report.c_str());
  }
  if (!clean) {
    std::fprintf(stderr,
                 "serve: drain deadline expired; %llu in-flight queries "
                 "were hard-cancelled\n",
                 static_cast<unsigned long long>(stats.cancelled));
  }
  // Shutdown-by-signal or by EOF is the server working as designed: the
  // drain ran and every admitted request got a typed response. Exit 0.
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Environment is configuration too: an unknown ROTIND_SIMD value is the
  // same class of operator error as a bad flag, so it gets the same typed
  // message and usage exit code (2) — before any kernel dispatch can
  // resolve (and hard-abort on) the bad override.
  {
    rotind::Status simd_env = rotind::simd::ValidateEnvOverride();
    if (!simd_env.ok()) {
      std::fprintf(stderr, "%s\n", simd_env.ToString().c_str());
      return 2;
    }
  }

  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();

  if (args.command == "version") {
    // The dispatched kernel tier is part of the build's identity: two runs
    // can only be compared apples-to-apples when both report the same tier.
    std::printf("rotind 1.0.0\nsimd: %s\n", rotind::simd::ActiveTierName());
    return 0;
  }
  if (args.command == "generate") return CmdGenerate(args);
  if (args.command == "serve") return CmdServe(args);
  if (args.command == "index") {
    if (args.subcommand == "build") return CmdIndexBuild(args);
    if (args.subcommand == "shard-build") return CmdIndexShardBuild(args);
    if (args.subcommand == "compact") return CmdIndexCompact(args);
    return CmdIndexSearch(args);
  }

  if (args.command != "info" && args.command != "search" &&
      args.command != "knn" && args.command != "classify" &&
      args.command != "motif" && args.command != "discord") {
    return Usage();
  }

  if (args.db_path.empty()) {
    std::fprintf(stderr, "--db is required for '%s'\n", args.command.c_str());
    return 2;
  }
  Dataset db;
  if (!LoadDb(args.db_path, &db)) return 2;
  if (!ValidateArgsAgainstDb(args, db)) return 2;

  if (args.command == "info") return CmdInfo(db);
  if (args.command == "search") return CmdSearch(args, db);
  if (args.command == "knn") return CmdKnn(args, db);
  if (args.command == "classify") return CmdClassify(args, db);
  if (args.command == "motif") return CmdMotif(args, db, /*discord=*/false);
  return CmdMotif(args, db, /*discord=*/true);
}
