// sharded_rw: ShardedIndex over four RIDX shard files, searched in
// parallel, with one closed-loop client mixing reads and writes: 80%
// 1-NN / k-NN reads, 15% Insert, 5% Remove, and a synchronous Compact()
// after every 100 writes. Each shard's BufferPool holds the whole shard,
// so storage stays out of the way and the sharded search itself (one
// ParallelFor per read, SharedBound pruning, the shard count growing by
// one per compaction) is what is timed.
//
// Every read is checked after the timed phase against the benchmark's own
// model of the live rows at the moment of the read, with global ids as the
// index defines them: shard rows 0..T-1 in manifest order, then delta row
// d at T + d; compaction appends the live delta rows as a new shard. The
// distances come from a clean in-memory full-scan engine.

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>

#include "rotbench/workloads.h"
#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/index/index_io.h"
#include "src/index/sharded_index.h"
#include "src/storage/manifest.h"

namespace rotbench {
namespace {

using rotind::Dataset;
using rotind::FlatDataset;
using rotind::Neighbor;
using rotind::QueryEngine;
using rotind::Rng;
using rotind::Series;
using rotind::ShardedIndex;
using rotind::Status;

constexpr std::size_t kM = 2000;
constexpr std::size_t kN = 128;
constexpr std::size_t kShards = 4;
/// 500 rows of 1 KiB per shard fit in 125 pages of 4 KiB.
constexpr std::size_t kPoolPages = 160;
constexpr std::size_t kQueries = 64;
/// Rows available to Insert; a run that exhausts them reads instead.
constexpr std::size_t kInsertPool = 4000;
constexpr int kMaxK = 8;
/// Extra ground-truth depth that lists rows tied at the k-th distance.
constexpr int kTieDepth = 4;
constexpr std::uint64_t kCompactEvery = 100;

/// One write that succeeded, as the model replays it.
struct WriteOp {
  enum class Kind { kInsert, kRemove, kCompact };
  Kind kind = Kind::kInsert;
  std::uint64_t value = 0;  ///< Row key (insert) or global id (remove).
};

struct Model {
  std::vector<std::uint32_t> shard_key;  ///< Index: global id.
  std::vector<char> shard_alive;
  std::vector<std::uint32_t> delta_key;  ///< Index: delta ordinal.
  std::vector<char> delta_alive;
  std::size_t live = 0;

  Model() {
    for (std::uint32_t g = 0; g < kM; ++g) {
      shard_key.push_back(g);
      shard_alive.push_back(1);
    }
    live = kM;
  }

  std::uint64_t total() const { return shard_key.size(); }
  /// Calls fn(global id, row key) for every live row in live-ordinal
  /// order, which is the order the index scans them.
  template <typename Fn>
  void ForEachLive(Fn fn) const {
    for (std::size_t g = 0; g < shard_key.size(); ++g) {
      if (shard_alive[g]) fn(g, shard_key[g]);
    }
    for (std::size_t d = 0; d < delta_key.size(); ++d) {
      if (delta_alive[d]) fn(total() + d, delta_key[d]);
    }
  }
  bool Alive(std::uint64_t gid) const {
    return gid < total() ? shard_alive[gid] != 0
                         : delta_alive[gid - total()] != 0;
  }
  std::size_t DeltaLive() const {
    std::size_t n = 0;
    for (const char alive : delta_alive) n += alive ? 1 : 0;
    return n;
  }
  void Apply(const WriteOp& op) {
    switch (op.kind) {
      case WriteOp::Kind::kInsert:
        delta_key.push_back(static_cast<std::uint32_t>(op.value));
        delta_alive.push_back(1);
        ++live;
        return;
      case WriteOp::Kind::kRemove:
        if (op.value < total()) {
          shard_alive[op.value] = 0;
        } else {
          delta_alive[op.value - total()] = 0;
        }
        --live;
        return;
      case WriteOp::Kind::kCompact:
        for (std::size_t d = 0; d < delta_key.size(); ++d) {
          if (!delta_alive[d]) continue;
          shard_key.push_back(delta_key[d]);
          shard_alive.push_back(1);
        }
        delta_key.clear();
        delta_alive.clear();
        return;
    }
  }
};

struct ReadOp {
  std::uint32_t query = 0;
  int k = 1;  ///< 1: ShardedIndex::Search; otherwise Knn.
  /// Writes that had succeeded before the read: a prefix of the log.
  std::uint32_t writes = 0;
  std::vector<Neighbor> answer;
};

struct PassStats {
  std::vector<ReadOp> reads;
  std::vector<WriteOp> log;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  std::vector<double> compact_ms;
  std::vector<double> compact_rows;
  std::vector<double> compact_bytes;
  double wall_s = 0.0;
  double read_wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t steps = 0;
  std::size_t shards_end = 0;
  std::size_t tombstones_end = 0;
  std::size_t live_end = 0;
  std::size_t index_live_end = 0;
  double disk_bytes_per_byte = 0.0;
  rotind::obs::QueryMetrics metrics;
};

class ShardedRw : public Workload {
 public:
  explicit ShardedRw(const Args& args) : args_(args) {
    rows_ = rotind::MakeProjectilePointsDatabase(kM + kQueries + kInsertPool,
                                                 kN, args_.seed);
    queries_.assign(rows_.begin() + kM, rows_.begin() + kM + kQueries);
    // Row keys: 0..kM-1 are the initial rows; kM + kQueries + j is
    // insert-pool row j. Queries are never in the index.
    build_.page_size_bytes = 4096;
  }

  void Setup(int rep, Tracer* tracer) override {
    Tracer::Scope setup(tracer, "setup");
    dir_ = args_.workdir + "/shard-" + std::to_string(rep);
    std::filesystem::create_directories(dir_);
    rotind::storage::Manifest manifest;
    manifest.generation = 1;
    {
      Tracer::Scope span(tracer, "setup.build_index", setup.id());
      for (std::size_t s = 0; s < kShards; ++s) {
        const std::size_t begin = kM * s / kShards;
        const std::size_t end = kM * (s + 1) / kShards;
        Dataset part;
        part.items.assign(rows_.begin() + static_cast<std::ptrdiff_t>(begin),
                          rows_.begin() + static_cast<std::ptrdiff_t>(end));
        const std::string file = "s" + std::to_string(s) + ".ridx";
        const Status built =
            rotind::BuildIndexFile(part, build_, dir_ + "/" + file);
        if (!built.ok()) Fatal("shard build failed: " + built.ToString());
        manifest.shards.push_back({file, end - begin, kN});
      }
    }
    const std::string manifest_path = dir_ + "/index.rman";
    {
      Tracer::Scope span(tracer, "setup.write_manifest", setup.id());
      const Status wrote =
          rotind::storage::WriteManifest(manifest, manifest_path);
      if (!wrote.ok()) Fatal("manifest write failed: " + wrote.ToString());
    }
    {
      Tracer::Scope span(tracer, "setup.open", setup.id());
      rotind::ShardedOptions options;
      options.pool_pages = kPoolPages;
      options.num_threads = Nproc();
      options.parallel_search = true;
      auto opened = ShardedIndex::Open(manifest_path, options);
      if (!opened.ok()) Fatal("open failed: " + opened.status().ToString());
      index_ = *std::move(opened);
    }
  }

  void WarmUp(Result* result) override {
    last_ = PassStats();
    for (int i = 0; i < 2 * Nproc(); ++i) {
      ReadOp op;
      op.query = static_cast<std::uint32_t>(i);
      op.k = 1 + i % kMaxK;
      if (!Read(&op, nullptr, &last_)) Fatal("warm-up read failed");
      last_.reads.push_back(std::move(op));
    }
    Verify(result);
  }

  PassSummary Pass(double seconds, Tracer* tracer) override {
    last_ = PassStats();
    PassStats& out = last_;
    Model model;
    std::size_t next_insert = 0;
    std::uint64_t writes = 0;
    Rng rng(args_.seed * 0x9e3779b97f4a7c15ULL + 11);

    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    while (Clock::now() < end) {
      const double mix = rng.NextDouble();
      const bool can_insert = next_insert < kInsertPool;
      ++out.attempted;
      if (mix < 0.80 || (mix < 0.95 && !can_insert)) {
        ReadOp op;
        op.query = static_cast<std::uint32_t>(rng.NextBounded(kQueries));
        op.k = rng.NextDouble() < 0.5
                   ? 1
                   : 2 + static_cast<int>(rng.NextBounded(kMaxK - 1));
        op.writes = static_cast<std::uint32_t>(out.log.size());
        const Clock::time_point a = Clock::now();
        const bool ok = Read(&op, tracer, &out);
        const Clock::time_point b = Clock::now();
        if (!ok) {
          ++out.failed;
          continue;
        }
        out.read_ms.push_back(MsBetween(a, b));
        out.read_wall_s += SecondsBetween(a, b);
        out.reads.push_back(std::move(op));
        continue;
      }
      WriteOp write;
      if (mix < 0.95) {
        write.kind = WriteOp::Kind::kInsert;
        write.value = kM + kQueries + next_insert++;
        const Clock::time_point a = Clock::now();
        rotind::StatusOr<std::uint64_t> id = [&] {
          Tracer::Scope span(tracer, "shard.insert");
          return index_->Insert(Row(write.value));
        }();
        out.write_ms.push_back(MsBetween(a, Clock::now()));
        if (!id.ok()) {
          ++out.failed;
          continue;
        }
        if (*id != model.total() + model.delta_key.size()) {
          insert_id_errors_.push_back(*id);
        }
      } else {
        if (model.live == 0) continue;
        write.kind = WriteOp::Kind::kRemove;
        const std::uint64_t span = model.total() + model.delta_key.size();
        do {
          write.value = rng.NextBounded(span);
        } while (!model.Alive(write.value));
        const Clock::time_point a = Clock::now();
        Status removed;
        {
          Tracer::Scope span_scope(tracer, "shard.remove");
          removed = index_->Remove(write.value);
        }
        out.write_ms.push_back(MsBetween(a, Clock::now()));
        if (!removed.ok()) {
          ++out.failed;
          continue;
        }
      }
      model.Apply(write);
      out.log.push_back(write);
      if (++writes % kCompactEvery != 0) continue;
      const std::size_t delta_live = model.DeltaLive();
      ++out.attempted;
      const Clock::time_point a = Clock::now();
      rotind::StatusOr<std::uint64_t> generation = [&] {
        Tracer::Scope span(tracer, "shard.compact");
        return index_->Compact(build_);
      }();
      out.compact_ms.push_back(MsBetween(a, Clock::now()));
      if (!generation.ok()) {
        // The previous generation stays live, delta included.
        ++out.failed;
        continue;
      }
      const WriteOp compact{WriteOp::Kind::kCompact, 0};
      model.Apply(compact);
      out.log.push_back(compact);
      out.compact_rows.push_back(static_cast<double>(delta_live));
      const std::string shard =
          dir_ + "/shard-g" + std::to_string(*generation) + ".ridx";
      std::error_code ec;
      const auto shard_bytes = std::filesystem::file_size(shard, ec);
      const auto manifest_bytes =
          std::filesystem::file_size(dir_ + "/index.rman");
      out.compact_bytes.push_back(
          static_cast<double>((ec ? 0 : shard_bytes) + manifest_bytes));
    }
    out.wall_s = SecondsBetween(t0, Clock::now());
    out.shards_end = index_->shard_count();
    out.live_end = model.live;
    out.index_live_end = index_->live_size();
    out.tombstones_end =
        model.shard_key.size() + model.delta_key.size() - model.live;
    out.disk_bytes_per_byte =
        static_cast<double>(DirectoryBytes(dir_)) /
        static_cast<double>(model.live * kN * sizeof(double));
    std::printf("# sharded_rw: %zu writes p50 %.4f ms p99 %.4f ms (n=%zu), "
                "%zu compactions median %.2f ms, %zu shards at end\n",
                out.write_ms.size(), Percentile(out.write_ms, 50),
                Percentile(out.write_ms, 99), out.write_ms.size(),
                out.compact_ms.size(), Median(out.compact_ms),
                out.shards_end);

    PassSummary summary;
    summary.throughput_qps =
        static_cast<double>(out.read_ms.size()) / out.wall_s;
    summary.read_p50_ms = Percentile(out.read_ms, 50);
    summary.read_tail_ms = Percentile(out.read_ms, 90);
    summary.read_p99_ms = Percentile(out.read_ms, 99);
    summary.read_samples = out.read_ms.size();
    summary.attempted = out.attempted;
    summary.failed = out.failed;
    return summary;
  }

  /// Checks every read of the last pass against the live rows the model
  /// held when the read ran. The model replays the write log; a read's
  /// truth is the k nearest of those rows by their distance to the query,
  /// taken from a table a clean full-scan engine computes for every row
  /// the pass used. Ties go to the earlier row in scan order.
  void Verify(Result* result) override {
    for (const std::uint64_t id : insert_id_errors_) {
      result->Wrong("Insert returned global id " + std::to_string(id));
    }
    insert_id_errors_.clear();
    if (last_.index_live_end != last_.live_end) {
      result->Wrong("live_size " + std::to_string(last_.index_live_end) +
                    " != model " + std::to_string(last_.live_end));
    }
    const std::vector<std::vector<double>> dist = DistanceTable();
    const std::vector<ReadOp>& reads = last_.reads;
    Model model;
    std::size_t applied = 0;
    struct Live {
      double distance;
      std::uint64_t gid;
    };
    std::vector<Live> live;
    for (std::size_t i = 0; i < reads.size(); ++i) {
      const ReadOp& op = reads[i];
      while (applied < op.writes) model.Apply(last_.log[applied++]);
      live.clear();
      model.ForEachLive([&](std::uint64_t gid, std::uint32_t key) {
        live.push_back({dist[op.query][key], gid});
      });
      // Ties go to the lower global id, which is the earlier in scan order.
      const std::size_t depth =
          std::min(live.size(), static_cast<std::size_t>(op.k + kTieDepth));
      std::partial_sort(live.begin(), live.begin() + depth, live.end(),
                        [](const Live& a, const Live& b) {
                          return a.distance < b.distance ||
                                 (a.distance == b.distance && a.gid < b.gid);
                        });
      std::vector<Neighbor> truth;
      for (std::size_t j = 0; j < depth; ++j) {
        truth.push_back(Neighbor{static_cast<int>(live[j].gid),
                                 live[j].distance, 0, false});
      }
      const bool ok =
          op.k == 1 ? op.answer.size() == 1 && !truth.empty() &&
                          op.answer[0].index == truth[0].index &&
                          op.answer[0].distance == truth[0].distance
                    : KnnMatches(op.answer, truth,
                                 static_cast<std::size_t>(op.k));
      if (!ok) {
        result->Wrong("sharded_rw read " + std::to_string(i) + " (query " +
                      std::to_string(op.query) + ", k=" +
                      std::to_string(op.k) + ")");
      }
    }
  }

  void Teardown() override {
    index_.reset();
    std::filesystem::remove_all(dir_);
  }

  void AddLayers(const Tracer& tracer, Result* result) override {
    const PassStats& main = last_;
    const double reads = static_cast<double>(main.read_ms.size());
    AddSearchMetrics(main.metrics, reads, result);
    result->Add("search.exec_efficiency",
                static_cast<double>(main.metrics.latency.total_nanos()) / 1e9 /
                    (Nproc() * main.read_wall_s),
                "frac");
    result->Add("index.build_s",
                Median(tracer.DurationsMs("setup.build_index")) / 1e3, "s");
    result->Add("index.open_s",
                Median(tracer.DurationsMs("setup.open")) / 1e3, "s");
    result->Add("index.steps_per_read",
                reads > 0 ? static_cast<double>(main.steps) / reads : 0.0,
                "count");
    result->Add("index.shard_count_end", static_cast<double>(main.shards_end),
                "count");
    result->Add("index.delta_rows_per_compact", Mean(main.compact_rows),
                "count");
    result->Add("index.compact_bytes_written", Mean(main.compact_bytes),
                "bytes");
    result->Add("index.tombstones_end",
                static_cast<double>(main.tombstones_end), "count");
    result->Add("index.write_p50_ms", Percentile(main.write_ms, 50), "ms");
    result->Add("index.write_p99_ms", Percentile(main.write_ms, 99), "ms");
    result->Add("index.compact_ms", Median(main.compact_ms), "ms");
    result->Add("index.disk_bytes_per_byte", main.disk_bytes_per_byte,
                "ratio");
  }

 private:
  const Series& Row(std::uint64_t key) const { return rows_[key]; }

  /// Runs one read; returns false on a non-OK status.
  bool Read(ReadOp* op, Tracer* tracer, PassStats* stats) {
    const Series& query = queries_[op->query];
    rotind::obs::QueryMetrics* metrics = tracer ? &stats->metrics : nullptr;
    if (op->k == 1) {
      Tracer::Scope span(tracer, "shard.search");
      auto r = index_->Search(query, metrics);
      if (!r.ok()) return false;
      stats->steps += r->counter.total_steps();
      if (r->best_index >= 0) {
        op->answer.push_back(Neighbor{r->best_index, r->best_distance,
                                      r->best_shift, r->best_mirrored});
      }
      return true;
    }
    Tracer::Scope span(tracer, "shard.knn");
    rotind::StepCounter counter;
    auto r = index_->Knn(query, op->k, tracer ? &counter : nullptr, metrics);
    if (!r.ok()) return false;
    stats->steps += counter.total_steps();
    op->answer = *std::move(r);
    return true;
  }

  /// dist[q][key]: distance of query q to row `key`, for every initial
  /// row and every row the last pass inserted, from a clean in-memory
  /// full-scan engine (no search code shared with the index's wedges).
  std::vector<std::vector<double>> DistanceTable() const {
    std::vector<std::uint32_t> keys;
    for (std::uint32_t key = 0; key < kM; ++key) keys.push_back(key);
    for (const WriteOp& op : last_.log) {
      if (op.kind == WriteOp::Kind::kInsert) {
        keys.push_back(static_cast<std::uint32_t>(op.value));
      }
    }
    FlatDataset flat;
    for (const std::uint32_t key : keys) flat.Add(Row(key));
    rotind::EngineOptions options;
    options.cascade.stages = {rotind::StageKind::kFullScan};
    const QueryEngine clean(flat, options);
    std::vector<std::vector<double>> dist(
        kQueries, std::vector<double>(rows_.size(), 0.0));
    rotind::ParallelFor(kQueries, Nproc(), [&](std::size_t q) {
      const int all = static_cast<int>(keys.size());
      for (const Neighbor& n : clean.Knn(queries_[q], all)) {
        dist[q][keys[static_cast<std::size_t>(n.index)]] = n.distance;
      }
    });
    return dist;
  }

  const Args& args_;
  std::vector<Series> rows_;
  std::vector<Series> queries_;
  rotind::IndexBuildOptions build_;
  std::string dir_;
  std::unique_ptr<ShardedIndex> index_;
  PassStats last_;
  std::vector<std::uint64_t> insert_id_errors_;
};

}  // namespace

Result RunShardedRw(const Args& args) {
  ShardedRw workload(args);
  return RunSchedule(args, &workload);
}

}  // namespace rotbench
