// batch: QueryEngine::KnnSearchBatch (k = 4) over in-memory FlatDatasets,
// nproc threads per call. No storage and no serve layer: the time is
// search, envelope, distance and simd work. One round is two calls, one
// on each of two engines, each with a batch of 2 x nproc query shapes
// that are not in its database:
//
//  - dtw: the paper's headline path, the default wedge cascade under DTW
//    (band 5), m=1000 n=251.
//  - ed_vecsig: cascade vecsig,ea under ED at the engine's default
//    signature dims, m=500 n=251, the only filter stage in front of exact
//    refinement. n=251 is not a power of two, so every candidate
//    embedding goes through a Bluestein FFT.
//
// A read is one round; rounds run back to back. Set-up loads both
// databases from their binary dataset files, builds the FlatDatasets and
// constructs the engines.
//
// Determinism: before timing, one batch per engine runs twice with step
// and metric counters attached; every step and candidate-flow counter
// must be identical, or the run fails.

#include <cstdio>
#include <memory>
#include <string>

#include "rotbench/workloads.h"
#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/io/serialize.h"

namespace rotbench {
namespace {

using rotind::DistanceKind;
using rotind::EngineOptions;
using rotind::FlatDataset;
using rotind::Neighbor;
using rotind::QueryEngine;
using rotind::Rng;
using rotind::Series;
using rotind::StageKind;

constexpr int kK = 4;
/// Queries per KnnSearchBatch call, per thread. With two queries a thread
/// on average, a thread that is slow (a descheduled vCPU, a costly query)
/// hands its share to the others instead of holding up the call.
constexpr std::size_t kQueriesPerThread = 2;

struct Spec {
  const char* name;
  std::size_t m;
  std::size_t n;
  /// Distinct query shapes; calls cycle through reshuffles of them.
  std::size_t pool;
  EngineOptions options;        ///< The engine under test.
  /// An exact cascade sharing no stage with `options`.
  EngineOptions truth_options;
  std::uint64_t seed_salt;
};

/// One engine of the round: its database, queries, truth and, between
/// Setup and Teardown, the engine itself.
struct Part {
  Spec spec;
  std::vector<Series> db;
  std::string db_path;
  std::vector<Series> pool;
  std::vector<std::vector<Neighbor>> truth;
  std::vector<std::vector<std::size_t>> batches;
  std::unique_ptr<FlatDataset> flat;
  std::unique_ptr<QueryEngine> engine;
  std::vector<std::size_t> wrong;
};

struct PassStats {
  std::vector<double> round_ms;
  double wall_s = 0.0;
  double call_s = 0.0;
  std::uint64_t queries = 0;
  rotind::StepCounter steps;
  rotind::obs::QueryMetrics metrics;
};

class Batch : public Workload {
 public:
  Batch(const Args& args, std::vector<Spec> specs) : args_(args) {
    for (Spec& spec : specs) {
      parts_.push_back(Part{std::move(spec), {}, {}, {}, {}, {}, {}, {}, {}});
      Prepare(&parts_.back());
    }
  }

  /// Fails the run when two runs of one batch count different steps.
  void CheckDeterminism(Result* result) const {
    for (const Part& part : parts_) {
      const FlatDataset flat = FlatDataset::FromItems(part.db);
      const QueryEngine engine(flat, part.spec.options);
      const std::vector<std::size_t>& ids = part.batches.front();
      std::vector<Series> queries;
      for (const std::size_t id : ids) queries.push_back(part.pool[id]);
      std::vector<std::vector<std::uint64_t>> prints;
      for (int run = 0; run < 2; ++run) {
        rotind::StepCounter steps;
        rotind::obs::QueryMetrics metrics;
        const auto answers =
            engine.KnnSearchBatch(queries, kK, Nproc(), &steps, &metrics);
        for (std::size_t i = 0; i < ids.size(); ++i) {
          if (!SameNeighbors(answers[i], part.truth[ids[i]])) {
            result->Wrong(std::string(part.spec.name) +
                          " determinism batch answer " + std::to_string(i));
          }
        }
        prints.push_back(CounterFingerprint(steps, metrics));
      }
      if (prints[0] != prints[1]) {
        result->Wrong(std::string(part.spec.name) +
                      ": step / candidate-flow counters differ between two "
                      "runs of the same batch");
      }
    }
  }

  void Setup(int /*rep*/, Tracer* tracer) override {
    Tracer::Scope setup(tracer, "setup");
    for (Part& part : parts_) {
      rotind::StatusOr<rotind::Dataset> loaded = [&] {
        Tracer::Scope span(tracer, "setup.open", setup.id());
        return rotind::LoadDatasetBinaryStatus(part.db_path);
      }();
      if (!loaded.ok()) {
        Fatal("dataset load failed: " + loaded.status().ToString());
      }
      {
        Tracer::Scope span(tracer, "setup.build_index", setup.id());
        part.flat =
            std::make_unique<FlatDataset>(FlatDataset::FromDataset(*loaded));
      }
      part.engine = std::make_unique<QueryEngine>(*part.flat, part.spec.options);
    }
  }

  void WarmUp(Result* result) override {
    Round(0, nullptr, nullptr);
    Verify(result);
  }

  PassSummary Pass(double seconds, Tracer* tracer) override {
    last_ = PassStats();
    const Clock::time_point t0 = Clock::now();
    const Clock::time_point end =
        t0 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds));
    for (std::size_t r = 0; Clock::now() < end; ++r) {
      last_.round_ms.push_back(Round(r, tracer, &last_));
    }
    last_.wall_s = SecondsBetween(t0, Clock::now());
    for (const Part& part : parts_) {
      std::printf("# batch: %s m=%zu n=%zu\n", part.spec.name, part.spec.m,
                  part.spec.n);
    }
    std::printf("# batch: %llu queries in %zu rounds on %d threads\n",
                static_cast<unsigned long long>(last_.queries),
                last_.round_ms.size(), Nproc());
    PassSummary summary;
    summary.throughput_qps =
        static_cast<double>(last_.queries) / last_.wall_s;
    summary.read_p50_ms = Percentile(last_.round_ms, 50);
    summary.read_tail_ms = Percentile(last_.round_ms, 90);
    summary.read_p99_ms = Percentile(last_.round_ms, 99);
    summary.read_samples = last_.round_ms.size();
    summary.attempted = last_.queries;
    return summary;
  }

  void Verify(Result* result) override {
    for (Part& part : parts_) {
      for (const std::size_t id : part.wrong) {
        result->Wrong(std::string(part.spec.name) + " answer for pool query " +
                      std::to_string(id));
      }
      part.wrong.clear();
    }
  }

  void Teardown() override {
    for (Part& part : parts_) {
      part.engine.reset();
      part.flat.reset();
    }
  }

  void AddLayers(const Tracer& tracer, Result* result) override {
    const double queries = static_cast<double>(last_.queries);
    AddSearchMetrics(last_.metrics, queries, result);
    result->Add("search.exec_efficiency",
                static_cast<double>(last_.metrics.latency.total_nanos()) /
                    1e9 / (Nproc() * last_.call_s),
                "frac");
    result->Add("index.build_s",
                Median(tracer.DurationsMs("setup.build_index")) / 1e3, "s");
    result->Add("index.open_s",
                Median(tracer.DurationsMs("setup.open")) / 1e3, "s");
    result->Add("index.steps_per_read",
                static_cast<double>(last_.steps.total_steps()) / queries,
                "count");
  }

 private:
  void Prepare(Part* part) {
    const Spec& spec = part->spec;
    const std::vector<Series> all = rotind::MakeProjectilePointsDatabase(
        spec.m + spec.pool, spec.n, args_.seed ^ spec.seed_salt);
    part->db.assign(all.begin(),
                    all.begin() + static_cast<std::ptrdiff_t>(spec.m));
    part->pool.assign(all.begin() + static_cast<std::ptrdiff_t>(spec.m),
                      all.end());
    rotind::Dataset dataset;
    dataset.items = part->db;
    part->db_path = args_.workdir + "/" + spec.name + ".bin";
    const rotind::Status saved =
        rotind::SaveDatasetBinaryStatus(dataset, part->db_path);
    if (!saved.ok()) Fatal("dataset save failed: " + saved.ToString());

    // Ground truth: a clean engine whose cascade shares no stage with the
    // engine under test, one query at a time.
    const FlatDataset flat = FlatDataset::FromItems(part->db);
    const QueryEngine clean(flat, spec.truth_options);
    part->truth.resize(spec.pool);
    rotind::ParallelFor(spec.pool, Nproc(), [&](std::size_t q) {
      part->truth[q] = clean.Knn(part->pool[q], kK);
    });

    // Calls draw kQueriesPerThread x nproc queries each; the pool is
    // reshuffled every round so calls do not repeat the same groups.
    Rng rng(args_.seed ^ spec.seed_salt ^ 0xba7c4ULL);
    const std::size_t per_call = std::min(
        spec.pool, kQueriesPerThread * static_cast<std::size_t>(Nproc()));
    std::vector<std::size_t> order(spec.pool);
    for (std::size_t i = 0; i < spec.pool; ++i) order[i] = i;
    for (int round = 0; round < 64; ++round) {
      for (std::size_t i = spec.pool - 1; i > 0; --i) {
        std::swap(order[i], order[rng.NextBounded(i + 1)]);
      }
      for (std::size_t b = 0; b + per_call <= spec.pool; b += per_call) {
        part->batches.emplace_back(
            order.begin() + static_cast<std::ptrdiff_t>(b),
            order.begin() + static_cast<std::ptrdiff_t>(b + per_call));
      }
    }
  }

  /// Round r: one KnnSearchBatch call per engine, each on its r-th batch
  /// of pool queries; a wrong answer is noted for Verify. Counters go to
  /// `stats` on the traced pass. Returns the round's wall time in ms.
  double Round(std::size_t r, Tracer* tracer, PassStats* stats) {
    double round_ms = 0.0;
    for (Part& part : parts_) {
      const std::vector<std::size_t>& ids =
          part.batches[r % part.batches.size()];
      std::vector<Series> queries;
      queries.reserve(ids.size());
      for (const std::size_t id : ids) queries.push_back(part.pool[id]);
      const bool counted = tracer != nullptr && stats != nullptr;
      std::vector<std::vector<Neighbor>> answers;
      const Clock::time_point a = Clock::now();
      {
        Tracer::Scope span(tracer, "batch.knn");
        answers = part.engine->KnnSearchBatch(
            queries, kK, Nproc(), counted ? &stats->steps : nullptr,
            counted ? &stats->metrics : nullptr);
      }
      const double ms = MsBetween(a, Clock::now());
      round_ms += ms;
      if (stats != nullptr) {
        stats->call_s += ms / 1e3;
        stats->queries += ids.size();
      }
      for (std::size_t i = 0; i < ids.size(); ++i) {
        if (!SameNeighbors(answers[i], part.truth[ids[i]])) {
          part.wrong.push_back(ids[i]);
        }
      }
    }
    return round_ms;
  }

  const Args& args_;
  std::vector<Part> parts_;
  PassStats last_;
};

}  // namespace

Result RunBatch(const Args& args) {
  // The DTW ground truth is the costly part of a run (0.3 to 0.7 s a
  // query on one core of a 4-vCPU VM), so its pool is smaller.
  Spec dtw{"dtw", 1000, 251, 64, {}, {}, 0};
  dtw.options.kind = DistanceKind::kDtw;
  dtw.options.band = 5;
  dtw.truth_options = dtw.options;
  dtw.truth_options.cascade.stages = {StageKind::kLbImproved,
                                      StageKind::kExactScan};
  Spec ed{"ed_vecsig", 500, 251, 128, {}, {}, 0x7ec5ULL};
  ed.options.cascade.stages = {StageKind::kVecSignature,
                               StageKind::kExactScan};
  ed.truth_options.cascade.stages = {StageKind::kFullScan};

  Batch batch(args, {dtw, ed});
  Result determinism;
  batch.CheckDeterminism(&determinism);
  Result result = RunSchedule(args, &batch);
  result.correct = result.correct && determinism.correct;
  return result;
}

}  // namespace rotbench
