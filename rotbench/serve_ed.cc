// serve_ed: the `rotind serve` request path end to end. A request line is
// parsed (serve::ParseRequest), submitted (QueryServer::Submit), answered
// on a worker by a file-backed wedge/ED engine behind a BufferPool a
// quarter the size of the data, and rendered (serve::FormatResponse) in
// the completion callback.
//
// Phase 1 is an open loop: Poisson arrivals at a fixed rate, each request
// timed from when it was due, so a stall also charges the requests queued
// behind it. read_p50_ms and read_tail_ms (p90) come from this phase; its
// p99 is printed with its sample count and reported per layer, since the
// ten requests beyond it are mostly those a host stall happened to hit.
// Phase 2 is a closed loop with one request outstanding per worker; its
// completion rate is throughput_qps. Both phases run with IdleSpinners.

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "rotbench/workloads.h"
#include "src/core/random.h"
#include "src/datasets/synthetic.h"
#include "src/index/index_io.h"
#include "src/serve/protocol.h"
#include "src/serve/server.h"

namespace rotbench {
namespace {

using rotind::Dataset;
using rotind::EngineOptions;
using rotind::FlatDataset;
using rotind::Neighbor;
using rotind::QueryEngine;
using rotind::Rng;
using rotind::Series;
using rotind::Status;
namespace serve = rotind::serve;

constexpr std::size_t kM = 1000;
constexpr std::size_t kN = 128;
/// 16 pages of 16 KiB against about 64 data pages: the data is 4x the
/// cache. With 4 KiB pages a query made about 235 pread calls, and their
/// cost on a shared VM moved the open-loop latency by up to 40% between
/// runs of the same seed.
constexpr std::size_t kPoolPages = 16;
constexpr std::size_t kPageBytes = 16384;
/// Zipf ranks map onto this many distinct ids (ground truth is per id).
constexpr std::size_t kUniverse = kM;
/// Zipf exponent of the id ranks. At 1.0 the hottest id drew 13% of the
/// requests, so the cost of a few seed-chosen shapes set the latency; at
/// 0.5 it draws 1.6%.
constexpr double kZipfExponent = 0.5;
constexpr int kMaxK = 8;
constexpr double kRadius = 2.5;
/// Open-loop arrival rate: about 12% of the closed-loop capacity measured
/// on a 4-vCPU x86-64 VM with 3 workers (about 330 qps). At 40% the
/// requests overlap often enough on the shared pool that the open-loop
/// latency amplified host CPU steal past the benchmark's bounds.
constexpr double kRateQps = 40.0;
/// Share of the run spent in the open-loop phase; the phase sends
/// rate x share x seconds requests (1020 in a 30-second run, enough for
/// a p99 with ten samples beyond it).
constexpr double kOpenLoopShare = 0.85;

struct Zipf {
  std::vector<double> cdf;
  explicit Zipf(std::size_t universe) {
    double total = 0.0;
    for (std::size_t r = 0; r < universe; ++r) {
      total += std::pow(static_cast<double>(r + 1), -kZipfExponent);
      cdf.push_back(total);
    }
    for (double& c : cdf) c /= total;
  }
  std::size_t Sample(Rng* rng) const {
    const double u = rng->NextDouble();
    const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf.begin()),
                                 cdf.size() - 1);
  }
};

struct Line {
  std::string text;
  std::size_t slot = 0;  ///< Universe slot of the query id.
};

/// One request's record; written by the generator, then by exactly one
/// worker callback, and read after the phase has drained.
struct Record {
  const Line* line = nullptr;
  serve::Request request;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  bool admitted = false;
  Status status;
  bool degraded = false;
  int effective_k = 0;
  std::chrono::nanoseconds server_latency{0};
  std::vector<Neighbor> neighbors;
  std::uint64_t span = 0;  ///< serve.request span id (traced pass).
};

struct Truth {
  std::vector<std::size_t> ids;                 ///< Universe slot -> id.
  std::vector<std::vector<Neighbor>> knn;       ///< kMaxK deep.
  std::vector<std::vector<Neighbor>> range;
};

/// Completed requests, counted by the worker callbacks. The generator
/// spin-waits on the count and on due times instead of sleeping: it owns
/// the core left free for it, and a sleeping generator wakes late (on a
/// 4-vCPU VM, 4 to 5 ms at p99), which would add to the latency of the
/// requests it sends.
class Completions {
 public:
  void Add() { count_.fetch_add(1, std::memory_order_release); }
  /// Waits until `target` requests have completed; their records are
  /// then visible to the caller.
  void WaitFor(std::size_t target) const {
    const Clock::time_point limit = Clock::now() + std::chrono::seconds(60);
    while (count_.load(std::memory_order_acquire) < target) {
      if (Clock::now() > limit) {
        Fatal("serve_ed: requests did not complete within 60 s");
      }
      std::this_thread::yield();
    }
  }

 private:
  std::atomic<std::size_t> count_{0};
};

/// Keeps every vCPU out of its idle halt while alive: one SCHED_IDLE
/// thread per CPU spins and gives way at once to any other runnable
/// thread. Between open-loop requests the workers sleep, and waking a
/// halted vCPU waits for the hypervisor to schedule it; on a shared
/// 4-vCPU VM that wait set the open-loop p90 more than the server did
/// (13.5 to 15.5 ms without spinners against 9 to 10 ms with them, in
/// interleaved runs). The other workloads keep their vCPUs busy, and
/// spinners slowed sharded_rw's reads by 60%, so only serve_ed uses them.
class IdleSpinners {
 public:
  IdleSpinners() {
    for (int i = 0; i < Nproc(); ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
          __builtin_ia32_pause();
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_.store(true, std::memory_order_relaxed);
    for (std::thread& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

struct PassStats {
  std::deque<Record> records;
  std::size_t open_count = 0;
  std::vector<double> open_latency_ms;   ///< Phase 1, from due time.
  std::vector<double> gen_lag_ms;        ///< Phase 1 send - due.
  double wall_s = 0.0;
  serve::ServerStats stats;
};

class ServeEd : public Workload {
 public:
  explicit ServeEd(const Args& args) : args_(args) { Prepare(); }

  void Setup(int rep, Tracer* tracer) override {
    Tracer::Scope setup(tracer, "setup");
    dir_ = args_.workdir + "/serve-" + std::to_string(rep);
    std::filesystem::create_directories(dir_);
    const std::string path = dir_ + "/db.ridx";
    {
      Tracer::Scope span(tracer, "setup.build_index", setup.id());
      const Status built =
          rotind::BuildIndexFile(dataset_, BuildOptions(), path);
      if (!built.ok()) Fatal("index build failed: " + built.ToString());
    }
    EngineOptions options;
    options.storage.backend = rotind::storage::BackendKind::kFile;
    options.storage.index_path = path;
    options.storage.pool_pages = kPoolPages;
    {
      Tracer::Scope span(tracer, "setup.open", setup.id());
      auto opened = QueryEngine::Open(options);
      if (!opened.ok()) Fatal("open failed: " + opened.status().ToString());
      engine_ = *std::move(opened);
      serve::ServerOptions server_options;
      server_options.num_workers = Workers();
      server_ = std::make_unique<serve::QueryServer>(*engine_, server_options);
      server_->Start();
    }
    disk_bytes_ = static_cast<double>(std::filesystem::file_size(path));
  }

  void WarmUp(Result* result) override {
    last_ = PassStats();
    Completions done;
    std::size_t admitted = 0;
    for (int i = 0; i < 2 * Workers(); ++i) {
      last_.records.push_back(Record{});
      Record& rec = last_.records.back();
      rec.line = &lines_[static_cast<std::size_t>(i)];
      rec.due = Clock::now();
      admitted += Send(&rec, &done, nullptr) ? 1 : 0;
    }
    done.WaitFor(admitted);
    Verify(result);
  }

  PassSummary Pass(double seconds, Tracer* tracer) override {
    last_ = PassStats();
    PassStats& out = last_;
    const IdleSpinners spinners;
    std::deque<Record>& records = out.records;
    Completions done;
    std::size_t next_line = 0;
    std::size_t admitted = 0;
    const auto next = [&]() -> Record* {
      records.push_back(Record{});
      records.back().line = &lines_[next_line++ % lines_.size()];
      return &records.back();
    };

    // Phase 1: open loop, a fixed number of Poisson arrivals at kRateQps.
    Rng gaps(gaps_rng_seed_);
    const Clock::time_point t0 = Clock::now();
    const double open_seconds = seconds * kOpenLoopShare;
    const std::size_t arrivals =
        static_cast<std::size_t>(std::lround(open_seconds * kRateQps));
    double offset = 0.0;
    for (std::size_t i = 0; i < arrivals; ++i) {
      offset += -std::log(1.0 - gaps.NextDouble()) / kRateQps;
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(offset));
      while (Clock::now() < due) std::this_thread::yield();
      Record* rec = next();
      rec->due = due;
      admitted += Send(rec, &done, tracer) ? 1 : 0;
    }
    out.open_count = records.size();
    done.WaitFor(admitted);
    for (std::size_t i = 0; i < out.open_count; ++i) {
      const Record& rec = records[i];
      out.gen_lag_ms.push_back(MsBetween(rec.due, rec.sent));
      if (rec.admitted && rec.status.ok()) {
        out.open_latency_ms.push_back(MsBetween(rec.due, rec.done));
      }
    }

    // Phase 2: closed loop, one request outstanding per worker.
    const std::size_t outstanding = static_cast<std::size_t>(Workers());
    const Clock::time_point t1 = Clock::now();
    const Clock::time_point end =
        t1 + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(seconds - open_seconds));
    const std::size_t closed_base = admitted;
    while (Clock::now() < end) {
      // At most `outstanding` admitted requests may be in flight.
      if (admitted >= outstanding) done.WaitFor(admitted + 1 - outstanding);
      Record* rec = next();
      rec->due = Clock::now();
      admitted += Send(rec, &done, tracer) ? 1 : 0;
    }
    done.WaitFor(admitted);
    Clock::time_point last = t1;
    for (std::size_t i = out.open_count; i < records.size(); ++i) {
      if (records[i].admitted) last = std::max(last, records[i].done);
    }
    out.wall_s = SecondsBetween(t0, last);
    out.stats = server_->stats();
    std::printf("# serve_ed: open loop %zu requests at %.0f qps, "
                "generator lag p99 %.3f ms (n=%zu); closed loop %zu "
                "requests\n",
                out.open_count, kRateQps, Percentile(out.gen_lag_ms, 99),
                out.gen_lag_ms.size(), records.size() - out.open_count);

    PassSummary summary;
    summary.throughput_qps = static_cast<double>(admitted - closed_base) /
                             SecondsBetween(t1, last);
    summary.read_p50_ms = Percentile(out.open_latency_ms, 50);
    summary.read_tail_ms = Percentile(out.open_latency_ms, 90);
    summary.read_p99_ms = Percentile(out.open_latency_ms, 99);
    summary.read_samples = out.open_latency_ms.size();
    summary.attempted = records.size();
    for (const Record& rec : records) {
      summary.failed += rec.admitted && rec.status.ok() ? 0 : 1;
    }
    return summary;
  }

  void Verify(Result* result) override {
    for (const Record& rec : last_.records) {
      if (rec.admitted && rec.status.ok()) Check(rec, result);
    }
  }

  void Teardown() override {
    server_->Shutdown();
    server_.reset();
    engine_.reset();
    std::filesystem::remove_all(dir_);
  }

  void AddLayers(const Tracer& tracer, Result* out) override {
    const PassStats& traced = last_;
    const serve::ServerStats& s = traced.stats;
    const auto& engine_latency = s.engine_metrics.latency;
    const double service_ms =
        engine_latency.count() == 0
            ? 0.0
            : static_cast<double>(engine_latency.total_nanos()) / 1e6 /
                  static_cast<double>(engine_latency.count());
    std::vector<double> server_latency_ms;
    for (const Record& rec : traced.records) {
      if (!rec.admitted || !rec.status.ok()) continue;
      server_latency_ms.push_back(
          std::chrono::duration<double, std::milli>(rec.server_latency)
              .count());
    }
    out->Add("serve.queue_wait_ms_mean",
             Mean(server_latency_ms) - service_ms, "ms");
    out->Add("serve.service_ms_mean", service_ms, "ms");
    std::vector<double> submit_us = tracer.DurationsMs("serve.submit");
    for (double& v : submit_us) v *= 1e3;
    out->Add("serve.submit_us_p50", Percentile(submit_us, 50), "us");
    out->Add("serve.parse_us_mean",
             Mean(tracer.DurationsMs("serve.parse")) * 1e3, "us");
    out->Add("serve.format_us_mean",
             Mean(tracer.DurationsMs("serve.format")) * 1e3, "us");
    out->Add("serve.shed", static_cast<double>(s.shed), "count");
    out->Add("serve.degraded", static_cast<double>(s.degraded), "count");
    out->Add("serve.gen_lag_ms_p99", Percentile(traced.gen_lag_ms, 99), "ms");
    AddSearchMetrics(s.engine_metrics, static_cast<double>(s.completed_ok),
                     out);
    out->Add("search.exec_efficiency",
             static_cast<double>(engine_latency.total_nanos()) / 1e9 /
                 (Workers() * traced.wall_s),
             "frac");
    out->Add("index.build_s",
             Median(tracer.DurationsMs("setup.build_index")) / 1e3, "s");
    out->Add("index.open_s", Median(tracer.DurationsMs("setup.open")) / 1e3,
             "s");
    out->Add("index.disk_bytes_per_byte",
             disk_bytes_ / static_cast<double>(kM * kN * sizeof(double)),
             "ratio");
  }

 private:
  void Prepare() {
    const std::vector<Series> db =
        rotind::MakeProjectilePointsDatabase(kM, kN, args_.seed);
    dataset_.items = db;
    flat_ = FlatDataset::FromItems(db);

    Rng rng(args_.seed ^ 0x5e7e5e7eULL);
    std::vector<std::size_t> perm(kM);
    for (std::size_t i = 0; i < kM; ++i) perm[i] = i;
    for (std::size_t i = kM - 1; i > 0; --i) {
      std::swap(perm[i], perm[rng.NextBounded(i + 1)]);
    }
    truth_.ids.assign(perm.begin(), perm.begin() + kUniverse);
    truth_.knn.resize(kUniverse);
    truth_.range.resize(kUniverse);
    // Ground truth from a clean in-memory exact-scan engine, which shares
    // no search code with the wedge cascade under test.
    EngineOptions truth_options;
    truth_options.cascade.stages = {rotind::StageKind::kExactScan};
    const QueryEngine clean(flat_, truth_options);
    rotind::ParallelFor(kUniverse, Nproc(), [&](std::size_t s) {
      const Series q(flat_.data(truth_.ids[s]),
                     flat_.data(truth_.ids[s]) + kN);
      truth_.knn[s] = clean.Knn(q, kMaxK);
      truth_.range[s] = clean.Range(q, kRadius);
    });

    // Request lines: 60% nn, 30% knn k in [2, 8], 10% range, zipf ids.
    const Zipf zipf(kUniverse);
    const std::size_t count = static_cast<std::size_t>(
        std::max(2000.0, args_.seconds * 1000.0));
    lines_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      Line line;
      line.slot = zipf.Sample(&rng);
      const std::string id = std::to_string(truth_.ids[line.slot]);
      const double mix = rng.NextDouble();
      if (mix < 0.6) {
        line.text = "nn " + id;
      } else if (mix < 0.9) {
        line.text = "knn " + id + " " +
                    std::to_string(2 + rng.NextBounded(kMaxK - 1));
      } else {
        line.text = "range " + id + " 2.5";
      }
      lines_.push_back(std::move(line));
    }
    gaps_rng_seed_ = rng.NextU64();
  }

  static rotind::IndexBuildOptions BuildOptions() {
    rotind::IndexBuildOptions options;
    options.page_size_bytes = kPageBytes;
    return options;
  }

  static int Workers() { return std::max(1, Nproc() - 1); }

  /// Issues one request line; returns false when it was not admitted.
  bool Send(Record* rec, Completions* done, Tracer* tracer) {
    rec->sent = Clock::now();
    const std::uint64_t request_id = tracer ? tracer->NewId() : 0;
    rec->span = request_id;
    rotind::StatusOr<serve::Request> parsed = [&] {
      Tracer::Scope span(tracer, "serve.parse", request_id, request_id);
      return serve::ParseRequest(rec->line->text);
    }();
    if (!parsed.ok()) Fatal("request did not parse: " + rec->line->text);
    rec->request = *parsed;
    const auto callback = [rec, done, tracer](const serve::Request& request,
                                              const serve::Response& response) {
      const Clock::time_point start = Clock::now();
      rec->done = start;
      const std::uint64_t callback_id = tracer ? tracer->NewId() : 0;
      {
        Tracer::Scope span(tracer, "serve.format", callback_id, rec->span);
        const std::string line = serve::FormatResponse(request, response);
      }
      rec->status = response.status;
      rec->degraded = response.degraded;
      rec->effective_k = response.effective_k;
      rec->server_latency = response.latency;
      rec->neighbors = response.neighbors;
      if (tracer != nullptr) {
        const Clock::time_point end = Clock::now();
        tracer->Record("serve.callback", start, end, callback_id, rec->span,
                       rec->span);
        tracer->Record("serve.request", rec->due, end, rec->span, 0,
                       rec->span);
      }
      // The record is complete; the generator may read it from here on.
      done->Add();
    };
    Status admitted;
    {
      Tracer::Scope span(tracer, "serve.submit", request_id, request_id);
      admitted = server_->Submit(rec->request, callback);
    }
    rec->admitted = admitted.ok();
    return rec->admitted;
  }

  void Check(const Record& rec, Result* result) const {
    const std::size_t s = rec.line->slot;
    const std::vector<Neighbor>& got = rec.neighbors;
    bool ok = false;
    switch (rec.request.op) {
      case serve::RequestOp::kNearest:
        ok = got.size() == 1 && !truth_.knn[s].empty() &&
             got[0].index == truth_.knn[s][0].index &&
             got[0].distance == truth_.knn[s][0].distance;
        break;
      case serve::RequestOp::kKnn: {
        const std::size_t k = static_cast<std::size_t>(rec.effective_k);
        const std::vector<Neighbor> want(
            truth_.knn[s].begin(),
            truth_.knn[s].begin() +
                static_cast<std::ptrdiff_t>(std::min(k, truth_.knn[s].size())));
        ok = SameNeighbors(got, want);
        break;
      }
      case serve::RequestOp::kRange:
        ok = SameNeighbors(got, truth_.range[s]);
        break;
    }
    if (!ok) result->Wrong("serve_ed answer to '" + rec.line->text + "'");
  }

  const Args& args_;
  Dataset dataset_;
  FlatDataset flat_;
  Truth truth_;
  std::vector<Line> lines_;
  std::uint64_t gaps_rng_seed_ = 0;
  std::string dir_;
  std::unique_ptr<QueryEngine> engine_;
  std::unique_ptr<serve::QueryServer> server_;
  double disk_bytes_ = 0.0;
  PassStats last_;
};

}  // namespace

Result RunServeEd(const Args& args) {
  ServeEd workload(args);
  return RunSchedule(args, &workload);
}

}  // namespace rotbench
