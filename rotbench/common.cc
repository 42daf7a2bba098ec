#include "rotbench/common.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>

namespace rotbench {

using rotind::Neighbor;
using rotind::obs::QueryMetrics;
using rotind::obs::StageId;
using rotind::obs::StageStats;

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(samples.size())));
  return samples[index - 1];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double total = 0.0;
  for (const double s : samples) total += s;
  return total / static_cast<double>(samples.size());
}

double PeakRssMb() {
  // VmHWM is the high-water mark of this program's own address space.
  // getrusage's ru_maxrss is not: Linux carries the peak of the address
  // space replaced by execve into it, so it reports the launching
  // process's RSS whenever that is the larger.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) Fatal("cannot read /proc/self/status for VmHWM");
  char line[256];
  double kib = -1.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(f);
  if (kib < 0.0) Fatal("no VmHWM line in /proc/self/status");
  return kib / 1024.0;
}

std::uint64_t DirectoryBytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

void Result::Wrong(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "WRONG: %s\n", what.c_str());
}

namespace {

std::vector<std::pair<std::string, std::string>> BuildCatalogue() {
  std::vector<std::pair<std::string, std::string>> c = {
      {"bench.failed_frac", "frac"},
      {"bench.read_samples", "count"},
      {"bench.read_p99_ms", "ms"},
      {"serve.queue_wait_ms_mean", "ms"},
      {"serve.service_ms_mean", "ms"},
      {"serve.submit_us_p50", "us"},
      {"serve.parse_us_mean", "us"},
      {"serve.format_us_mean", "us"},
      {"serve.shed", "count"},
      {"serve.degraded", "count"},
      {"serve.gen_lag_ms_p99", "ms"},
      {"storage.fetch_ms_per_query", "ms"},
      {"storage.fetch_ns_per_object", "ns"},
      {"storage.pool_hit_rate", "frac"},
      {"storage.pages_read_per_query", "count"},
      {"storage.evictions_per_query", "count"},
      {"storage.retries", "count"},
  };
  for (const char* stage : {"wedge", "exact_scan", "vec_signature"}) {
    const std::string p = std::string("search.") + stage;
    c.push_back({p + ".wall_ms_per_query", "ms"});
    c.push_back({p + ".steps_per_query", "count"});
    c.push_back({p + ".pruned_frac", "frac"});
    c.push_back({p + ".ns_per_step", "ns"});
  }
  c.insert(c.end(), {
      {"search.hmerge.tested_per_query", "count"},
      {"search.hmerge.descend_frac", "frac"},
      {"search.hmerge.leaves_per_query", "count"},
      {"search.exec_efficiency", "frac"},
      {"index.build_s", "s"},
      {"index.open_s", "s"},
      {"index.steps_per_read", "count"},
      {"index.shard_count_end", "count"},
      {"index.delta_rows_per_compact", "count"},
      {"index.compact_bytes_written", "bytes"},
      {"index.tombstones_end", "count"},
      {"index.write_p50_ms", "ms"},
      {"index.write_p99_ms", "ms"},
      {"index.compact_ms", "ms"},
      {"index.disk_bytes_per_byte", "ratio"},
      {"trace.overhead_frac", "frac"},
  });
  for (const std::string& span : SpanNames()) {
    c.push_back({"trace." + span + ".self_ms_mean", "ms"});
  }
  return c;
}

}  // namespace

const std::vector<std::pair<std::string, std::string>>& PerLayerCatalogue() {
  static const auto catalogue = BuildCatalogue();
  return catalogue;
}

const std::vector<std::string>& SpanNames() {
  static const std::vector<std::string> names = {
      "setup",         "setup.build_index", "setup.write_manifest",
      "setup.open",    "serve.request",     "serve.parse",
      "serve.submit",  "serve.callback",    "serve.format",
      "batch.knn",     "shard.search",      "shard.knn",
      "shard.insert",  "shard.remove",      "shard.compact",
  };
  return names;
}

std::string ResultJson(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

bool SameNeighbors(const std::vector<Neighbor>& got,
                   const std::vector<Neighbor>& want) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i].index != want[i].index ||
        got[i].distance != want[i].distance) {
      return false;
    }
  }
  return true;
}

bool KnnMatches(const std::vector<Neighbor>& got,
                const std::vector<Neighbor>& truth, std::size_t k) {
  const std::size_t expect = std::min(k, truth.size());
  if (got.size() != expect) return false;
  if (expect == 0) return true;
  const double kth = truth[expect - 1].distance;
  // Rows tied at the k-th distance, as far as the deeper truth shows them.
  // If every extra truth row ties too, the tie may run past what the
  // truth lists, so any index at that distance is accepted.
  const bool tie_overflows =
      truth.size() > expect && truth.back().distance == kth;
  for (std::size_t i = 0; i < expect; ++i) {
    if (got[i].distance != truth[i].distance) return false;
    if (got[i].index == truth[i].index) continue;
    if (got[i].distance != kth) return false;
    if (tie_overflows) continue;
    bool tied = false;
    for (const Neighbor& t : truth) {
      tied = tied || (t.distance == kth && t.index == got[i].index);
    }
    if (!tied) return false;
  }
  return true;
}

std::vector<std::uint64_t> CounterFingerprint(const rotind::StepCounter& steps,
                                              const QueryMetrics& m) {
  std::vector<std::uint64_t> f = {steps.steps, steps.setup_steps,
                                  steps.lower_bound_evals, steps.full_evals,
                                  steps.early_abandons};
  for (const StageStats& s : m.stages) {
    f.insert(f.end(), {s.candidates_entered, s.candidates_pruned,
                       s.candidates_survived, s.steps, s.setup_steps,
                       s.early_abandons});
  }
  f.insert(f.end(), {m.wedge.wedges_tested, m.wedge.wedges_pruned,
                     m.wedge.wedges_descended, m.wedge.leaves_evaluated,
                     m.wedge.leaves_abandoned, m.wedge.adapt_probes,
                     m.queries});
  return f;
}

void AddSearchMetrics(const QueryMetrics& m, double reads, Result* out) {
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  const struct {
    const char* name;
    StageId id;
  } stages[] = {{"wedge", StageId::kWedge},
                {"exact_scan", StageId::kExactScan},
                {"vec_signature", StageId::kVecSignature}};
  for (const auto& stage : stages) {
    const StageStats& s = m.stage(stage.id);
    const std::string p = std::string("search.") + stage.name;
    const double wall = static_cast<double>(s.wall_nanos);
    const double steps = static_cast<double>(s.total_steps());
    out->Add(p + ".wall_ms_per_query", ratio(wall / 1e6, reads), "ms");
    out->Add(p + ".steps_per_query", ratio(steps, reads), "count");
    out->Add(p + ".pruned_frac",
             ratio(static_cast<double>(s.candidates_pruned),
                   static_cast<double>(s.candidates_entered)),
             "frac");
    out->Add(p + ".ns_per_step", ratio(wall, steps), "ns");
  }
  const auto& w = m.wedge;
  out->Add("search.hmerge.tested_per_query",
           ratio(static_cast<double>(w.wedges_tested), reads), "count");
  out->Add("search.hmerge.descend_frac",
           ratio(static_cast<double>(w.wedges_descended),
                 static_cast<double>(w.wedges_tested)),
           "frac");
  out->Add("search.hmerge.leaves_per_query",
           ratio(static_cast<double>(w.leaves_evaluated), reads), "count");

  const StageStats& fetch = m.stage(StageId::kDiskFetch);
  const double pins = static_cast<double>(fetch.pool_hits + fetch.pages_read);
  out->Add("storage.fetch_ms_per_query",
           ratio(static_cast<double>(fetch.wall_nanos) / 1e6, reads), "ms");
  out->Add("storage.fetch_ns_per_object",
           ratio(static_cast<double>(fetch.wall_nanos),
                 static_cast<double>(fetch.candidates_entered)),
           "ns");
  out->Add("storage.pool_hit_rate",
           ratio(static_cast<double>(fetch.pool_hits), pins), "frac");
  out->Add("storage.pages_read_per_query",
           ratio(static_cast<double>(fetch.pages_read), reads), "count");
  out->Add("storage.evictions_per_query",
           ratio(static_cast<double>(fetch.pool_evictions), reads), "count");
  out->Add("storage.retries", static_cast<double>(fetch.io_retries), "count");
}

std::uint64_t Tracer::NewId() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id,
                    std::uint64_t parent, std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, start, end, id, parent, request});
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t parent,
                     std::uint64_t request)
    : tracer_(tracer), name_(name), parent_(parent), request_(request) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->NewId();
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->Record(name_, start_, Clock::now(), id_, parent_, request_);
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(MsBetween(s.start, s.end));
  }
  return out;
}

void Tracer::AddSelfTimes(Result* out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, std::pair<double, std::size_t>> self;  // sum, count
  for (const Span& s : spans_) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> covered;
    const auto it = children.find(s.id);
    if (it != children.end()) {
      for (const Span* c : it->second) {
        const auto a = std::max(c->start, s.start);
        const auto b = std::min(c->end, s.end);
        if (a < b) covered.push_back({a, b});
      }
    }
    std::sort(covered.begin(), covered.end());
    double covered_ms = 0.0;
    Clock::time_point reach = s.start;
    for (const auto& [a, b] : covered) {
      const auto from = std::max(a, reach);
      if (b > from) {
        covered_ms += MsBetween(from, b);
        reach = b;
      }
    }
    auto& entry = self[s.name];
    entry.first += MsBetween(s.start, s.end) - covered_ms;
    entry.second += 1;
  }
  for (const std::string& name : SpanNames()) {
    const auto it = self.find(name);
    const double mean =
        it == self.end() ? 0.0
                         : it->second.first /
                               static_cast<double>(it->second.second);
    out->Add("trace." + name + ".self_ms_mean", mean, "ms");
  }
}

void Tracer::Dump(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  std::fprintf(f, "name\tstart_us\tend_us\tid\tparent\trequest\n");
  for (const Span& s : spans_) {
    std::fprintf(f, "%s\t%.3f\t%.3f\t%llu\t%llu\t%llu\n", s.name,
                 MsBetween(origin, s.start) * 1e3,
                 MsBetween(origin, s.end) * 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fclose(f);
}

Result RunSchedule(const Args& args, Workload* workload) {
  Result result;
  Tracer tracer;
  const int passes = args.trace ? 2 : 1;
  std::vector<double> setup_s;
  std::vector<PassSummary> summaries;
  double peak_rss_mb = 0.0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int pass = rep - (kSetupReps - passes);  // Negative: warm-up.
    // Without this the torn-down instances stay in the heap, and how many
    // of them peak_rss_mb counted depended on the seed.
    malloc_trim(0);
    const Clock::time_point t0 = Clock::now();
    workload->Setup(rep, args.trace ? &tracer : nullptr);
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    if (pass < 0) {
      workload->WarmUp(&result);
    } else {
      const bool traced = args.trace && pass == passes - 1;
      summaries.push_back(
          workload->Pass(args.seconds / passes, traced ? &tracer : nullptr));
      peak_rss_mb = PeakRssMb();
      workload->Verify(&result);
    }
    workload->Teardown();
  }

  const PassSummary& main = summaries.back();
  result.attempted = main.attempted;
  result.failed = main.failed;
  std::printf("# %s: read p50 %.3f ms (n=%zu), tail p90 %.3f ms (n=%zu), "
              "p99 %.3f ms (n=%zu), throughput %.2f/s, setup median %.4f s "
              "(n=%zu)\n",
              args.workload.c_str(), main.read_p50_ms, main.read_samples,
              main.read_tail_ms, main.read_samples,
              main.read_p99_ms, main.read_samples, main.throughput_qps,
              Median(setup_s), setup_s.size());
  if (!args.trace) {
    result.Add("setup_s", Median(setup_s), "s");
    result.Add("throughput_qps", main.throughput_qps, "1/s");
    result.Add("read_p50_ms", main.read_p50_ms, "ms");
    result.Add("read_tail_ms", main.read_tail_ms, "ms");
    result.Add("peak_rss_mb", peak_rss_mb, "MiB");
    return result;
  }
  result.Add("bench.failed_frac",
             main.attempted == 0 ? 0.0
                                 : static_cast<double>(main.failed) /
                                       static_cast<double>(main.attempted),
             "frac");
  result.Add("bench.read_samples", static_cast<double>(main.read_samples),
             "count");
  result.Add("bench.read_p99_ms", main.read_p99_ms, "ms");
  result.Add("trace.overhead_frac",
             summaries.front().throughput_qps / main.throughput_qps - 1.0,
             "frac");
  workload->AddLayers(tracer, &result);
  tracer.AddSelfTimes(&result);
  if (!args.spans.empty()) tracer.Dump(args.spans);
  return result;
}

void Fatal(const std::string& message) {
  std::fprintf(stderr, "rotbench: %s\n", message.c_str());
  std::exit(1);
}

}  // namespace rotbench
