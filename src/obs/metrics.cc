#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "src/io/bytes.h"
#include "src/simd/simd.h"

namespace rotind::obs {
namespace {

/// Minimal JSON writer helpers. The obs layer emits only objects of
/// numbers, strings, and arrays of numbers; no escaping beyond the basics
/// is needed for the stage names it produces, but registry entry names are
/// caller-supplied, so escape them.
void AppendEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
}

void AppendKey(std::string* out, const std::string& pad, const char* key) {
  *out += pad;
  *out += '"';
  *out += key;
  *out += "\": ";
}

void AppendU64(std::string* out, const std::string& pad, const char* key,
               std::uint64_t value, bool comma) {
  AppendKey(out, pad, key);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  *out += buf;
  *out += comma ? ",\n" : "\n";
}

}  // namespace

const char* StageName(StageId id) {
  switch (id) {
    case StageId::kFftFilter: return "fft_filter";
    case StageId::kWedge: return "wedge";
    case StageId::kExactScan: return "exact_scan";
    case StageId::kFullScan: return "full_scan";
    case StageId::kFullScanBanded: return "full_scan_banded";
    case StageId::kSignatureFilter: return "signature_filter";
    case StageId::kDiskFetch: return "disk_fetch";
    case StageId::kLbImproved: return "lb_improved";
    case StageId::kVecSignature: return "vec_signature";
  }
  return "unknown";
}

StageStats& StageStats::operator+=(const StageStats& o) {
  candidates_entered += o.candidates_entered;
  candidates_pruned += o.candidates_pruned;
  candidates_survived += o.candidates_survived;
  steps += o.steps;
  setup_steps += o.setup_steps;
  early_abandons += o.early_abandons;
  wall_nanos += o.wall_nanos;
  pool_hits += o.pool_hits;
  pages_read += o.pages_read;
  pool_evictions += o.pool_evictions;
  io_bytes += o.io_bytes;
  io_retries += o.io_retries;
  io_faults_absorbed += o.io_faults_absorbed;
  used = used || o.used;
  return *this;
}

void LatencyHistogram::Record(std::uint64_t nanos) {
  // Bucket index = floor(log2(nanos)), with 0ns landing in bucket 0 and
  // everything past the top edge clamped into the last bucket.
  std::size_t b = 0;
  for (std::uint64_t v = nanos; v > 1 && b + 1 < kBuckets; v >>= 1) ++b;
  ++buckets_[b];
  ++count_;
  sum_nanos_ += nanos;
  min_nanos_ = std::min(min_nanos_, nanos);
  max_nanos_ = std::max(max_nanos_, nanos);
}

std::uint64_t LatencyHistogram::BucketUpperNanos(std::size_t b) {
  return std::uint64_t{1} << (b + 1);
}

std::uint64_t LatencyHistogram::PercentileNanos(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  // Rank of the percentile sample (1-based, nearest-rank definition).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(p / 100.0 * static_cast<double>(count_) +
                                    0.5));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) {
      // The last bucket is unbounded (it absorbs every overflow sample),
      // so its nominal upper edge means nothing: report the observed max.
      if (b + 1 == kBuckets) return max_nanos_;
      return std::min(BucketUpperNanos(b), max_nanos_);
    }
  }
  return max_nanos_;
}

LatencyHistogram& LatencyHistogram::operator+=(const LatencyHistogram& o) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += o.buckets_[b];
  count_ += o.count_;
  sum_nanos_ += o.sum_nanos_;
  min_nanos_ = std::min(min_nanos_, o.min_nanos_);
  max_nanos_ = std::max(max_nanos_, o.max_nanos_);
  return *this;
}

void WedgeStats::RecordK(int k) {
  ++adapt_probes;
  if (k_trajectory.size() < kMaxTrajectory) k_trajectory.push_back(k);
}

WedgeStats& WedgeStats::operator+=(const WedgeStats& o) {
  wedges_tested += o.wedges_tested;
  wedges_pruned += o.wedges_pruned;
  wedges_descended += o.wedges_descended;
  leaves_evaluated += o.leaves_evaluated;
  leaves_abandoned += o.leaves_abandoned;
  adapt_probes += o.adapt_probes;
  for (int k : o.k_trajectory) {
    if (k_trajectory.size() >= kMaxTrajectory) break;
    k_trajectory.push_back(k);
  }
  return *this;
}

IndexStats& IndexStats::operator+=(const IndexStats& o) {
  signature_evals += o.signature_evals;
  candidates_pruned += o.candidates_pruned;
  object_fetches += o.object_fetches;
  page_reads += o.page_reads;
  refinements += o.refinements;
  return *this;
}

std::uint64_t QueryMetrics::attributed_total_steps() const {
  std::uint64_t total = 0;
  for (const StageStats& s : stages) total += s.total_steps();
  return total;
}

QueryMetrics& QueryMetrics::operator+=(const QueryMetrics& o) {
  for (std::size_t i = 0; i < kNumStages; ++i) stages[i] += o.stages[i];
  wedge += o.wedge;
  index += o.index;
  latency += o.latency;
  queries += o.queries;
  return *this;
}

std::string QueryMetrics::ToJson(int indent) const {
  const std::string pad(static_cast<std::size_t>(std::max(0, indent)), ' ');
  const std::string p1 = pad + "  ";
  const std::string p2 = pad + "    ";
  const std::string p3 = pad + "      ";
  std::string out;
  out += pad + "{\n";
  AppendU64(&out, p1, "queries", queries, true);
  AppendU64(&out, p1, "attributed_total_steps", attributed_total_steps(),
            true);

  out += p1 + "\"stages\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const StageStats& s = stages[i];
    if (!s.used) continue;
    if (!first) out += ",\n";
    first = false;
    out += p2 + "{\n";
    AppendKey(&out, p3, "stage");
    out += '"';
    out += StageName(static_cast<StageId>(i));
    out += "\",\n";
    AppendU64(&out, p3, "candidates_entered", s.candidates_entered, true);
    AppendU64(&out, p3, "candidates_pruned", s.candidates_pruned, true);
    AppendU64(&out, p3, "candidates_survived", s.candidates_survived, true);
    AppendU64(&out, p3, "steps", s.steps, true);
    AppendU64(&out, p3, "setup_steps", s.setup_steps, true);
    AppendU64(&out, p3, "early_abandons", s.early_abandons, true);
    AppendU64(&out, p3, "wall_nanos", s.wall_nanos, s.has_io());
    // Storage I/O keys appear only when the stage did real I/O, so
    // in-memory runs (and the committed BENCH_scan baseline) keep their
    // exact JSON shape.
    if (s.has_io()) {
      AppendU64(&out, p3, "pool_hits", s.pool_hits, true);
      AppendU64(&out, p3, "pages_read", s.pages_read, true);
      AppendU64(&out, p3, "pool_evictions", s.pool_evictions, true);
      AppendU64(&out, p3, "io_bytes", s.io_bytes,
                (s.io_retries | s.io_faults_absorbed) != 0);
      // Retry keys appear only under storage faults: clean runs (including
      // the committed BENCH_scan baseline) keep their exact JSON shape.
      if ((s.io_retries | s.io_faults_absorbed) != 0) {
        AppendU64(&out, p3, "io_retries", s.io_retries, true);
        AppendU64(&out, p3, "io_faults_absorbed", s.io_faults_absorbed,
                  false);
      }
    }
    out += p2 + "}";
  }
  out += "\n" + p1 + "],\n";

  out += p1 + "\"wedge\": {\n";
  AppendU64(&out, p2, "wedges_tested", wedge.wedges_tested, true);
  AppendU64(&out, p2, "wedges_pruned", wedge.wedges_pruned, true);
  AppendU64(&out, p2, "wedges_descended", wedge.wedges_descended, true);
  AppendU64(&out, p2, "leaves_evaluated", wedge.leaves_evaluated, true);
  AppendU64(&out, p2, "leaves_abandoned", wedge.leaves_abandoned, true);
  AppendU64(&out, p2, "adapt_probes", wedge.adapt_probes, true);
  out += p2 + "\"k_trajectory\": [";
  for (std::size_t i = 0; i < wedge.k_trajectory.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(wedge.k_trajectory[i]);
  }
  out += "]\n";
  out += p1 + "},\n";

  out += p1 + "\"index\": {\n";
  AppendU64(&out, p2, "signature_evals", index.signature_evals, true);
  AppendU64(&out, p2, "candidates_pruned", index.candidates_pruned, true);
  AppendU64(&out, p2, "object_fetches", index.object_fetches, true);
  AppendU64(&out, p2, "page_reads", index.page_reads, true);
  AppendU64(&out, p2, "refinements", index.refinements, false);
  out += p1 + "},\n";

  out += p1 + "\"latency\": {\n";
  AppendU64(&out, p2, "count", latency.count(), true);
  AppendU64(&out, p2, "total_nanos", latency.total_nanos(), true);
  AppendU64(&out, p2, "min_nanos", latency.min_nanos(), true);
  AppendU64(&out, p2, "max_nanos", latency.max_nanos(), true);
  AppendU64(&out, p2, "p50_nanos", latency.PercentileNanos(50.0), true);
  AppendU64(&out, p2, "p95_nanos", latency.PercentileNanos(95.0), true);
  AppendU64(&out, p2, "p99_nanos", latency.PercentileNanos(99.0), false);
  out += p1 + "}\n";
  out += pad + "}";
  return out;
}

QueryMetrics& MetricsRegistry::Get(const std::string& name) {
  for (auto& [key, value] : entries_) {
    if (key == name) return value;
  }
  entries_.emplace_back(name, QueryMetrics{});
  return entries_.back().second;
}

std::string MetricsRegistry::ToJson() const {
  // The dispatched kernel tier makes every exported report self-describing:
  // two bench artifacts can only be compared apples-to-apples when both say
  // which tier produced them.
  std::string out = "{\n  \"simd\": \"";
  out += simd::ActiveTierName();
  out += "\",\n  \"metrics\": {\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    out += "    \"";
    AppendEscaped(&out, entries_[i].first);
    out += "\":\n";
    out += entries_[i].second.ToJson(4);
    out += i + 1 < entries_.size() ? ",\n" : "\n";
  }
  out += "  }\n}\n";
  return out;
}

Status MetricsRegistry::WriteJsonFile(const std::string& path) const {
  return WriteStringToFile(path, ToJson());
}

}  // namespace rotind::obs
