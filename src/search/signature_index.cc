#include "src/search/signature_index.h"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "src/envelope/envelope.h"
#include "src/fourier/spectral.h"

namespace rotind {
namespace {

/// Vantage-point selection seed: fixed, so every engine over the same rows
/// builds the same tree and visits candidates in the same order.
constexpr std::uint64_t kVpTreeSeed = 42;

/// Wedges whose PAA envelopes bound a DTW candidate (min over the
/// WedgeSetForK cut of this size): more wedges, tighter bound, more bound
/// evaluations.
constexpr int kLowerBoundWedges = 64;

storage::SignatureRows StoredRows(const storage::StorageBackend& backend,
                                  DistanceKind kind) {
  const storage::IndexRows stored = backend.stored_index_rows();
  return kind == DistanceKind::kEuclidean ? stored.fft : stored.paa;
}

}  // namespace

Status SignatureIndex::ValidateDims(DistanceKind kind, std::size_t dims,
                                    std::size_t length) {
  const bool euclidean = kind == DistanceKind::kEuclidean;
  const std::size_t max_dims = euclidean ? length / 2 : length;
  if (dims >= 1 && dims <= max_dims) return Status::Ok();
  return Status::InvalidArgument(
      "index dims " + std::to_string(dims) + " outside 1.." +
      std::to_string(max_dims) + ": length-" + std::to_string(length) +
      " series have " + std::to_string(max_dims) +
      (euclidean ? " FFT magnitudes" : " PAA segments"));
}

std::size_t SignatureIndex::EffectiveDims(
    const storage::StorageBackend& backend, DistanceKind kind,
    std::size_t requested) {
  const storage::SignatureRows stored = StoredRows(backend, kind);
  return stored.rows != nullptr ? stored.dims : requested;
}

std::unique_ptr<const SignatureIndex> SignatureIndex::Build(
    const storage::StorageBackend& backend, DistanceKind kind,
    std::size_t requested) {
  const storage::SignatureRows stored = StoredRows(backend, kind);
  const std::size_t dims = EffectiveDims(backend, kind, requested);
  const bool euclidean = kind == DistanceKind::kEuclidean;
  std::vector<std::vector<double>> rows(backend.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (stored.rows != nullptr) {
      rows[i].assign(stored.rows + i * dims, stored.rows + (i + 1) * dims);
      continue;
    }
    const storage::SeriesHandle h = backend.Fetch(i, nullptr);
    if (!h.valid()) return nullptr;
    const Series s(h.data(), h.data() + h.length());
    rows[i] = euclidean ? MakeSpectralSignature(s, dims).values
                        : PaaTransform(s, dims).values;
  }
  return std::make_unique<const SignatureIndex>(kind, dims, std::move(rows));
}

SignatureIndex::SignatureIndex(DistanceKind kind, std::size_t dims,
                               std::vector<std::vector<double>> rows)
    : kind_(kind), dims_(dims) {
  if (kind_ == DistanceKind::kEuclidean) {
    vptree_ = std::make_unique<VpTree>(std::move(rows), kVpTreeSeed);
    return;
  }
  paa_.resize(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    paa_[i].values = std::move(rows[i]);
  }
}

std::uint64_t SignatureIndex::Visit(
    const Series& query, const WedgeTree* tree,
    const std::function<double()>& threshold,
    const std::function<bool(int)>& visit, StepCounter* counter) const {
  if (kind_ == DistanceKind::kEuclidean) {
    const SpectralSignature signature = MakeSpectralSignature(query, dims_);
    AddSetupSteps(counter, FftStepCost(query.size()));
    return vptree_->Search(signature.values, threshold, visit, counter);
  }

  // LB(object) = min over a wedge cut of LB_PAA against the PAA-reduced
  // band-expanded wedge envelopes: the cut encloses every rotation the
  // terminal considers, so the minimum lower-bounds the rotation-invariant
  // DTW distance.
  std::vector<PaaEnvelope> envelopes;
  for (int id : tree->WedgeSetForK(kLowerBoundWedges)) {
    Envelope env;
    env.upper.assign(tree->Upper(id), tree->Upper(id) + tree->length());
    env.lower.assign(tree->Lower(id), tree->Lower(id) + tree->length());
    envelopes.push_back(PaaReduceEnvelope(env, dims_));
  }
  std::vector<std::pair<double, int>> order(paa_.size());
  for (std::size_t i = 0; i < paa_.size(); ++i) {
    double lb = std::numeric_limits<double>::infinity();
    for (const PaaEnvelope& env : envelopes) {
      lb = std::min(lb, LbPaa(paa_[i], env, counter));
    }
    order[i] = {lb, static_cast<int>(i)};
  }
  std::sort(order.begin(), order.end());
  for (const auto& [lb, id] : order) {
    if (lb >= threshold() || !visit(id)) break;
  }
  return paa_.size() * envelopes.size();
}

}  // namespace rotind
