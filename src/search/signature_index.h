#ifndef ROTIND_SEARCH_SIGNATURE_INDEX_H_
#define ROTIND_SEARCH_SIGNATURE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/core/series.h"
#include "src/core/status.h"
#include "src/core/step_counter.h"
#include "src/distance/measure.h"
#include "src/envelope/wedge_tree.h"
#include "src/search/paa.h"
#include "src/search/vptree.h"
#include "src/storage/backend.h"

namespace rotind {

/// The paper's Section 4.2 / Table 7 index: one D-dimensional signature
/// row per database object, built once per engine and consulted per query
/// by the StageKind::kSignatureIndex cascade stage. It decides the ORDER in
/// which candidates are visited and stops once no unvisited candidate's
/// signature bound can beat the caller's threshold. Both bounds are true
/// lower bounds of the rotation-invariant distance, so the visit is exact:
///
///  * Euclidean: the first D FFT magnitudes (rotation- and mirror-
///    invariant, a metric, and a lower bound of RED) searched with a
///    VP-tree.
///  * DTW: FFT magnitudes do NOT lower-bound DTW, so this path uses the
///    exact-DTW-indexing machinery the paper cites ([16][37]): D-segment
///    PAA means against PAA-reduced, band-expanded wedge envelopes of the
///    query, visited in ascending min-over-wedges LB_PAA.
class SignatureIndex {
 public:
  /// The signature dims a database of length-`length` series supports:
  /// 1..n/2 FFT magnitudes (Euclidean), 1..n PAA segments (DTW).
  [[nodiscard]] static Status ValidateDims(DistanceKind kind,
                                           std::size_t dims,
                                           std::size_t length);

  /// The dims an index over `backend` gets: those of the backend's stored
  /// RIDX rows for `kind` when it has them (both sides of every bound must
  /// live in the same space, and the rows were written at build time),
  /// else `requested`.
  static std::size_t EffectiveDims(const storage::StorageBackend& backend,
                                   DistanceKind kind, std::size_t requested);

  /// Builds the index over `backend` at EffectiveDims(backend, kind,
  /// requested). Preconditions: kind is kEuclidean or kDtw, and
  /// ValidateDims holds for the effective dims. Rows come from the
  /// backend's stored RIDX sections when present, else each series is
  /// fetched once (uncounted) and transformed. Returns null when such a
  /// fetch fails.
  static std::unique_ptr<const SignatureIndex> Build(
      const storage::StorageBackend& backend, DistanceKind kind,
      std::size_t requested);

  /// Index over precomputed rows: row i holds database object i's
  /// signature (`dims` FFT magnitudes for kEuclidean, PAA means for kDtw).
  SignatureIndex(DistanceKind kind, std::size_t dims,
                 std::vector<std::vector<double>> rows);

  /// Calls visit(id) for the candidates whose signature bound is below
  /// threshold(), in ascending-bound order (Table 7 order for the
  /// VP-tree); threshold() is re-read before every decision, and visit
  /// returning false stops the walk. `tree` is the query's band-expanded
  /// wedge tree (DTW only). The query-side signature and every bound
  /// evaluation are charged to `counter`. Returns the number of bound
  /// evaluations.
  std::uint64_t Visit(const Series& query, const WedgeTree* tree,
                      const std::function<double()>& threshold,
                      const std::function<bool(int)>& visit,
                      StepCounter* counter) const;

 private:
  DistanceKind kind_;
  std::size_t dims_;
  /// Euclidean: VP-tree over the FFT-magnitude rows.
  std::unique_ptr<VpTree> vptree_;
  /// DTW: PAA rows, by database position.
  std::vector<PaaPoint> paa_;
};

}  // namespace rotind

#endif  // ROTIND_SEARCH_SIGNATURE_INDEX_H_
