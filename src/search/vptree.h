#ifndef ROTIND_SEARCH_VPTREE_H_
#define ROTIND_SEARCH_VPTREE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/core/step_counter.h"

namespace rotind {

/// A vantage-point tree over D-dimensional points under the L2 metric
/// (paper Table 7, adapted from reference [38]). The points are compressed
/// in-memory signatures (FFT magnitudes); the *true* rotation-invariant
/// distance is only available by fetching the full object, which the
/// caller does in its visit callback.
///
/// Exactness contract: the L2 metric between signatures must lower-bound
/// the true distance. Then any subtree whose metric lower bound (via the
/// triangle inequality around its vantage point) reaches the caller's
/// threshold can be skipped without false dismissals.
class VpTree {
 public:
  /// Builds the tree over `points` (object id = position). `seed` drives
  /// vantage-point selection; `leaf_size` bounds bucket size.
  VpTree(std::vector<std::vector<double>> points, std::uint64_t seed = 42,
         std::size_t leaf_size = 8);

  /// The one traversal, in Table 7 order: the near side of every vantage
  /// point first, leaf buckets in ascending metric order. Calls visit(id)
  /// for every point whose metric distance to `query` is below
  /// threshold(), and skips every point a bound proves to be at or above
  /// it. threshold() is re-read before each decision, so it may tighten as
  /// the caller's visits find answers; visit returning false stops the
  /// traversal. Returns the number of metric evaluations; `counter`, if
  /// given, is charged `dims` steps for each.
  std::uint64_t Search(const std::vector<double>& query,
                       const std::function<double()>& threshold,
                       const std::function<bool(int)>& visit,
                       StepCounter* counter = nullptr) const;

  std::size_t size() const { return points_.size(); }
  std::size_t dims() const { return points_.empty() ? 0 : points_[0].size(); }

 private:
  struct Node {
    int vantage = -1;      ///< object id of the vantage point
    double median = 0.0;   ///< split radius
    int left = -1;         ///< subtree of points with d(vp, p) <= median
    int right = -1;        ///< subtree of points with d(vp, p) > median
    std::vector<int> bucket;  ///< leaf entries (empty for internal nodes)
    bool is_leaf = false;
  };
  struct Walk;

  int BuildRecursive(std::vector<int>* ids, std::size_t lo, std::size_t hi,
                     class Rng* rng);
  /// False once the caller's visit asked to stop.
  bool SearchRecursive(int node_id, Walk* walk) const;

  std::vector<std::vector<double>> points_;
  std::vector<Node> nodes_;
  int root_ = -1;
  std::size_t leaf_size_;
};

}  // namespace rotind

#endif  // ROTIND_SEARCH_VPTREE_H_
