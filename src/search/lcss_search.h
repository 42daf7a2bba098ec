#ifndef ROTIND_SEARCH_LCSS_SEARCH_H_
#define ROTIND_SEARCH_LCSS_SEARCH_H_

#include <cstddef>
#include <vector>

#include "src/core/series.h"
#include "src/core/step_counter.h"
#include "src/distance/lcss.h"
#include "src/distance/rotation.h"
#include "src/envelope/wedge_tree.h"

namespace rotind {

/// Wedge-accelerated rotation-invariant LCSS (paper Section 4.3 + ref
/// [37]). LCSS is a SIMILARITY (larger = better), so the envelope bound is
/// an upper bound and search prunes wedges whose bound cannot beat the
/// best-so-far similarity. "The minor changes include reversing some
/// inequality signs" — this module is those changes, spelled out.

/// Upper bound on LCSS match count between `q` and every sequence enclosed
/// by `delta_envelope` (an envelope already expanded by the LCSS window
/// delta, exactly like the DTW band expansion): a point q_i can only match
/// if it lies within [L_i - epsilon, U_i + epsilon]. Counts one step per
/// point examined; abandons (returning 0) once the number of unmatchable
/// points makes beating `required_matches` impossible.
std::size_t LcssMatchUpperBound(const double* q, const double* upper,
                                const double* lower, std::size_t n,
                                double epsilon,
                                std::size_t required_matches,
                                StepCounter* counter = nullptr);

/// Result of a rotation-invariant LCSS comparison via wedges.
struct LcssMatchResult {
  /// Best LCSS length over all candidate rotations (0 when pruned).
  std::size_t length = 0;
  std::size_t rotation_index = 0;
  /// True when no rotation could beat the required threshold.
  bool pruned = true;

  double similarity(std::size_t n) const {
    return n == 0 ? 0.0
                  : static_cast<double>(length) / static_cast<double>(n);
  }
};

/// H-Merge for LCSS: descends the wedge hierarchy, pruning nodes whose
/// match upper bound does not EXCEED `best_so_far_length`, and evaluating
/// exact LCSS at surviving leaves. The wedge tree must be built with
/// dtw_band == the LCSS delta (the same sliding-extremum expansion serves
/// both).
LcssMatchResult HMergeLcss(const double* c, const WedgeTree& tree,
                           const std::vector<int>& wedge_set,
                           const LcssOptions& options,
                           std::size_t best_so_far_length,
                           StepCounter* counter = nullptr);

/// Per-query engine mirroring WedgeSearcher, for LCSS.
class LcssWedgeSearcher {
 public:
  LcssWedgeSearcher(const Series& query, const LcssOptions& lcss,
                    const RotationOptions& rotation, StepCounter* counter);

  /// Best LCSS length of any query rotation against `c`, pruned against
  /// the caller's best-so-far length.
  LcssMatchResult Match(const double* c, std::size_t best_so_far_length,
                        StepCounter* counter) const;

  const WedgeTree& tree() const { return tree_; }
  std::size_t length() const { return tree_.length(); }

 private:
  LcssOptions lcss_;
  WedgeTree tree_;
  std::vector<int> wedge_set_;
};

}  // namespace rotind

#endif  // ROTIND_SEARCH_LCSS_SEARCH_H_
