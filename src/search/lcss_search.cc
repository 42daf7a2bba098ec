#include "src/search/lcss_search.h"

#include <algorithm>
#include <cmath>

namespace rotind {

std::size_t LcssMatchUpperBound(const double* q, const double* upper,
                                const double* lower, std::size_t n,
                                double epsilon,
                                std::size_t required_matches,
                                StepCounter* counter) {
  if (counter != nullptr) ++counter->lower_bound_evals;
  std::size_t misses = 0;
  const std::size_t allowed_misses =
      required_matches > n ? 0 : n - required_matches;
  for (std::size_t i = 0; i < n; ++i) {
    if (q[i] > upper[i] + epsilon || q[i] < lower[i] - epsilon) {
      ++misses;
      if (misses > allowed_misses) {
        if (counter != nullptr) {
          counter->steps += i + 1;
          ++counter->early_abandons;
        }
        return 0;  // cannot reach required_matches
      }
    }
  }
  AddSteps(counter, n);
  return n - misses;
}

LcssMatchResult HMergeLcss(const double* c, const WedgeTree& tree,
                           const std::vector<int>& wedge_set,
                           const LcssOptions& options,
                           std::size_t best_so_far_length,
                           StepCounter* counter) {
  const std::size_t n = tree.length();
  LcssMatchResult result;
  // To be reported, a rotation must STRICTLY beat the best so far.
  std::size_t required = best_so_far_length + 1;

  std::vector<int> stack(wedge_set.begin(), wedge_set.end());
  while (!stack.empty()) {
    const int id = stack.back();
    stack.pop_back();

    const std::size_t bound =
        LcssMatchUpperBound(c, tree.Upper(id), tree.Lower(id), n,
                            options.epsilon, required, counter);
    if (bound < required) continue;  // the whole wedge is pruned

    if (!tree.IsLeaf(id)) {
      stack.push_back(tree.LeftChild(id));
      stack.push_back(tree.RightChild(id));
      continue;
    }

    const std::size_t len =
        LcssLength(tree.LeafSeries(id), c, n, options, counter);
    if (len >= required) {
      required = len + 1;
      result.length = len;
      result.rotation_index = static_cast<std::size_t>(id);
      result.pruned = false;
    }
  }
  return result;
}

LcssWedgeSearcher::LcssWedgeSearcher(const Series& query,
                                     const LcssOptions& lcss,
                                     const RotationOptions& rotation,
                                     StepCounter* counter)
    : lcss_(lcss),
      // The delta window expansion of the wedge envelopes reuses the DTW
      // band machinery (identical sliding-extremum semantics).
      tree_(query, rotation,
            lcss.delta < 0 ? static_cast<int>(query.size()) - 1 : lcss.delta,
            Linkage::kAverage, WedgeHierarchy::kClustered, counter) {
  wedge_set_ = tree_.WedgeSetForK(
      std::max(2, static_cast<int>(tree_.max_k()) / 16));
}

LcssMatchResult LcssWedgeSearcher::Match(const double* c,
                                         std::size_t best_so_far_length,
                                         StepCounter* counter) const {
  return HMergeLcss(c, tree_, wedge_set_, lcss_, best_so_far_length, counter);
}

}  // namespace rotind
