#include "src/search/vptree.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "src/core/random.h"

namespace rotind {
namespace {

/// Mixed-dimensionality points would make this loop read past the shorter
/// buffer; the constructor and the query entry points reject them on all
/// build types, so equal sizes are an established invariant here.
double L2(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

[[noreturn]] void DieDimsMismatch(const char* what, std::size_t got,
                                  std::size_t want) {
  std::fprintf(stderr,
               "rotind: VpTree: %s has %zu dimensions, tree points have %zu; "
               "mixed-dimensionality points are not comparable\n",
               what, got, want);
  std::abort();
}

}  // namespace

VpTree::VpTree(std::vector<std::vector<double>> points, std::uint64_t seed,
               std::size_t leaf_size)
    : points_(std::move(points)),
      leaf_size_(std::max<std::size_t>(1, leaf_size)) {
  if (points_.empty()) return;
  // Hard invariant on every build type (the L2 metric reads both buffers up
  // to the first one's size): all points share one dimensionality.
  for (const std::vector<double>& p : points_) {
    if (p.size() != points_[0].size()) {
      DieDimsMismatch("a point", p.size(), points_[0].size());
    }
  }
  std::vector<int> ids(points_.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<int>(i);
  Rng rng(seed);
  root_ = BuildRecursive(&ids, 0, ids.size(), &rng);
}

int VpTree::BuildRecursive(std::vector<int>* ids, std::size_t lo,
                           std::size_t hi, Rng* rng) {
  Node node;
  const std::size_t count = hi - lo;
  if (count <= leaf_size_) {
    node.is_leaf = true;
    node.bucket.assign(ids->begin() + static_cast<long>(lo),
                       ids->begin() + static_cast<long>(hi));
    nodes_.push_back(std::move(node));
    return static_cast<int>(nodes_.size()) - 1;
  }

  // Pick a random vantage point and move it to the front.
  const std::size_t pick = lo + rng->NextBounded(count);
  std::swap((*ids)[lo], (*ids)[pick]);
  const int vp = (*ids)[lo];

  // Partition the remainder by distance to the vantage point.
  const std::size_t mid = lo + 1 + (count - 1) / 2;
  std::nth_element(ids->begin() + static_cast<long>(lo) + 1,
                   ids->begin() + static_cast<long>(mid),
                   ids->begin() + static_cast<long>(hi), [&](int a, int b) {
                     return L2(points_[static_cast<std::size_t>(a)],
                               points_[static_cast<std::size_t>(vp)]) <
                            L2(points_[static_cast<std::size_t>(b)],
                               points_[static_cast<std::size_t>(vp)]);
                   });
  node.vantage = vp;
  node.median = L2(points_[static_cast<std::size_t>((*ids)[mid])],
                   points_[static_cast<std::size_t>(vp)]);

  const int self = static_cast<int>(nodes_.size());
  nodes_.push_back(node);
  const int left = BuildRecursive(ids, lo + 1, mid + 1, rng);
  const int right = (mid + 1 < hi) ? BuildRecursive(ids, mid + 1, hi, rng)
                                   : -1;
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
}

/// One traversal's inputs and work count.
struct VpTree::Walk {
  const std::vector<double>& query;
  const std::function<double()>& threshold;
  const std::function<bool(int)>& visit;
  StepCounter* counter;
  std::uint64_t metric_evals = 0;

  double Metric(const std::vector<double>& point) {
    ++metric_evals;
    AddSteps(counter, point.size());
    return L2(point, query);
  }
};

std::uint64_t VpTree::Search(const std::vector<double>& query,
                             const std::function<double()>& threshold,
                             const std::function<bool(int)>& visit,
                             StepCounter* counter) const {
  if (root_ < 0) return 0;
  if (query.size() != dims()) {
    DieDimsMismatch("the query", query.size(), dims());
  }
  Walk walk{query, threshold, visit, counter};
  SearchRecursive(root_, &walk);
  return walk.metric_evals;
}

bool VpTree::SearchRecursive(int node_id, Walk* walk) const {
  if (node_id < 0) return true;
  const Node& node = nodes_[static_cast<std::size_t>(node_id)];

  if (node.is_leaf) {
    // Table 7 leaf handling: compute signature lower bounds, visit in
    // ascending order, and stop at the first bound that reaches the
    // caller's threshold.
    std::vector<std::pair<double, int>> order;
    order.reserve(node.bucket.size());
    for (int id : node.bucket) {
      order.emplace_back(walk->Metric(points_[static_cast<std::size_t>(id)]),
                         id);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [lb, id] : order) {
      if (lb >= walk->threshold()) break;
      if (!walk->visit(id)) return false;
    }
    return true;
  }

  const double d_vp =
      walk->Metric(points_[static_cast<std::size_t>(node.vantage)]);
  if (d_vp < walk->threshold() && !walk->visit(node.vantage)) return false;

  // Triangle-inequality pruning via |d_vp - d(vp, p)|: the near side is
  // always reachable (bound 0); the far side only if the query sits within
  // threshold of the splitting shell. Since the metric lower-bounds the
  // true distance, a skipped subtree cannot improve the caller's answer.
  const bool near_left = d_vp <= node.median;
  const int first = near_left ? node.left : node.right;
  const int second = near_left ? node.right : node.left;
  const double second_bound =
      near_left ? node.median - d_vp : d_vp - node.median;

  if (!SearchRecursive(first, walk)) return false;
  if (second_bound < walk->threshold()) return SearchRecursive(second, walk);
  return true;
}

}  // namespace rotind
