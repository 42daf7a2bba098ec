#include "src/search/vptree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "src/core/random.h"

namespace rotind {
namespace {

std::vector<std::vector<double>> RandomPoints(Rng* rng, std::size_t m,
                                              std::size_t dims) {
  std::vector<std::vector<double>> pts(m, std::vector<double>(dims));
  for (auto& p : pts) {
    for (double& v : p) v = rng->Gaussian(0.0, 1.0);
  }
  return pts;
}

double L2(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return std::sqrt(acc);
}

/// Exact 1-NN over the single traversal, the way a caller drives it: a
/// best-so-far threshold, and a visit that computes the true distance.
struct Nn {
  int best_id = -1;
  double best_distance = std::numeric_limits<double>::infinity();
  std::uint64_t metric_evals = 0;
  std::uint64_t visits = 0;
};

template <typename TrueDistance>
Nn NearestNeighbor(const VpTree& tree, const std::vector<double>& q,
                   const TrueDistance& true_distance,
                   StepCounter* counter = nullptr) {
  Nn nn;
  const auto threshold = [&] { return nn.best_distance; };
  const auto visit = [&](int id) {
    ++nn.visits;
    const double d = true_distance(id);
    if (d < nn.best_distance) {
      nn.best_distance = d;
      nn.best_id = id;
    }
    return true;
  };
  nn.metric_evals = tree.Search(q, threshold, visit, counter);
  return nn;
}

TEST(VpTreeTest, ExactNnUnderPureMetric) {
  // True distance == the metric itself: the tree must find the L2 NN.
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t m = 50 + rng.NextBounded(100);
    const std::size_t dims = 2 + rng.NextBounded(10);
    const auto pts = RandomPoints(&rng, m, dims);
    VpTree tree(pts, /*seed=*/trial);

    const auto q = RandomPoints(&rng, 1, dims)[0];
    const Nn r = NearestNeighbor(tree, q, [&](int id) {
      return L2(pts[static_cast<std::size_t>(id)], q);
    });

    int expected = 0;
    double best = L2(pts[0], q);
    for (std::size_t i = 1; i < m; ++i) {
      const double d = L2(pts[i], q);
      if (d < best) {
        best = d;
        expected = static_cast<int>(i);
      }
    }
    EXPECT_EQ(r.best_id, expected);
    EXPECT_NEAR(r.best_distance, best, 1e-12);
  }
}

TEST(VpTreeTest, ExactNnWhenTrueDistanceExceedsMetric) {
  // The real contract: the metric is only a LOWER BOUND of the refined
  // distance. Here true(id) = metric * stretch(id) with stretch >= 1; the
  // tree must still return argmin of the TRUE distance.
  Rng rng(2);
  const std::size_t m = 120;
  const std::size_t dims = 6;
  const auto pts = RandomPoints(&rng, m, dims);
  std::vector<double> stretch(m);
  for (double& s : stretch) s = 1.0 + rng.NextDouble() * 3.0;
  VpTree tree(pts, 7);

  for (int trial = 0; trial < 10; ++trial) {
    const auto q = RandomPoints(&rng, 1, dims)[0];
    const auto true_dist = [&](int id) {
      return L2(pts[static_cast<std::size_t>(id)], q) *
             stretch[static_cast<std::size_t>(id)];
    };
    const Nn r = NearestNeighbor(tree, q, true_dist);

    double best = std::numeric_limits<double>::infinity();
    int expected = -1;
    for (std::size_t i = 0; i < m; ++i) {
      if (true_dist(static_cast<int>(i)) < best) {
        best = true_dist(static_cast<int>(i));
        expected = static_cast<int>(i);
      }
    }
    EXPECT_EQ(r.best_id, expected);
    EXPECT_NEAR(r.best_distance, best, 1e-12);
  }
}

TEST(VpTreeTest, PrunesRefineCalls) {
  // On clustered data the tree should visit far fewer than m objects.
  Rng rng(3);
  const std::size_t m = 500;
  const std::size_t dims = 4;
  auto pts = RandomPoints(&rng, m, dims);
  VpTree tree(pts, 11);
  const auto q = pts[42];  // query equal to a stored point
  const Nn r = NearestNeighbor(tree, q, [&](int id) {
    return L2(pts[static_cast<std::size_t>(id)], q);
  });
  EXPECT_EQ(r.best_id, 42);
  EXPECT_LT(r.visits, m / 2);
}

TEST(VpTreeTest, SinglePointAndEmpty) {
  VpTree empty({}, 1);
  const Nn none = NearestNeighbor(empty, {}, [](int) { return 0.0; });
  EXPECT_EQ(none.best_id, -1);
  EXPECT_EQ(none.metric_evals, 0u);

  VpTree one({{1.0, 2.0}}, 1);
  const Nn r = NearestNeighbor(one, {1.0, 2.5}, [](int) { return 0.5; });
  EXPECT_EQ(r.best_id, 0);
  EXPECT_DOUBLE_EQ(r.best_distance, 0.5);
}

TEST(VpTreeTest, DuplicatePointsHandled) {
  std::vector<std::vector<double>> pts(20, std::vector<double>{1.0, 1.0});
  pts[13] = {5.0, 5.0};
  VpTree tree(pts, 3);
  const std::vector<double> q = {5.1, 5.1};
  const Nn r = NearestNeighbor(tree, q, [&](int id) {
    return L2(pts[static_cast<std::size_t>(id)], q);
  });
  EXPECT_EQ(r.best_id, 13);
}

TEST(VpTreeTest, CounterChargesMetricEvals) {
  Rng rng(4);
  const auto pts = RandomPoints(&rng, 64, 8);
  VpTree tree(pts, 5);
  const auto q = RandomPoints(&rng, 1, 8)[0];
  StepCounter counter;
  const Nn r = NearestNeighbor(
      tree, q,
      [&](int id) { return L2(pts[static_cast<std::size_t>(id)], q); },
      &counter);
  EXPECT_GT(r.metric_evals, 0u);
  EXPECT_EQ(counter.steps, r.metric_evals * 8);
}

/// The caller's threshold alone decides what is visited: with a fixed
/// radius, every point whose metric distance is below it is visited
/// exactly once and nothing else is (a range query under a pure metric).
TEST(VpTreeTest, FixedThresholdVisitsExactlyThePointsInside) {
  Rng rng(5);
  const auto pts = RandomPoints(&rng, 200, 3);
  VpTree tree(pts, 9);
  const auto q = RandomPoints(&rng, 1, 3)[0];
  const double radius = 1.0;
  std::vector<int> visited;
  const auto visit = [&](int id) {
    visited.push_back(id);
    return true;
  };
  tree.Search(q, [&] { return radius; }, visit);
  std::vector<int> inside;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (L2(pts[i], q) < radius) inside.push_back(static_cast<int>(i));
  }
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, inside);
  EXPECT_FALSE(inside.empty());
}

/// A visit returning false ends the traversal at once.
TEST(VpTreeTest, VisitCanStopTheTraversal) {
  Rng rng(6);
  const auto pts = RandomPoints(&rng, 100, 4);
  VpTree tree(pts, 3);
  const auto q = RandomPoints(&rng, 1, 4)[0];
  int visits = 0;
  const auto unbounded = [] { return std::numeric_limits<double>::infinity(); };
  tree.Search(q, unbounded, [&](int) { return ++visits < 5; });
  EXPECT_EQ(visits, 5);
}

}  // namespace
}  // namespace rotind
