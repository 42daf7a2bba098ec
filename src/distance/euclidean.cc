#include "src/distance/euclidean.h"

#include <cassert>
#include <cmath>
#include <cstdint>

#include "src/simd/simd.h"

namespace rotind {

double SquaredEuclidean(const double* a, const double* b, std::size_t n,
                        StepCounter* counter) {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  AddSteps(counter, n);
  return acc;
}

double EuclideanDistance(const Series& a, const Series& b,
                         StepCounter* counter) {
  assert(a.size() == b.size());
  return std::sqrt(SquaredEuclidean(a.data(), b.data(), a.size(), counter));
}

double EarlyAbandonSquaredEuclidean(const double* q, const double* c,
                                    std::size_t n, double squared_limit,
                                    StepCounter* counter) {
  if (counter != nullptr) ++counter->full_evals;
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = q[i] - c[i];
    acc += d * d;
    if (acc > squared_limit) {
      if (counter != nullptr) {
        counter->steps += i + 1;
        ++counter->early_abandons;
      }
      return kAbandoned;
    }
  }
  AddSteps(counter, n);
  return acc;
}

void SquaredEuclideanBlock(const double* q, const double* tile, std::size_t n,
                           std::size_t valid, double* out_sq,
                           StepCounter* counter) {
  simd::Kernels().ed_block_full(q, tile, n, out_sq);
  AddSteps(counter, valid * n);
}

double EarlyAbandonEuclidean(const double* q, const double* c, std::size_t n,
                             double limit, StepCounter* counter) {
  const double squared_limit =
      std::isinf(limit) ? limit : limit * limit;
  const double acc =
      EarlyAbandonSquaredEuclidean(q, c, n, squared_limit, counter);
  return std::isinf(acc) ? kAbandoned : std::sqrt(acc);
}

}  // namespace rotind
