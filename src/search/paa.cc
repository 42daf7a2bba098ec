#include "src/search/paa.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rotind {
namespace {

/// Start of segment d for an n-point series split into `dims` segments.
std::size_t SegmentStart(std::size_t n, std::size_t dims, std::size_t d) {
  return d * n / dims;
}

}  // namespace

PaaPoint PaaTransform(const Series& s, std::size_t dims) {
  const std::size_t n = s.size();
  assert(dims >= 1 && dims <= n);
  PaaPoint out;
  out.values.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const std::size_t lo = SegmentStart(n, dims, d);
    const std::size_t hi = SegmentStart(n, dims, d + 1);
    double acc = 0.0;
    for (std::size_t i = lo; i < hi; ++i) acc += s[i];
    out.values[d] = acc / static_cast<double>(hi - lo);
  }
  return out;
}

PaaEnvelope PaaReduceEnvelope(const Envelope& env, std::size_t dims) {
  const std::size_t n = env.size();
  assert(dims >= 1 && dims <= n);
  PaaEnvelope out;
  out.upper.resize(dims);
  out.lower.resize(dims);
  out.segment_sizes.resize(dims);
  for (std::size_t d = 0; d < dims; ++d) {
    const std::size_t lo = SegmentStart(n, dims, d);
    const std::size_t hi = SegmentStart(n, dims, d + 1);
    double u = env.upper[lo];
    double l = env.lower[lo];
    for (std::size_t i = lo + 1; i < hi; ++i) {
      u = std::max(u, env.upper[i]);
      l = std::min(l, env.lower[i]);
    }
    out.upper[d] = u;
    out.lower[d] = l;
    out.segment_sizes[d] = hi - lo;
  }
  return out;
}

double LbPaa(const PaaPoint& c, const PaaEnvelope& env, StepCounter* counter) {
  assert(c.dims() == env.dims());
  double acc = 0.0;
  for (std::size_t d = 0; d < c.values.size(); ++d) {
    const double v = c.values[d];
    double diff = 0.0;
    if (v > env.upper[d]) {
      diff = v - env.upper[d];
    } else if (v < env.lower[d]) {
      diff = v - env.lower[d];
    }
    acc += static_cast<double>(env.segment_sizes[d]) * diff * diff;
  }
  AddSteps(counter, c.values.size());
  if (counter != nullptr) ++counter->lower_bound_evals;
  return std::sqrt(acc);
}

}  // namespace rotind
