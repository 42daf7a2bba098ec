#ifndef ROTIND_SEARCH_PAA_H_
#define ROTIND_SEARCH_PAA_H_

#include <cstddef>
#include <vector>

#include "src/core/series.h"
#include "src/core/step_counter.h"
#include "src/envelope/envelope.h"

namespace rotind {

/// Piecewise Aggregate Approximation: the series is divided into `dims`
/// equal-width segments and each segment is replaced by its mean. This is
/// the dimensionality-reduction used by the exact DTW-indexing machinery of
/// the paper's references [16] and [37], which the paper invokes for its
/// index-space lower bound under DTW.
struct PaaPoint {
  std::vector<double> values;
  std::size_t dims() const { return values.size(); }
};

/// Segment boundaries used by all PAA routines: segment d covers
/// [d*n/dims, (d+1)*n/dims).
PaaPoint PaaTransform(const Series& s, std::size_t dims);

/// PAA reduction of an envelope: per segment, the max of U (upper) and the
/// min of L (lower). Applied to a band-expanded wedge envelope this yields
/// a D-dimensional envelope that still encloses every candidate rotation.
struct PaaEnvelope {
  std::vector<double> upper;
  std::vector<double> lower;
  /// Number of raw points in each segment (needed by the bound).
  std::vector<std::size_t> segment_sizes;
  std::size_t dims() const { return upper.size(); }
};

PaaEnvelope PaaReduceEnvelope(const Envelope& env, std::size_t dims);

/// LB_PAA (refs [16][37]): for a candidate PAA point c and a reduced
/// envelope {Û, L̂},
///
///   LB_PAA(c, env)^2 = sum_d |seg_d| * ( (c_d - Û_d)^2 if c_d > Û_d
///                                        (c_d - L̂_d)^2 if c_d < L̂_d
///                                        0 otherwise )
///
/// lower-bounds LB_Keogh (and hence ED / banded DTW) between the raw series
/// and every sequence inside the raw envelope. Charges `dims` steps.
double LbPaa(const PaaPoint& c, const PaaEnvelope& env,
             StepCounter* counter = nullptr);

}  // namespace rotind

#endif  // ROTIND_SEARCH_PAA_H_
