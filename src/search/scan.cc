#include "src/search/scan.h"

#include "src/distance/dtw.h"

namespace rotind {

std::uint64_t AnalyticBruteForceSteps(std::uint64_t num_objects,
                                      std::size_t length,
                                      std::uint64_t rotations_per_object,
                                      DistanceKind kind, int band) {
  const std::uint64_t per_rotation =
      kind == DistanceKind::kEuclidean
          ? static_cast<std::uint64_t>(length)
          : DtwCellCount(length, band);
  return num_objects * rotations_per_object * per_rotation;
}

}  // namespace rotind
