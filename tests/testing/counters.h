#ifndef ROTIND_TESTS_TESTING_COUNTERS_H_
#define ROTIND_TESTS_TESTING_COUNTERS_H_

/// Assertions that two runs did the same deterministic work: every
/// StepCounter field, and every QueryMetrics count (wall-clock and latency
/// values excepted — they measure real time).

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "src/core/step_counter.h"
#include "src/obs/metrics.h"

namespace rotind {
namespace testing {

inline void ExpectCountersEqual(const StepCounter& a, const StepCounter& b,
                                const std::string& label) {
  EXPECT_EQ(a.steps, b.steps) << label;
  EXPECT_EQ(a.setup_steps, b.setup_steps) << label;
  EXPECT_EQ(a.lower_bound_evals, b.lower_bound_evals) << label;
  EXPECT_EQ(a.full_evals, b.full_evals) << label;
  EXPECT_EQ(a.early_abandons, b.early_abandons) << label;
}

/// Asserts the deterministic (non-wall-clock) counters of two metrics
/// aggregates are identical.
inline void ExpectSameCounters(const obs::QueryMetrics& a,
                               const obs::QueryMetrics& b,
                               const std::string& label) {
  EXPECT_EQ(a.queries, b.queries) << label;
  for (std::size_t i = 0; i < obs::kNumStages; ++i) {
    const obs::StageStats& sa = a.stages[i];
    const obs::StageStats& sb = b.stages[i];
    const std::string stage =
        label + "/" + obs::StageName(static_cast<obs::StageId>(i));
    EXPECT_EQ(sa.used, sb.used) << stage;
    EXPECT_EQ(sa.candidates_entered, sb.candidates_entered) << stage;
    EXPECT_EQ(sa.candidates_pruned, sb.candidates_pruned) << stage;
    EXPECT_EQ(sa.candidates_survived, sb.candidates_survived) << stage;
    EXPECT_EQ(sa.steps, sb.steps) << stage;
    EXPECT_EQ(sa.setup_steps, sb.setup_steps) << stage;
    EXPECT_EQ(sa.early_abandons, sb.early_abandons) << stage;
  }
  EXPECT_EQ(a.wedge.wedges_tested, b.wedge.wedges_tested) << label;
  EXPECT_EQ(a.wedge.wedges_pruned, b.wedge.wedges_pruned) << label;
  EXPECT_EQ(a.wedge.wedges_descended, b.wedge.wedges_descended) << label;
  EXPECT_EQ(a.wedge.leaves_evaluated, b.wedge.leaves_evaluated) << label;
  EXPECT_EQ(a.wedge.leaves_abandoned, b.wedge.leaves_abandoned) << label;
  EXPECT_EQ(a.wedge.adapt_probes, b.wedge.adapt_probes) << label;
  EXPECT_EQ(a.index.signature_evals, b.index.signature_evals) << label;
  EXPECT_EQ(a.index.object_fetches, b.index.object_fetches) << label;
  EXPECT_EQ(a.latency.count(), b.latency.count()) << label;
}

}  // namespace testing
}  // namespace rotind

#endif  // ROTIND_TESTS_TESTING_COUNTERS_H_
