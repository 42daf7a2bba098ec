#ifndef ROTBENCH_WORKLOADS_H_
#define ROTBENCH_WORKLOADS_H_

#include "rotbench/common.h"

namespace rotbench {

/// Each workload generates its inputs from args.seed, computes ground
/// truth, and then runs on the shared schedule of RunSchedule.
Result RunServeEd(const Args& args);
Result RunShardedRw(const Args& args);
Result RunBatch(const Args& args);

}  // namespace rotbench

#endif  // ROTBENCH_WORKLOADS_H_
