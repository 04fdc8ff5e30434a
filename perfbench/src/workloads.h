// Entry points of the three benchmark workloads. Each fills `result` with
// its end-to-end metrics (untraced run) or per-layer metrics (traced run)
// and records its correctness checks.
#ifndef THEMIS_PERFBENCH_WORKLOADS_H_
#define THEMIS_PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

void RunDenseOverload(const Args& args, Result* result);
void RunWanChurn(const Args& args, Result* result);
void RunServerLive(const Args& args, Result* result);

}  // namespace perfbench

#endif  // THEMIS_PERFBENCH_WORKLOADS_H_
