// The repo benchmark program: runs one named workload for a given seed and
// wall-clock budget, prints the host record, every metric by name with its
// unit, the correctness checks, and a final one-line JSON result.
//
//   themis_perfbench --workload dense-overload|wan-churn|server-live
//                    --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Untraced runs (--trace 0) report the end-to-end metrics. Traced runs
// (--trace 1, built as themis_perfbench_traced with the counting
// allocator) report the per-layer metrics and write a Chrome trace.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "common/alloc_counter.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload dense-overload|wan-churn|server-live "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return Usage(argv[0]);
#ifdef PERFBENCH_COUNT_ALLOCS
  themis::ForceLinkAllocCounter();
#endif
  if (args.trace && !themis::AllocCounter::active()) {
    std::fprintf(stderr, "traced runs need the themis_perfbench_traced "
                         "binary (counting allocator)\n");
    return 2;
  }

  perfbench::Result result;
  perfbench::PrintHostRecord();
  std::printf("workload %s seed %llu seconds %.1f trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  if (args.workload == "dense-overload") {
    perfbench::RunDenseOverload(args, &result);
  } else if (args.workload == "wan-churn") {
    perfbench::RunWanChurn(args, &result);
  } else if (args.workload == "server-live") {
    perfbench::RunServerLive(args, &result);
  } else {
    return Usage(argv[0]);
  }
  if (args.trace && !args.trace_out.empty()) {
    if (!perfbench::WriteTrace(args.trace_out, result, args.seed)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %s\n", args.trace_out.c_str());
  }
  perfbench::PrintResult(args, result);
  return 0;
}
