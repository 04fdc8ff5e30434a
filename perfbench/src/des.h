// Driving the discrete-event federation (dense-overload, wan-churn): the
// benchmark owns every RunFor boundary, splits runs at a one-second
// simulated grid, and checks the federation's invariants at each boundary.
#ifndef THEMIS_PERFBENCH_DES_H_
#define THEMIS_PERFBENCH_DES_H_

#include <map>
#include <vector>

#include "common.h"
#include "federation/fsps.h"
#include "workload/sources.h"

namespace perfbench {

/// Aggregate outcome of one DES job (set-up plus run phase).
struct DesJob {
  double setup_s = 0.0;
  /// Run phase wall time: RunFor calls plus the control plane between
  /// them, without the benchmark's own checks.
  double run_s = 0.0;
  /// The timed pieces of run_s in order: RunFor segments and control-plane
  /// steps. Jobs of one seed cut the same pieces.
  std::vector<double> run_laps;
  double deploy_s = 0.0;        ///< Deploy / AttachSources / DeployQuery
  uint64_t plans = 0;
  uint64_t received = 0;        ///< tuples received by nodes
  uint64_t processed = 0;
  uint64_t shed = 0;
  uint64_t dropped_dead = 0;
  uint64_t events = 0;
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t replaced_fragments = 0;
  std::vector<double> final_sics;
  /// Heap allocations during the run phase (counting allocator only).
  uint64_t run_allocations = 0;
  themis::CheckpointStore::Stats ckpt;
  /// Source models as deployed, with each query's arrival time, for the
  /// generation replay.
  std::vector<std::pair<themis::SimTime, themis::SourceModel>> sources;
  themis::SimTime end_time = 0;
};

/// \brief Runs an Fsps forward between control-plane steps.
class DesRunner {
 public:
  DesRunner(themis::Fsps* fsps, Checks* checks, Spans* spans, DesJob* job);

  /// Runs to simulated time `t` in RunFor segments cut at whole simulated
  /// seconds, checking invariants after each segment.
  void AdvanceTo(themis::SimTime t);
  /// Applies `plan`, first booking the input-buffer contents of every node
  /// it crashes (they drain at the crash and stay in the node's received
  /// count).
  void ApplyPlan(themis::TopologyPlan plan,
                 const std::vector<themis::NodeId>& crashes);
  /// Marks the start / end of a control-plane step timed into run_s.
  void BeginControl() { run_clock_.Start(); }
  void EndControl() { run_clock_.Stop(); }
  /// Fills the job's final counters, SICs and run wall time.
  void Finish();

 private:
  void CheckBoundary();

  themis::Fsps* fsps_;
  Checks* checks_;
  Spans* spans_;
  DesJob* job_;
  Stopwatch run_clock_;
  uint64_t alloc_base_ = 0;
  /// Tuples resident in each node's input buffer when it crashed.
  std::map<themis::NodeId, uint64_t> drained_at_crash_;
};

/// Replays `job.sources` through public SourceDrivers on a private event
/// queue into a counting sink over the job's simulated span; returns wall
/// ns per generated tuple.
double ReplayGenerationNsPerTuple(const DesJob& job, bool columnar);

}  // namespace perfbench

#endif  // THEMIS_PERFBENCH_DES_H_
