// The §6 shed loop of one THEMIS site (Fig. 5), shared by the discrete-event
// Node and the real-time ServerPipeline. It owns the input buffer and its
// batch pool, Eq. (1) ingress stamping, admission accounting, the cost model,
// the overload detector and the shedder. Each runtime keeps its executor
// (event timers or worker threads), its locking and its window pump, and
// calls these steps in the same order: ingest, admit + charge busy time,
// then per tick RollInterval, pump, DetectAndShed. That shared sequence is
// what lets a kModeled server run reproduce the DES bit for bit.
#ifndef THEMIS_NODE_SHED_CONTROLLER_H_
#define THEMIS_NODE_SHED_CONTROLLER_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "common/time_types.h"
#include "node/input_buffer.h"
#include "node/query_row.h"
#include "node/sic_stamper.h"
#include "node/telemetry_hooks.h"
#include "runtime/batch_pool.h"
#include "shedding/cost_model.h"
#include "shedding/overload_detector.h"
#include "shedding/shedder.h"

namespace themis {

/// Settings every site runtime shares; defaults reproduce the paper (§7).
struct SiteOptions {
  /// Tuple shedder invocation period (paper default: 250 ms).
  SimDuration shed_interval = Millis(250);
  /// Source time window used for Eq. (1) SIC stamping (paper default: 10 s).
  SimDuration stw = Seconds(10);
  /// Relative CPU speed; operator costs divide by this (heterogeneity).
  double cpu_speed = 1.0;
  /// Watermark lag for window closing (late-data tolerance).
  SimDuration window_grace = Millis(200);
  /// Overload detector headroom multiplier (1.0 = paper behaviour).
  double headroom = 1.0;
};

/// Per-site counters exposed to experiments and tests.
struct SiteStats {
  uint64_t tuples_received = 0;
  uint64_t tuples_processed = 0;  ///< admitted to execution
  uint64_t tuples_shed = 0;
  uint64_t batches_received = 0;
  uint64_t batches_processed = 0;
  uint64_t batches_shed = 0;
  uint64_t shed_invocations = 0;     ///< ticks that shed something
  uint64_t detector_invocations = 0; ///< all ticks
  uint64_t batches_dropped_dead = 0; ///< in-flight arrivals while crashed
  uint64_t tuples_dropped_dead = 0;  ///< incl. the buffer drained at crash
  SimDuration busy_time = 0;
  size_t last_capacity = 0;
};

/// \brief Site state and shed-tick steps of one THEMIS node.
///
/// Not thread-safe: the server calls it under its site lock, the Node from
/// single-threaded event callbacks.
class ShedController {
 public:
  /// \param shedder shedding policy (BALANCE-SIC or random); owned
  /// \param rows the runtime's per-query table; not owned, must outlive this
  ShedController(const SiteOptions& options, std::unique_ptr<Shedder> shedder,
                 QueryRows* rows);

  /// Ingress: counts the arrival, then stamps it with Eq. (1) SIC and
  /// buffers it if `hosted` (its query's row, null when the query is not
  /// hosted) — else recycles it. Returns whether the batch was buffered.
  bool Ingest(Batch batch, SimTime now, const QueryRow* hosted);
  /// Query undeployment: drops the query's rate estimates and buffered batches.
  void RemoveQuery(QueryId q);
  /// Windows may close `window_grace` behind the clock, but never past the
  /// creation time of the oldest batch still buffered: closing a window
  /// while one input stream's batches for it still queue would starve
  /// multi-input operators under overload.
  SimTime Watermark(SimTime now) const {
    return std::min(now - options_.window_grace, OldestBuffered());
  }
  /// Creation time of the oldest buffered batch; kNothingBuffered when the
  /// IB is empty.
  SimTime OldestBuffered() const {
    return ib_.empty() ? kNothingBuffered
                       : ib_.batches().front().header.created;
  }
  static constexpr SimTime kNothingBuffered =
      std::numeric_limits<SimTime>::max();
  /// Admission accounting of one batch popped from the IB for execution.
  void Admit(QueryRow& row, QueryId q, SimTime now, double sic,
             uint64_t tuples);
  /// Charges processing time to the cost model's current interval.
  void ChargeBusy(SimDuration busy);

  /// Tick, first half: counts the tick and feeds the cost model the closed
  /// interval's measurements.
  void RollInterval();
  /// Capacity c: tuples processable within one shedding interval.
  size_t EstimateCapacity() const;
  /// Tick, second half (after the window pump): refreshes the per-query
  /// efficiency estimates, asks the detector for a verdict against
  /// `capacity` and, when overloaded, lets the shedder prune the IB.
  /// Returns the verdict.
  bool DetectAndShed(SimTime now, size_t capacity);

  InputBuffer& ib() { return ib_; }
  const InputBuffer& ib() const { return ib_; }
  BatchPool& pool() { return pool_; }
  const CostModel& cost_model() const { return cost_model_; }
  SiteStats& stats() { return stats_; }
  const SiteStats& stats() const { return stats_; }

 private:
  SiteOptions options_;
  std::unique_ptr<Shedder> shedder_;
  QueryRows* rows_;

  InputBuffer ib_;
  BatchPool pool_;
  CostModel cost_model_;
  OverloadDetector detector_;
  SicStamper stamper_;
  // Reused per overloaded tick; indexed by QueryId (see ShedContext).
  std::vector<double> query_sic_snapshot_;
  std::vector<double> accepted_snapshot_;
  // Cached per-query telemetry counters (no-op unless installed).
  QueryTelemetry query_telemetry_;
  // Batch-pool occupancy/recycle export, published once per tick.
  PoolTelemetry pool_telemetry_;
  // Cost-model interval accounting.
  uint64_t interval_tuples_ = 0;
  SimDuration interval_busy_ = 0;
  SiteStats stats_;
};

}  // namespace themis

#endif  // THEMIS_NODE_SHED_CONTROLLER_H_
