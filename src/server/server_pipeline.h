// The real-time THEMIS runtime: one site running hosted queries as a live
// multi-threaded pipeline around the same ShedController as the
// discrete-event Node — but off a real (or manually advanced) clock, with
// the controller guarded by the site lock. Sources Push() batches from any
// thread; the ingress task admits them; execution nodes process them under
// credit-based backpressure; a shed-timer tick prunes the input buffer as
// §6 prescribes. Execution nodes read the window watermark and record
// measured busy time without the site lock: the site publishes the input
// buffer's oldest creation time to an atomic whenever the buffer changes,
// and measured busy time collects in an atomic that is folded into the
// controller before each interval rollover and wherever it is read.
//
// Two accounting modes:
//  - kMeasured (real runs): busy time is measured per task slice on the
//    wall clock, capacity scales with the worker count, and admission is
//    unpaced (the CPU itself is the pacer).
//  - kModeled (oracle runs): busy time is computed from operator costs
//    exactly as the DES does, and admission is paced on the modeled
//    busy-until — with a ManualClock and 0 workers the pipeline reproduces
//    the DES schedule, which tests exploit to compare accepted-SIC totals
//    bit for bit.
#ifndef THEMIS_SERVER_SERVER_PIPELINE_H_
#define THEMIS_SERVER_SERVER_PIPELINE_H_

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/time_types.h"
#include "node/query_row.h"
#include "node/shed_controller.h"
#include "runtime/checkpoint.h"
#include "runtime/clock.h"
#include "runtime/query_graph.h"
#include "server/exec_node.h"
#include "shedding/shedder.h"

namespace themis {

/// How the cost model's busy time is obtained.
enum class CostAccounting {
  /// Wall-clock measured per task slice (real runs).
  kMeasured,
  /// Computed from operator costs like the DES (oracle runs).
  kModeled,
};

/// Server configuration; the shedding settings are the Node's (§7).
struct ServerOptions : SiteOptions {
  /// Worker threads; 0 = caller-driven deterministic mode (RunUntilIdle).
  size_t workers = 4;
  /// Credits per execution-node input channel.
  size_t channel_capacity = 64;
  CostAccounting accounting = CostAccounting::kMeasured;
  /// Gate admission on the modeled busy-until (oracle mode only).
  bool pace_admission = false;
  /// Feed result SIC back into the shedder at ticks (local stand-in for
  /// coordinator dissemination, §5.2). Off in oracle mode: the DES twin has
  /// no coordinator either.
  bool disseminate_sic = true;
  /// Source backpressure: Push() blocks while the input buffer holds >=
  /// `ib_high_watermark` tuples until it drains to <= `ib_low_watermark`.
  /// 0 disables blocking (overload lands in the IB and the shedder).
  size_t ib_high_watermark = 0;
  size_t ib_low_watermark = 0;
};

/// Per-server counters: the Node's, with the dead-node fields left at 0.
using ServerStats = SiteStats;

/// \brief A live single-site pipeline hosting whole queries.
class ServerPipeline : private ServerSite {
 public:
  /// \param clock not owned; must outlive the pipeline
  /// \param shedder shedding policy (BALANCE-SIC or random); owned
  ServerPipeline(ServerOptions options, Clock* clock,
                 std::unique_ptr<Shedder> shedder);
  ~ServerPipeline() override;

  /// Hosts every fragment of `graph` on this site; the graph must outlive
  /// the pipeline. InvalidArgument for a negative query id,
  /// FailedPrecondition once started (the ingress reads the query table
  /// without the lock).
  Status AddQuery(const QueryGraph* graph);

  /// Spawns workers and the shed ticker (with workers > 0); arms the first
  /// tick at clock + shed_interval either way.
  void Start();
  /// Stops ticker and workers, wakes blocked sources. Idempotent.
  void Stop();

  /// Source ingress from any thread: stamps Eq. (1) SIC, buffers in the IB,
  /// wakes the ingress task. Blocks per the IB watermarks when configured.
  /// Returns false (dropping the batch) after Stop.
  bool Push(Batch batch);

  // --- Deterministic driving (workers == 0) ---------------------------
  /// Sentinel for "no pending admission".
  static constexpr SimTime kNever = -1;
  /// Wakes the ingress task (e.g. after advancing a ManualClock).
  void NotifyIngress();
  /// Drains the runnable queue on the calling thread.
  void RunUntilIdle();
  /// Blocks until workers drained the runnable queue (workers > 0). With
  /// pace_admission the ticker is not spawned, so a driver can alternate
  /// Push/NotifyIngress/Quiesce with ManualClock advances and DriveTick
  /// for a deterministic run on real worker threads.
  void WaitIdle();
  /// WaitIdle with workers, RunUntilIdle without.
  void Quiesce();
  /// Time the next batch admission may happen (kNever if the IB is empty
  /// and nothing is staged).
  SimTime NextAdmissionTime() const;
  /// Time of the next shed tick.
  SimTime NextTickTime() const;
  /// Runs one shed tick on the calling thread: interval rollover, window
  /// pump (drained to idle), checkpoint capture, then detection/shedding —
  /// the Node's tick order, with the pump quiescing in between.
  void DriveTick();

  // --- Checkpointing ----------------------------------------------------
  /// Shares the simulator's checkpoint seam: each DriveTick, once the
  /// window pump has quiesced, captures images of every hosted operator
  /// into `store` (not owned; must outlive the pipeline) at the configured
  /// cadence, skipping operators whose accumulated dirt is within
  /// `config.error_bound`. Caller-driven deterministic mode only
  /// (workers == 0, DriveTick on the driving thread): operator state is
  /// mutated by ExecNode slices outside mu_, so capture is safe only when
  /// no worker can be mid-slice.
  void EnableCheckpoints(CheckpointStore* store, CheckpointConfig config);
  /// The process-restart model: restores every hosted operator from the
  /// enabled store (operators without an image reset). Call before Start,
  /// after AddQuery — a fresh pipeline hosting the same graphs resumes
  /// from the last captured images.
  void RestoreHostedFromStore();

  // --- Introspection ---------------------------------------------------
  /// Snapshot of the counters, taken under the site lock (safe to call
  /// from any thread while the pipeline runs). `busy_time` includes the
  /// measured busy time not yet folded into the controller.
  ServerStats stats() const;
  const ServerOptions& options() const { return options_; }
  size_t CurrentCapacity() const;
  size_t ib_tuples() const;
  /// The window watermark execution nodes read: ShedController::Watermark
  /// from the published oldest creation time, without the site lock.
  SimTime Watermark() const override;
  /// ShedController::Watermark, taken under the site lock: the value the
  /// lock-free read stands in for.
  SimTime LockedWatermark() const;
  /// Cumulative admitted SIC/tuples since Start (oracle comparisons).
  double AcceptedSicTotal(QueryId q) const;
  uint64_t AcceptedTuplesTotal(QueryId q) const;
  /// Cumulative result SIC/tuples delivered by the root operator.
  double ResultSicTotal(QueryId q) const;
  uint64_t ResultTuplesTotal(QueryId q) const;

 private:
  class IngressTask;

  /// Per-query row (see node/query_row.h). The execution fields are
  /// written only before Start and read without the lock; the accounting
  /// fields are guarded by mu_.
  struct HostedQuery : QueryRow {
    /// Execution nodes indexed by OperatorId.
    std::vector<std::unique_ptr<ExecNode>> by_op;
    /// Pump order: fragments ascending, topological within a fragment
    /// (matches Node::HostFragment).
    std::vector<ExecNode*> pump;
    /// Result SIC delivered by the root operator, from the first result on.
    std::unique_ptr<SicAccount> results;
  };

  // ServerSite interface (thread-safe; called from task slices).
  SimTime Now() const override { return clock_->NowMicros(); }
  void ChargeModeled(double work_us) override;
  void RecordMeasuredBusy(SimDuration busy_us) override;
  void DeliverResult(QueryId query, const std::vector<Tuple>& results,
                     SimTime now) override;
  Batch AcquireBatch() override;
  bool measured_accounting() const override {
    return options_.accounting == CostAccounting::kMeasured;
  }
  double cpu_speed() const override { return options_.cpu_speed; }

  RunStatus IngressSlice();
  /// Capture pass behind EnableCheckpoints (DriveTick, pump quiesced).
  void MaybeCaptureCheckpoints();
  /// Adds modeled work to busy-until / interval accounting (mu_ held).
  void ChargeModeledLocked(double work_us);
  /// Charges the measured busy time recorded off the lock (mu_ held).
  void FoldMeasuredBusyLocked();
  /// Publishes the IB's oldest creation time for Watermark (mu_ held; call
  /// after every IB change).
  void PublishOldestBufferedLocked();
  /// Phase 1: cost-model interval rollover + uncharged window-pump wakeups.
  void TickPhase1();
  /// Phase 2: capacity, dissemination, detect + shed.
  void TickPhase2();
  void TickerLoop();
  void WakeSourcesIfDrainedLocked();

  ServerOptions options_;
  Clock* clock_;
  Scheduler sched_;

  mutable std::mutex mu_;  // site lock (site_ and the accounting fields)
  std::condition_variable source_cv_;
  /// Hosted queries, indexed by QueryId. Rows are created by AddQuery only,
  /// so the table never grows after Start.
  QueryTable<HostedQuery> queries_;
  /// IB, stamping, cost model, detector and shedder (reads queries_).
  ShedController site_;
  SimTime busy_until_ = 0;
  bool source_gate_closed_ = false;
  /// site_.OldestBuffered() as of the last IB change; read without mu_ by
  /// every slice. Its own cache line: the fields around it change on every
  /// admission, `unfolded_busy_` on every slice.
  alignas(64) std::atomic<SimTime> oldest_buffered_{
      ShedController::kNothingBuffered};
  /// Measured busy time recorded by task slices, not yet charged to site_.
  alignas(64) std::atomic<SimDuration> unfolded_busy_{0};
  /// Batch popped from the IB whose downstream push blocked; admission
  /// accounting happens only once it lands.
  std::optional<Batch> staged_;
  std::unique_ptr<IngressTask> ingress_;

  /// Checkpoint seam (EnableCheckpoints); null = off, the default.
  CheckpointStore* ckpt_store_ = nullptr;
  CheckpointConfig ckpt_config_;
  SimTime ckpt_next_ = 0;

  std::atomic<bool> stop_flag_{false};
  bool started_ = false;
  SimTime next_tick_ = 0;
  std::thread ticker_;
};

}  // namespace themis

#endif  // THEMIS_SERVER_SERVER_PIPELINE_H_
