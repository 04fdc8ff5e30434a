// Execution node: one operator of a hosted query running as a scheduler
// task. Batches arrive on a bounded input channel (credits flow back once
// ingested); emissions route to downstream execution nodes' channels or, at
// the root, to the site's result sink. A full downstream channel pauses the
// node (pending emissions are stashed, kBlocked) until the credit grant
// wakes it.
//
// Tuple buffers travel with the data: the buffer of a consumed input batch
// becomes the node's next output buffer, a pass-through operator swaps its
// pending buffer into it, and the last out-edge's batch takes it along.
// Under measured accounting, a slice that neither delivers results nor
// fans out takes no site lock.
#ifndef THEMIS_SERVER_EXEC_NODE_H_
#define THEMIS_SERVER_EXEC_NODE_H_

#include <atomic>
#include <deque>
#include <vector>

#include "common/time_types.h"
#include "runtime/batch.h"
#include "runtime/query_graph.h"
#include "server/channel.h"
#include "server/scheduler.h"

namespace themis {

/// Services an execution node needs from the site that hosts it. Implemented
/// by ServerPipeline; all methods are thread-safe.
class ServerSite {
 public:
  virtual ~ServerSite() = default;
  /// Current time on the site clock (microseconds).
  virtual SimTime Now() const = 0;
  /// Window-closing watermark: min(now - grace, oldest queued IB batch).
  /// Lock-free.
  virtual SimTime Watermark() const = 0;
  /// Adds modeled work (already divided by cpu_speed) to the site's busy
  /// accounting. No-op under measured accounting.
  virtual void ChargeModeled(double work_us) = 0;
  /// Adds measured busy time from a task slice. No-op under modeled
  /// accounting. Lock-free.
  virtual void RecordMeasuredBusy(SimDuration busy_us) = 0;
  /// Delivers root-operator emissions to the query's result sink.
  virtual void DeliverResult(QueryId query, const std::vector<Tuple>& results,
                             SimTime now) = 0;
  /// An empty batch from the site pool.
  virtual Batch AcquireBatch() = 0;
  /// True when busy time is measured from the wall clock (real runs) rather
  /// than modeled from operator costs (oracle runs).
  virtual bool measured_accounting() const = 0;
  virtual double cpu_speed() const = 0;
};

/// \brief One operator of one query as a schedulable task.
class ExecNode : public Task {
 public:
  ExecNode(ServerSite* site, Scheduler* sched, const QueryGraph* graph,
           OperatorId op, size_t channel_capacity);

  /// Wires downstream edges; `by_op[op_id]` maps every operator of the same
  /// query to its execution node. Must be called before Start.
  void set_peers(const std::vector<ExecNode*>& by_op) { peers_ = by_op; }

  BatchChannel* input() { return &input_; }
  OperatorId op_id() const { return op_id_; }

  /// Wakes the node for a cost-charged run (batch admission propagated work;
  /// mirrors the DES charging consumer ingests during ExecuteBatch).
  void NotifyCharged();
  /// Wakes the node for an uncharged run (shed-tick window pump; mirrors the
  /// DES PumpGraph(hs, nullptr)).
  void NotifyUncharged();

  RunStatus RunSlice() override;

 private:
  /// Re-pushes stashed emissions; false while still blocked.
  bool FlushPending();
  /// Routes `out_` along the operator's out-edges (or to the result sink
  /// at the root); false if any push blocked (remainder stashed). The last
  /// out-edge's batch takes `out_`'s buffer; earlier edges copy into pool
  /// batches.
  bool RouteOutputs(bool charged);

  ServerSite* site_;
  Scheduler* sched_;
  const QueryGraph* graph_;
  OperatorId op_id_;
  BatchChannel input_;
  std::vector<ExecNode*> peers_;
  // Set by NotifyCharged, consumed by the next slice. Charged and uncharged
  // wakeups never race in oracle runs (the driver serializes instants); in
  // real runs the flag only affects modeled accounting, which is off.
  std::atomic<bool> next_charged_{false};
  // Emissions that found a full downstream channel, in push order.
  struct PendingPush {
    BatchChannel* channel;
    Batch batch;
  };
  std::deque<PendingPush> pending_;
  // Output buffer of the next Advance: the buffer of a consumed input batch
  // whenever the previous one left with an emission.
  std::vector<Tuple> out_;
};

}  // namespace themis

#endif  // THEMIS_SERVER_EXEC_NODE_H_
