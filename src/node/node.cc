#include "node/node.h"

#include <algorithm>
#include <iterator>
#include <string>

#include "common/logging.h"

namespace themis {

Node::Node(NodeId id, NodeOptions options, EventQueue* queue,
           BatchRouter* router, std::unique_ptr<Shedder> shedder)
    : id_(id),
      options_(options),
      queue_(queue),
      router_(router),
      site_(options, std::move(shedder), &hosted_) {}

Status Node::HostFragment(const QueryGraph* graph, FragmentId fragment) {
  if (graph->id() < 0) {
    return Status::InvalidArgument("query id " + std::to_string(graph->id()) +
                                   " is negative");
  }
  HostedState& hs = hosted_.Get(graph->id());
  auto pos = std::lower_bound(hs.fragments.begin(), hs.fragments.end(),
                              fragment);
  if (pos == hs.fragments.end() || *pos != fragment) {
    hs.fragments.insert(pos, fragment);
  }

  // Rebuild the flattened pump order and hosted-operator flags from the
  // fragment set (ascending fragments, topo order within a fragment).
  hs.graph = graph;
  hs.pump_ops.clear();
  hs.hosted_op.assign(graph->num_operators(), 0);
  for (FragmentId frag : hs.fragments) {
    for (OperatorId op : graph->fragment_ops(frag)) {
      hs.pump_ops.push_back(op);
      hs.hosted_op[op] = 1;
    }
  }
  return Status::OK();
}

void Node::UnhostQuery(QueryId q) {
  hosted_.Reset(q);
  site_.RemoveQuery(q);
}

void Node::ArmShedTimer(SimTime at) {
  shed_timer_armed_ = true;
  shed_next_at_ = at;
  queue_->Schedule(at, [this, gen = generation_] { OnShedTimer(gen); });
}

void Node::Start() {
  if (started_) return;
  started_ = true;
  if (alive_) {
    ArmShedTimer(queue_->now() + options_.shed_interval);
  }
}

void Node::MigrateQueue(EventQueue* queue) {
  if (queue == queue_) return;
  queue_ = queue;
  // Neuter every timer event still queued on the old shard, then re-arm the
  // live chains here at their original deadlines: the tick sequence is the
  // same as if the node had always lived on this shard.
  ++generation_;
  if (shed_timer_armed_) {
    // Re-armed even while crashed: the pending pre-crash tick owns the
    // armed flag, and its re-homed copy clears it exactly like the stale
    // original would have (Restore then re-arms as usual).
    queue_->Schedule(shed_next_at_,
                     [this, gen = generation_] { OnShedTimer(gen); });
  }
  if (processing_scheduled_) {
    queue_->Schedule(processing_at_,
                     [this, gen = generation_] { ProcessNext(gen); });
  }
}

void Node::Crash() {
  if (!alive_) return;
  alive_ = false;
  // The input buffer drains straight back to the pool: in-flight state dies
  // with the node, but its buffers recycle (nothing leaks, nothing is
  // double-released — a popped batch is never in the buffer).
  site_.stats().tuples_dropped_dead += site_.ib().Clear();
}

void Node::Restore() {
  if (alive_) return;
  alive_ = true;
  if (started_ && !shed_timer_armed_) {
    ArmShedTimer(queue_->now() + options_.shed_interval);
  }
}

void Node::Receive(Batch batch) {
  if (!alive_) {
    // Crashed: the delivery dies on the doorstep. Not counted as received —
    // a dead node observes nothing — but the buffer still recycles.
    site_.stats().batches_dropped_dead += 1;
    site_.stats().tuples_dropped_dead += batch.size();
    site_.pool().Release(std::move(batch));
    return;
  }
  SimTime now = queue_->now();
  HostedState* hs = hosted_.Hosted(batch.header.query_id);
  // Offered-load accounting (before admission: shed tuples still count —
  // the placement signal should see demand, not the shedder's verdict).
  if (hs != nullptr && options_.track_arrivals) {
    if (!hs->arrivals) {
      hs->arrivals = std::make_unique<StwTracker>(options_.stw);
    }
    hs->arrivals->AddResultSic(now, static_cast<double>(batch.size()));
  }
  if (site_.Ingest(std::move(batch), now, hs)) ScheduleProcessing();
}

void Node::UpdateQuerySic(QueryId query, double sic) {
  if (query < 0) return;  // no coordinator disseminates for such an id
  hosted_.Get(query).SetSic(sic);
}

std::optional<double> Node::KnownQuerySic(QueryId q) const {
  const HostedState* row = hosted_.Find(q);
  if (row == nullptr || !row->has_sic) return std::nullopt;
  return row->sic;
}

size_t Node::CurrentCapacity() const { return site_.EstimateCapacity(); }

double Node::AcceptedSic(QueryId q, SimTime now) {
  HostedState* row = hosted_.Find(q);
  return row == nullptr || !row->accepted
             ? 0.0
             : row->accepted->tracker.QuerySic(now);
}

double Node::ArrivalTuplesStw(QueryId q, SimTime now) {
  HostedState* row = hosted_.Find(q);
  return row == nullptr || !row->arrivals ? 0.0 : row->arrivals->RawSum(now);
}

double Node::OfferedLoadUs(QueryId q, SimTime now) {
  // PerTupleUs() is measured from interval busy time, which already folds
  // in cpu_speed — the product is simulated processing-µs directly.
  return ArrivalTuplesStw(q, now) * site_.cost_model().PerTupleUs();
}

double Node::OfferedLoadUs(SimTime now) {
  double total = 0.0;
  for (HostedState& row : hosted_) {
    if (row.arrivals) total += row.arrivals->RawSum(now);
  }
  return total * site_.cost_model().PerTupleUs();
}

double Node::AcceptedSicTotal(QueryId q) const {
  const HostedState* row = hosted_.Find(q);
  return row == nullptr || !row->accepted ? 0.0 : row->accepted->total_sic;
}

uint64_t Node::AcceptedTuplesTotal(QueryId q) const {
  const HostedState* row = hosted_.Find(q);
  return row == nullptr || !row->accepted ? 0 : row->accepted->total_tuples;
}

std::vector<QueryId> Node::HostedQueries() const {
  std::vector<QueryId> out;
  for (size_t q = 0; q < hosted_.size(); ++q) {
    if (hosted_[q].graph != nullptr) out.push_back(static_cast<QueryId>(q));
  }
  return out;
}

void Node::ScheduleProcessing() {
  if (processing_scheduled_ || site_.ib().empty()) return;
  processing_scheduled_ = true;
  SimTime at = std::max(queue_->now(), busy_until_);
  processing_at_ = at;
  queue_->Schedule(at, [this, gen = generation_] { ProcessNext(gen); });
}

void Node::ProcessNext(uint64_t gen) {
  if (gen != generation_) return;  // stale event from before a migration
  processing_scheduled_ = false;
  SimTime now = queue_->now();
  if (now < busy_until_) {
    // A shed pass or re-schedule raced us; resume when the CPU frees up.
    ScheduleProcessing();
    return;
  }
  std::optional<Batch> batch = site_.ib().Pop();
  if (!batch) return;

  QueryId q = batch->header.query_id;
  site_.Admit(hosted_.Get(q), q, now, batch->header.sic, batch->size());
  SimDuration work = static_cast<SimDuration>(ExecuteBatch(*batch));
  busy_until_ = now + work;
  site_.ChargeBusy(work);
  site_.pool().Release(std::move(*batch));

  ScheduleProcessing();
}

double Node::ExecuteBatch(const Batch& batch) {
  const HostedState* hs = hosted_.Hosted(batch.header.query_id);
  if (hs == nullptr) {
    THEMIS_LOG(Warn) << "node " << id_ << ": batch for unknown query "
                     << batch.header.query_id;
    return 0.0;
  }
  Operator* target = hs->graph->op(batch.header.dest_op);
  if (target == nullptr) return 0.0;

  double work_us =
      static_cast<double>(batch.size()) * target->cost_us_per_tuple() /
      options_.cpu_speed;
  if (batch.is_columnar()) {
    const ColumnarBlock& block = *batch.columnar;
    // Short-circuit the block past stateless pass-throughs on a linear
    // chain: a pass-through's pending buffer is always empty here (PumpGraph
    // flushes it in topo order every event), and requiring the consumer to
    // have in-degree 1 means no other producer could observe the skipped
    // hop's timing — so handing the block straight to the first stateful
    // operator is unobservable. Each skipped hop still charges its ingest
    // cost with the same arithmetic the row path performs.
    Operator* op = target;
    int port = batch.header.dest_port;
    while (op->IsStatelessPassThrough() && op->id() != hs->graph->root()) {
      const std::vector<Edge>& edges = hs->graph->out_edges(op->id());
      if (edges.size() != 1) break;
      const Edge& e = edges[0];
      if (hs->hosted_op[e.to] == 0 || hs->graph->in_degree(e.to) != 1) break;
      Operator* next = hs->graph->op(e.to);
      work_us += static_cast<double>(block.rows()) *
                 next->cost_us_per_tuple() / options_.cpu_speed;
      op = next;
      port = e.port;
    }
    op->IngestColumnar(block, port);
  } else {
    target->Ingest(batch.tuples, batch.header.dest_port);
  }
  PumpGraph(*hs, &work_us);
  return work_us;
}

void Node::PumpGraph(const HostedState& hs, double* work_us) {
  const QueryGraph* graph = hs.graph;
  SimTime wm = site_.Watermark(queue_->now());
  // pump_ops stores hosted fragments' operators topologically, so one pass
  // suffices for chains within a fragment: upstream emissions are ingested
  // (and re-advanced) before downstream operators are visited.
  for (OperatorId op_id : hs.pump_ops) {
    Operator* op = graph->op(op_id);
    // Reuse one scratch buffer for all pumped operators: RouteOutputs
    // finishes synchronously (consumers copy on Ingest) before the next
    // operator overwrites it.
    scratch_outputs_.clear();
    op->Advance(wm, &scratch_outputs_);
    if (!scratch_outputs_.empty()) {
      RouteOutputs(hs, op_id, scratch_outputs_, work_us);
    }
  }
}

void Node::RouteOutputs(const HostedState& hs, OperatorId op,
                        const std::vector<Tuple>& outputs, double* work_us) {
  SimTime now = queue_->now();
  const QueryGraph* graph = hs.graph;

  if (op == graph->root()) {
    router_->DeliverResult(graph->id(), now, outputs);
    return;
  }

  for (const Edge& e : graph->out_edges(op)) {
    if (hs.hosted_op[e.to] != 0) {
      Operator* consumer = graph->op(e.to);
      if (work_us != nullptr) {
        *work_us += static_cast<double>(outputs.size()) *
                    consumer->cost_us_per_tuple() / options_.cpu_speed;
      }
      consumer->Ingest(outputs, e.port);
    } else {
      Batch b = BuildBatch(graph->id(), e.to, e.port, now, outputs);
      router_->RouteBatch(id_, graph->id(), graph->fragment_of(e.to),
                          std::move(b));
    }
  }
}

Batch Node::BuildBatch(QueryId query, OperatorId op, int port, SimTime created,
                       const std::vector<Tuple>& tuples) {
  Batch b = site_.pool().Acquire();
  b.header.query_id = query;
  b.header.dest_op = op;
  b.header.dest_port = port;
  b.header.created = created;
  b.tuples.assign(tuples.begin(), tuples.end());
  b.RefreshHeaderSic();
  return b;
}

void Node::OnShedTimer(uint64_t gen) {
  if (gen != generation_) return;  // stale event from before a migration
  if (!alive_) {
    // Crashed between ticks: let the timer chain die (Restore re-arms it).
    shed_timer_armed_ = false;
    return;
  }
  SimTime now = queue_->now();
  telemetry::TraceScope span("node.shed_tick");
  site_.RollInterval();

  // Close windows that became due even if no batch arrived lately.
  for (const HostedState& hs : hosted_) {
    if (hs.graph != nullptr) PumpGraph(hs, nullptr);
  }

  // Capture operator checkpoints right after the pump, when released panes
  // have left the state (minimal re-emission on restore). Zero simulated
  // cost, like telemetry: the event schedule is identical with the feature
  // on or off, so seq == parsim@1 and run-to-run identity still hold.
  if (ckpt_config_.enabled && now >= ckpt_next_due_) {
    ckpt_next_due_ = now + ckpt_config_.cadence;
    for (const HostedState& hs : hosted_) {
      if (hs.graph == nullptr) continue;
      for (OperatorId oid : hs.pump_ops) {
        MaybeCheckpointOperator(hs.graph->op(oid), hs.graph->id(), now,
                                ckpt_config_.error_bound, &ckpt_store_);
      }
    }
  }

  site_.DetectAndShed(now, site_.EstimateCapacity());
  telemetry::Telemetry* tel = telemetry::Get();
  if (tel != nullptr && ckpt_config_.enabled) {
    ckpt_telemetry_.Publish(tel, ckpt_store_);
  }
  ArmShedTimer(now + options_.shed_interval);
}

}  // namespace themis
