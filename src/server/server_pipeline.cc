#include "server/server_pipeline.h"

#include <algorithm>
#include <string>
#include <utility>

#include "runtime/operator.h"

namespace themis {

class ServerPipeline::IngressTask : public Task {
 public:
  explicit IngressTask(ServerPipeline* owner) : owner_(owner) {}
  RunStatus RunSlice() override { return owner_->IngressSlice(); }

 private:
  ServerPipeline* owner_;
};

ServerPipeline::ServerPipeline(ServerOptions options, Clock* clock,
                               std::unique_ptr<Shedder> shedder)
    : options_(options),
      clock_(clock),
      sched_(options.workers),
      site_(options, std::move(shedder), &queries_),
      ingress_(std::make_unique<IngressTask>(this)) {}

ServerPipeline::~ServerPipeline() { Stop(); }

Status ServerPipeline::AddQuery(const QueryGraph* graph) {
  if (graph->id() < 0) {
    return Status::InvalidArgument("query id " + std::to_string(graph->id()) +
                                   " is negative");
  }
  if (started_) {
    return Status::FailedPrecondition("AddQuery after Start");
  }
  HostedQuery& hq = queries_.Get(graph->id());
  hq.graph = graph;
  hq.by_op.resize(graph->num_operators());
  hq.pump.clear();
  // Pump order mirrors Node::HostFragment: fragments ascending, topological
  // order within a fragment — the order window pumps visit operators.
  for (size_t frag = 0; frag < graph->num_fragments(); ++frag) {
    for (OperatorId op :
         graph->fragment_ops(static_cast<FragmentId>(frag))) {
      hq.by_op[op] = std::make_unique<ExecNode>(static_cast<ServerSite*>(this),
                                                &sched_, graph, op,
                                                options_.channel_capacity);
      hq.pump.push_back(hq.by_op[op].get());
    }
  }
  std::vector<ExecNode*> peers(hq.by_op.size(), nullptr);
  for (size_t i = 0; i < hq.by_op.size(); ++i) peers[i] = hq.by_op[i].get();
  for (auto& node : hq.by_op) {
    if (node != nullptr) node->set_peers(peers);
  }
  return Status::OK();
}

void ServerPipeline::Start() {
  if (started_) return;
  started_ = true;
  stop_flag_.store(false, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_tick_ = clock_->NowMicros() + options_.shed_interval;
  }
  if (options_.workers > 0) {
    sched_.Start();
    // Paced (oracle) runs are tick-driven by the caller via DriveTick; a
    // free-running ticker would race the deterministic schedule.
    if (!options_.pace_admission) {
      ticker_ = std::thread([this] { TickerLoop(); });
    }
  }
}

void ServerPipeline::Stop() {
  if (!started_) return;
  stop_flag_.store(true, std::memory_order_release);
  clock_->Interrupt();
  {
    std::lock_guard<std::mutex> lock(mu_);
    source_cv_.notify_all();
  }
  if (ticker_.joinable()) ticker_.join();
  sched_.Stop();
  {
    std::lock_guard<std::mutex> lock(mu_);
    FoldMeasuredBusyLocked();
  }
  started_ = false;
}

bool ServerPipeline::Push(Batch batch) {
  // Ingest/stamp stage timing (kMeasured only: oracle runs on a manual
  // clock and must not read the wall clock on the data path).
  telemetry::Telemetry* tel = telemetry::Get();
  const bool timed = tel != nullptr && measured_accounting();
  uint64_t ingest_t0 = timed ? tel->tracer().NowMicros() : 0;
  std::unique_lock<std::mutex> lock(mu_);
  if (options_.ib_high_watermark > 0) {
    // Hysteresis: a full IB closes the gate for every source until the
    // ingress (or the shedder) drains it to the low watermark.
    if (site_.ib().num_tuples() >= options_.ib_high_watermark) {
      source_gate_closed_ = true;
    }
    source_cv_.wait(lock, [this] {
      return stop_flag_.load(std::memory_order_acquire) ||
             !source_gate_closed_;
    });
  }
  if (stop_flag_.load(std::memory_order_acquire)) {
    site_.pool().Release(std::move(batch));
    return false;
  }
  const HostedQuery* hq = queries_.Hosted(batch.header.query_id);
  uint64_t stamp_t0 = timed ? tel->tracer().NowMicros() : 0;
  if (!site_.Ingest(std::move(batch), clock_->NowMicros(), hq)) {
    return true;  // unknown query: dropped (and recycled) at ingress
  }
  PublishOldestBufferedLocked();
  if (timed) {
    // stamp_us covers stamping and buffering; ingest_us adds the lock wait.
    uint64_t stamp_t1 = tel->tracer().NowMicros();
    telemetry::MetricRegistry& m = tel->metrics();
    m.GetHistogram("infra.server.stamp_us")
        ->Observe(static_cast<double>(stamp_t1 - stamp_t0));
    m.GetHistogram("infra.server.ingest_us")
        ->Observe(static_cast<double>(stamp_t1 - ingest_t0));
  }
  lock.unlock();
  sched_.Notify(ingress_.get());
  return true;
}

RunStatus ServerPipeline::IngressSlice() {
  // Bounded slice: admit up to a fistful of batches, then yield so peers
  // (and, with one worker, execution nodes) interleave.
  for (int budget = 0; budget < 64; ++budget) {
    QueryId q;
    double sic;
    size_t n;
    OperatorId dest_op;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!staged_) {
        SimTime now = clock_->NowMicros();
        // Oracle pacing: one batch per modeled busy period, exactly like
        // ProcessNext scheduled at max(now, busy_until).
        if (options_.pace_admission && now < busy_until_) {
          return RunStatus::kIdle;
        }
        std::optional<Batch> b = site_.ib().Pop();
        WakeSourcesIfDrainedLocked();
        if (!b) return RunStatus::kIdle;
        PublishOldestBufferedLocked();
        staged_ = std::move(*b);
      }
      q = staged_->header.query_id;
      sic = staged_->header.sic;
      n = staged_->size();
      dest_op = staged_->header.dest_op;
    }
    // The execution fields of queries_ are immutable after Start; safe to
    // read without the lock.
    HostedQuery* hq = queries_.Hosted(q);
    if (hq == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      site_.pool().Release(std::move(*staged_));
      staged_.reset();
      continue;
    }
    ExecNode* dest = hq->by_op[dest_op].get();
    if (!dest->input()->TryPush(&*staged_, ingress_.get(), &sched_)) {
      // Downstream full: stay paused with the batch staged. Admission
      // accounting happens only when it actually lands.
      if (telemetry::Telemetry* tel = telemetry::Get()) {
        tel->metrics().GetCounter("infra.server.credit_stalls")->Add(1);
      }
      return RunStatus::kBlocked;
    }
    staged_.reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      site_.Admit(*hq, q, clock_->NowMicros(), sic, n);
      if (options_.accounting == CostAccounting::kModeled) {
        ChargeModeledLocked(static_cast<double>(n) *
                            hq->graph->op(dest_op)->cost_us_per_tuple() /
                            options_.cpu_speed);
      }
    }
    // Charged wakeups in pump order, mirroring ExecuteBatch's Ingest +
    // PumpGraph pass over the admitted batch's query.
    for (ExecNode* e : hq->pump) e->NotifyCharged();
  }
  return RunStatus::kMoreWork;
}

void ServerPipeline::ChargeModeledLocked(double work_us) {
  // Per-piece truncation; the DES truncates the per-admission sum once.
  // Identical only when each piece is integral — oracle scenarios pin
  // operator costs and cpu_speed so that holds.
  SimDuration w = static_cast<SimDuration>(work_us);
  SimTime now = clock_->NowMicros();
  if (busy_until_ < now) busy_until_ = now;
  busy_until_ += w;
  site_.ChargeBusy(w);
}

void ServerPipeline::FoldMeasuredBusyLocked() {
  SimDuration busy = unfolded_busy_.exchange(0, std::memory_order_acq_rel);
  if (busy != 0) site_.ChargeBusy(busy);
}

void ServerPipeline::PublishOldestBufferedLocked() {
  SimTime oldest = site_.OldestBuffered();
  // Skip redundant stores: every worker reads this line on every slice.
  if (oldest_buffered_.load(std::memory_order_relaxed) != oldest) {
    oldest_buffered_.store(oldest, std::memory_order_release);
  }
}

SimTime ServerPipeline::Watermark() const {
  return std::min(clock_->NowMicros() - options_.window_grace,
                  oldest_buffered_.load(std::memory_order_acquire));
}

SimTime ServerPipeline::LockedWatermark() const {
  std::lock_guard<std::mutex> lock(mu_);
  return site_.Watermark(clock_->NowMicros());
}

void ServerPipeline::ChargeModeled(double work_us) {
  if (options_.accounting != CostAccounting::kModeled) return;
  std::lock_guard<std::mutex> lock(mu_);
  ChargeModeledLocked(work_us);
}

void ServerPipeline::RecordMeasuredBusy(SimDuration busy_us) {
  if (options_.accounting != CostAccounting::kMeasured) return;
  if (telemetry::Telemetry* tel = telemetry::Get()) {
    // Operator-execute stage: the slice already measured its own busy
    // time, so this costs no extra clock read.
    tel->metrics()
        .GetHistogram("infra.server.execute_us")
        ->Observe(static_cast<double>(busy_us));
  }
  if (busy_us != 0) {
    unfolded_busy_.fetch_add(busy_us, std::memory_order_relaxed);
  }
}

void ServerPipeline::DeliverResult(QueryId query,
                                   const std::vector<Tuple>& results,
                                   SimTime now) {
  double sum = 0.0;
  for (const Tuple& t : results) sum += t.sic;
  std::lock_guard<std::mutex> lock(mu_);
  HostedQuery* hq = queries_.Find(query);
  if (hq == nullptr) return;  // only hosted queries' operators deliver
  if (!hq->results) hq->results = std::make_unique<SicAccount>(options_.stw);
  hq->results->Add(now, sum, results.size());
}

Batch ServerPipeline::AcquireBatch() {
  std::lock_guard<std::mutex> lock(mu_);
  return site_.pool().Acquire();
}

void ServerPipeline::TickPhase1() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    FoldMeasuredBusyLocked();
    site_.RollInterval();
  }
  // Uncharged window pump: ascending queries, pump order within a query,
  // the order the Node's tick pumps its hosted graphs in.
  for (HostedQuery& hq : queries_) {
    for (ExecNode* e : hq.pump) e->NotifyUncharged();
  }
}

void ServerPipeline::TickPhase2() {
  telemetry::Telemetry* tel = telemetry::Get();
  const bool timed = tel != nullptr && measured_accounting();
  uint64_t shed_t0 = timed ? tel->tracer().NowMicros() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SimTime now = clock_->NowMicros();
    size_t capacity = site_.EstimateCapacity();
    if (options_.accounting == CostAccounting::kMeasured) {
      // Busy time is summed across workers; capacity scales with them.
      capacity *= std::max<size_t>(options_.workers, 1);
    }
    // Local stand-in for coordinator dissemination (§5.2): feed the result
    // sinks' trailing-STW SIC back into the shedder's query_sic view.
    if (options_.disseminate_sic) {
      for (HostedQuery& hq : queries_) {
        if (hq.results) hq.SetSic(hq.results->tracker.QuerySic(now));
      }
    }
    if (site_.DetectAndShed(now, capacity)) {
      PublishOldestBufferedLocked();
      WakeSourcesIfDrainedLocked();
    }
  }
  if (timed) {
    telemetry::MetricRegistry& m = tel->metrics();
    m.GetHistogram("infra.server.shed_us")
        ->Observe(static_cast<double>(tel->tracer().NowMicros() - shed_t0));
    m.GetGauge("infra.server.queue_depth")
        ->Set(static_cast<double>(sched_.queue_depth()));
  }
  sched_.Notify(ingress_.get());
}

void ServerPipeline::TickerLoop() {
  SimTime next;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next = next_tick_;
  }
  while (!stop_flag_.load(std::memory_order_acquire)) {
    clock_->WaitUntil(next, stop_flag_);
    if (stop_flag_.load(std::memory_order_acquire)) return;
    if (clock_->NowMicros() < next) continue;  // spurious wakeup
    // Real-time ticks run both phases back to back: the window pump
    // quiesces concurrently with detection, an accepted approximation of
    // the oracle's pump-then-shed barrier (see EXPERIMENTS.md).
    TickPhase1();
    TickPhase2();
    next += options_.shed_interval;
    std::lock_guard<std::mutex> lock(mu_);
    next_tick_ = next;
  }
}

void ServerPipeline::WakeSourcesIfDrainedLocked() {
  if (options_.ib_high_watermark == 0) return;
  if (source_gate_closed_ &&
      site_.ib().num_tuples() <= options_.ib_low_watermark) {
    source_gate_closed_ = false;
    source_cv_.notify_all();
  }
}

void ServerPipeline::NotifyIngress() { sched_.Notify(ingress_.get()); }

void ServerPipeline::RunUntilIdle() { sched_.RunUntilIdle(); }

void ServerPipeline::WaitIdle() { sched_.WaitIdle(); }

SimTime ServerPipeline::NextAdmissionTime() const {
  std::lock_guard<std::mutex> lock(mu_);
  SimTime now = clock_->NowMicros();
  if (staged_.has_value()) return now;
  if (site_.ib().empty()) return kNever;
  if (!options_.pace_admission) return now;
  return std::max(busy_until_, now);
}

SimTime ServerPipeline::NextTickTime() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_tick_;
}

void ServerPipeline::Quiesce() {
  if (options_.workers > 0) {
    sched_.WaitIdle();
  } else {
    sched_.RunUntilIdle();
  }
  std::lock_guard<std::mutex> lock(mu_);
  FoldMeasuredBusyLocked();
}

ServerStats ServerPipeline::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats s = site_.stats();
  s.busy_time += unfolded_busy_.load(std::memory_order_acquire);
  return s;
}

void ServerPipeline::DriveTick() {
  TickPhase1();
  Quiesce();  // window pump quiesces before detection
  MaybeCaptureCheckpoints();
  TickPhase2();
  {
    std::lock_guard<std::mutex> lock(mu_);
    next_tick_ += options_.shed_interval;
  }
  Quiesce();
}

void ServerPipeline::EnableCheckpoints(CheckpointStore* store,
                                       CheckpointConfig config) {
  ckpt_store_ = store;
  ckpt_config_ = config;
  ckpt_next_ = 0;
}

void ServerPipeline::RestoreHostedFromStore() {
  if (ckpt_store_ == nullptr) return;
  for (const HostedQuery& hq : queries_) {
    if (hq.graph == nullptr) continue;
    for (size_t frag = 0; frag < hq.graph->num_fragments(); ++frag) {
      for (OperatorId oid :
           hq.graph->fragment_ops(static_cast<FragmentId>(frag))) {
        RestoreOrResetOperator(hq.graph->op(oid), hq.graph->id(),
                               ckpt_store_);
      }
    }
  }
}

void ServerPipeline::MaybeCaptureCheckpoints() {
  if (ckpt_store_ == nullptr || !ckpt_config_.enabled) return;
  SimTime now = clock_->NowMicros();
  if (now < ckpt_next_) return;
  ckpt_next_ = now + ckpt_config_.cadence;
  for (const HostedQuery& hq : queries_) {
    if (hq.graph == nullptr) continue;
    for (size_t frag = 0; frag < hq.graph->num_fragments(); ++frag) {
      for (OperatorId oid :
           hq.graph->fragment_ops(static_cast<FragmentId>(frag))) {
        MaybeCheckpointOperator(hq.graph->op(oid), hq.graph->id(), now,
                                ckpt_config_.error_bound, ckpt_store_);
      }
    }
  }
}

size_t ServerPipeline::CurrentCapacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return site_.stats().last_capacity;
}

size_t ServerPipeline::ib_tuples() const {
  std::lock_guard<std::mutex> lock(mu_);
  return site_.ib().num_tuples();
}

double ServerPipeline::AcceptedSicTotal(QueryId q) const {
  std::lock_guard<std::mutex> lock(mu_);
  const HostedQuery* hq = queries_.Find(q);
  return hq == nullptr || !hq->accepted ? 0.0 : hq->accepted->total_sic;
}

uint64_t ServerPipeline::AcceptedTuplesTotal(QueryId q) const {
  std::lock_guard<std::mutex> lock(mu_);
  const HostedQuery* hq = queries_.Find(q);
  return hq == nullptr || !hq->accepted ? 0 : hq->accepted->total_tuples;
}

double ServerPipeline::ResultSicTotal(QueryId q) const {
  std::lock_guard<std::mutex> lock(mu_);
  const HostedQuery* hq = queries_.Find(q);
  return hq == nullptr || !hq->results ? 0.0 : hq->results->total_sic;
}

uint64_t ServerPipeline::ResultTuplesTotal(QueryId q) const {
  std::lock_guard<std::mutex> lock(mu_);
  const HostedQuery* hq = queries_.Find(q);
  return hq == nullptr || !hq->results ? 0 : hq->results->total_tuples;
}

}  // namespace themis
