// Tests of the real-time runtime's building blocks: scheduler notify/run
// semantics, credit-based channel backpressure (pause on full, wake on
// grant, zero-credit starvation), shutdown while paused, and end-to-end
// pipeline behaviour on live worker threads.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/clock.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"
#include "server/channel.h"
#include "server/oracle_driver.h"
#include "server/scheduler.h"
#include "server/server_pipeline.h"
#include "shedding/balance_sic_shedder.h"
#include "shedding/cost_model.h"
#include "sic/sic.h"
#include "telemetry/telemetry.h"

namespace themis {
namespace {

Batch TestBatch(QueryId q, size_t n) {
  std::vector<Tuple> ts;
  for (size_t i = 0; i < n; ++i) ts.push_back(Tuple(0, 0.01, {Value(1.0)}));
  return MakeBatch(q, /*op=*/0, /*port=*/0, /*created=*/0, std::move(ts));
}

// A task that counts its slices and returns a scripted status.
class CountingTask : public Task {
 public:
  explicit CountingTask(RunStatus status = RunStatus::kIdle)
      : status_(status) {}
  RunStatus RunSlice() override {
    runs.fetch_add(1, std::memory_order_relaxed);
    return status_;
  }
  std::atomic<int> runs{0};

 private:
  RunStatus status_;
};

TEST(ServerSchedulerTest, NotifyCollapsesWhileQueued) {
  Scheduler sched(0);
  CountingTask t;
  sched.Notify(&t);
  sched.Notify(&t);
  sched.Notify(&t);
  sched.RunUntilIdle();
  EXPECT_EQ(t.runs.load(), 1);
}

TEST(ServerSchedulerTest, NotifyDuringRunRequeues) {
  Scheduler sched(0);
  // Self-notifying task: the notify lands while the slice runs, so the
  // scheduler must mark it dirty and run it once more.
  class SelfNotify : public Task {
   public:
    Scheduler* sched = nullptr;
    int runs = 0;
    RunStatus RunSlice() override {
      ++runs;
      if (runs == 1) sched->Notify(this);
      return RunStatus::kIdle;
    }
  };
  SelfNotify t;
  t.sched = &sched;
  sched.Notify(&t);
  sched.RunUntilIdle();
  EXPECT_EQ(t.runs, 2);
}

TEST(ServerSchedulerTest, MoreWorkRequeuesFifo) {
  Scheduler sched(0);
  class TwoSlices : public Task {
   public:
    int runs = 0;
    RunStatus RunSlice() override {
      ++runs;
      return runs < 2 ? RunStatus::kMoreWork : RunStatus::kIdle;
    }
  };
  TwoSlices a;
  CountingTask b;
  sched.Notify(&a);
  sched.Notify(&b);
  sched.RunUntilIdle();
  EXPECT_EQ(a.runs, 2);
  EXPECT_EQ(b.runs.load(), 1);
}

TEST(ServerChannelTest, CreditsBoundInFlightBatches) {
  Scheduler sched(0);
  CountingTask consumer;
  CountingTask producer;
  BatchChannel ch(/*capacity=*/2, &consumer);

  Batch b1 = TestBatch(1, 4);
  Batch b2 = TestBatch(1, 4);
  Batch b3 = TestBatch(1, 4);
  EXPECT_TRUE(ch.TryPush(&b1, &producer, &sched));
  EXPECT_TRUE(ch.TryPush(&b2, &producer, &sched));
  EXPECT_EQ(ch.credits(), 0u);
  // Full: push fails, the batch stays with the producer.
  EXPECT_FALSE(ch.TryPush(&b3, &producer, &sched));
  EXPECT_EQ(b3.size(), 4u);
  EXPECT_EQ(ch.queued(), 2u);

  // Popping does not return the credit — only GrantCredit does.
  auto popped = ch.TryPop();
  ASSERT_TRUE(popped.has_value());
  EXPECT_FALSE(ch.TryPush(&b3, &producer, &sched));
  ch.GrantCredit(&sched);
  EXPECT_TRUE(ch.TryPush(&b3, &producer, &sched));
}

TEST(ServerChannelTest, GrantWakesPausedProducer) {
  Scheduler sched(0);
  CountingTask consumer;
  CountingTask producer;
  BatchChannel ch(/*capacity=*/1, &consumer);

  Batch b1 = TestBatch(1, 1);
  Batch b2 = TestBatch(1, 1);
  ASSERT_TRUE(ch.TryPush(&b1, &producer, &sched));
  ASSERT_FALSE(ch.TryPush(&b2, &producer, &sched));
  sched.RunUntilIdle();  // consumer slice from the first push
  int producer_runs_before = producer.runs.load();

  // The grant must wake the registered waiter through the scheduler.
  (void)ch.TryPop();
  ch.GrantCredit(&sched);
  sched.RunUntilIdle();
  EXPECT_GT(producer.runs.load(), producer_runs_before);
}

TEST(ServerChannelTest, ZeroCreditStarvationHoldsUntilGrant) {
  // A consumer that pops but never grants starves the producer: no amount
  // of notifies lets a push through until the credit comes back.
  Scheduler sched(0);
  CountingTask consumer;
  CountingTask producer;
  BatchChannel ch(/*capacity=*/1, &consumer);

  Batch b1 = TestBatch(1, 1);
  ASSERT_TRUE(ch.TryPush(&b1, &producer, &sched));
  (void)ch.TryPop();  // consumer holds the only credit
  Batch b2 = TestBatch(1, 1);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(ch.TryPush(&b2, &producer, &sched));
    sched.RunUntilIdle();
  }
  ch.GrantCredit(&sched);
  EXPECT_TRUE(ch.TryPush(&b2, &producer, &sched));
}

TEST(ServerSchedulerTest, ShutdownWhilePausedJoinsCleanly) {
  // A producer blocked on a full channel (kBlocked, waiting for a credit
  // that never comes) must not prevent Stop() from joining the workers.
  Scheduler sched(2);
  CountingTask consumer;
  BatchChannel ch(/*capacity=*/1, &consumer);

  class BlockedProducer : public Task {
   public:
    BatchChannel* ch = nullptr;
    Scheduler* sched = nullptr;
    std::atomic<bool> blocked{false};
    RunStatus RunSlice() override {
      Batch b = TestBatch(1, 1);
      if (!ch->TryPush(&b, this, sched)) {
        blocked.store(true, std::memory_order_release);
        return RunStatus::kBlocked;
      }
      return RunStatus::kMoreWork;  // keep pushing until full
    }
  };
  BlockedProducer producer;
  producer.ch = &ch;
  producer.sched = &sched;

  sched.Start();
  sched.Notify(&producer);
  while (!producer.blocked.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  sched.Stop();  // must return despite the paused producer
  EXPECT_EQ(ch.queued(), 1u);
}

// ---------------------------------------------------------------------
// Pipeline-level tests on live worker threads.
// ---------------------------------------------------------------------

std::unique_ptr<QueryGraph> MakeAvgGraph(QueryId q, SourceId src) {
  QueryBuilder b(q, "avg");
  OperatorId recv = b.Add(std::make_unique<ReceiverOp>(), 0);
  OperatorId avg = b.Add(
      std::make_unique<AggregateOp>(AggregateKind::kAvg, 0,
                                    WindowSpec::TumblingTime(kSecond)),
      0);
  OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
  b.Connect(recv, avg).Connect(avg, out).BindSource(src, recv).SetRoot(out);
  return std::move(b.Build()).TakeValue();
}

Batch SourceBatch(QueryId q, SourceId src, SimTime now, size_t n,
                  double value) {
  std::vector<Tuple> ts;
  for (size_t i = 0; i < n; ++i) ts.push_back(Tuple(now, 0.0, {Value(value)}));
  Batch b = MakeBatch(q, /*op=*/0, /*port=*/0, now, std::move(ts));
  b.header.source = src;
  return b;
}

TEST(ServerPipelineTest, ProcessesBatchesEndToEnd) {
  ManualClock clock;
  ServerOptions opts;
  opts.workers = 2;
  auto graph = MakeAvgGraph(1, /*src=*/10);
  ServerPipeline p(opts, &clock,
                   std::make_unique<BalanceSicShedder>(Rng(1)));
  p.AddQuery(graph.get());
  p.Start();

  // 2.5 simulated seconds of arrivals; windows close as the clock passes
  // them (the wall-clock ticker waits on the manual clock, so ticks fire
  // on AdvanceTo).
  for (int i = 0; i < 25; ++i) {
    clock.AdvanceTo(Millis(100) * i);
    ASSERT_TRUE(p.Push(SourceBatch(1, 10, clock.NowMicros(), 100, 42.0)));
    p.WaitIdle();
  }
  clock.AdvanceTo(Seconds(3));
  p.WaitIdle();
  // The ticker thread catches up on its own pace; wait for it to pump the
  // two closed 1 s windows through before stopping.
  for (int i = 0; i < 2000 && p.ResultTuplesTotal(1) < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  p.Stop();

  EXPECT_EQ(p.stats().tuples_received, 2500u);
  EXPECT_EQ(p.stats().tuples_processed, 2500u);
  EXPECT_EQ(p.stats().tuples_shed, 0u);
  EXPECT_EQ(p.AcceptedTuplesTotal(1), 2500u);
  // Two 1 s windows fully closed by the 3 s watermark -> >= 2 AVG results.
  EXPECT_GE(p.ResultTuplesTotal(1), 2u);
  EXPECT_GT(p.AcceptedSicTotal(1), 0.0);
}

TEST(ServerPipelineTest, PushAfterStopIsRejected) {
  ManualClock clock;
  ServerOptions opts;
  opts.workers = 1;
  auto graph = MakeAvgGraph(1, 10);
  ServerPipeline p(opts, &clock,
                   std::make_unique<BalanceSicShedder>(Rng(1)));
  p.AddQuery(graph.get());
  p.Start();
  EXPECT_TRUE(p.Push(SourceBatch(1, 10, 0, 10, 1.0)));
  p.Stop();
  EXPECT_FALSE(p.Push(SourceBatch(1, 10, 0, 10, 1.0)));
}

TEST(ServerPipelineTest, SourceBackpressureBlocksAndResumes) {
  // Deterministic variant: no workers, so the IB fills while the ingress
  // is not running, the gate closes, a second-thread Push blocks, and
  // draining the pipeline reopens the gate.
  ManualClock clock;
  ServerOptions opts;
  opts.workers = 0;
  opts.ib_high_watermark = 200;
  opts.ib_low_watermark = 50;
  auto graph = MakeAvgGraph(1, 10);
  ServerPipeline p(opts, &clock,
                   std::make_unique<BalanceSicShedder>(Rng(1)));
  p.AddQuery(graph.get());
  p.Start();

  // Fill past the high watermark (gate closes at >= 200 tuples).
  ASSERT_TRUE(p.Push(SourceBatch(1, 10, 0, 150, 1.0)));
  ASSERT_TRUE(p.Push(SourceBatch(1, 10, 0, 100, 1.0)));
  EXPECT_EQ(p.ib_tuples(), 250u);

  std::atomic<bool> unblocked{false};
  std::thread source([&] {
    EXPECT_TRUE(p.Push(SourceBatch(1, 10, 0, 10, 1.0)));
    unblocked.store(true, std::memory_order_release);
  });
  // The push must be blocked: the gate is closed until the IB drains.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unblocked.load(std::memory_order_acquire));

  // Drain on this thread; passing the low watermark wakes the source.
  p.RunUntilIdle();
  source.join();
  EXPECT_TRUE(unblocked.load(std::memory_order_acquire));
  p.Stop();
  EXPECT_EQ(p.stats().tuples_received, 260u);
}

TEST(ServerPipelineTest, AddQueryRejectsNegativeIdsAndQueriesAfterStart) {
  ManualClock clock;
  ServerOptions opts;
  opts.workers = 0;
  ServerPipeline p(opts, &clock,
                   std::make_unique<BalanceSicShedder>(Rng(1)));
  auto negative = MakeAvgGraph(-1, 10);
  EXPECT_EQ(p.AddQuery(negative.get()).code(), StatusCode::kInvalidArgument);
  auto graph = MakeAvgGraph(1, 11);
  EXPECT_TRUE(p.AddQuery(graph.get()).ok());
  p.Start();
  // The ingress reads the query table without the lock once started.
  auto late = MakeAvgGraph(2, 12);
  EXPECT_EQ(p.AddQuery(late.get()).code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(p.Push(SourceBatch(2, 12, 0, 10, 1.0)));  // dropped: unknown
  p.RunUntilIdle();
  p.Stop();
  EXPECT_EQ(p.stats().tuples_received, 10u);
  EXPECT_EQ(p.stats().tuples_processed, 0u);
}

// Records the context of every shed call and sheds everything.
class RecordingShedder : public Shedder {
 public:
  std::vector<size_t> SelectBatchesToKeep(const std::deque<Batch>&,
                                          const ShedContext& ctx) override {
    ++calls;
    capacity = ctx.capacity_tuples;
    query_sic = *ctx.query_sic;
    return {};
  }
  const char* name() const override { return "recording"; }

  int calls = 0;
  size_t capacity = 0;
  std::vector<double> query_sic;
};

// The server's own tick inputs, which the DES twin does not have: result
// SIC fed back into query_sic (disseminate_sic) and the modeled capacity.
TEST(ServerPipelineTest, TickFeedsResultSicAndModeledCapacityToTheShedder) {
  ManualClock clock;
  ServerOptions opts = OracleServerOptions(0);
  opts.disseminate_sic = true;
  auto shedder = std::make_unique<RecordingShedder>();
  RecordingShedder* recorder = shedder.get();
  ServerPipeline p(opts, &clock, std::move(shedder));
  OracleGraphs graphs = MakeOracleGraphs();
  for (const auto& g : graphs) ASSERT_TRUE(p.AddQuery(g.get()).ok());
  p.Start();

  // The cost model sees one interval per tick: what was admitted and
  // charged since the previous tick.
  CostModel expected;
  ServerStats last;
  auto tick = [&] {
    ServerStats now = p.stats();
    expected.RecordInterval(now.tuples_processed - last.tuples_processed,
                            now.busy_time - last.busy_time);
    last = now;
    clock.AdvanceTo(p.NextTickTime());
    p.DriveTick();
  };
  // Light load over the first second; the ticks up to 1.25 s close the
  // first windows, delivering results.
  for (SimTime from = 0; from < Millis(1250); from += Millis(250)) {
    std::vector<TimedBatch> light;
    for (SimTime t = from + Millis(10); t < from + Millis(250) && t < kSecond;
         t += Millis(100)) {
      for (QueryId q = 0; q < kOracleQueries; ++q) {
        light.push_back(TimedBatch{t, SourceBatch(q, 10 + q, t, 10, 1.0)});
      }
    }
    DriveDeterministic(&p, &clock, &light, from + Millis(250) - 1);
    tick();
  }
  ASSERT_EQ(recorder->calls, 0);  // never overloaded so far
  for (QueryId q = 0; q < kOracleQueries; ++q) {
    ASSERT_GT(p.ResultSicTotal(q), 0.0) << q;
  }

  // A burst far above capacity before the next tick: paced admission takes
  // one batch per modeled busy period, so most of it is still buffered.
  std::vector<TimedBatch> burst;
  for (int i = 0; i < 20; ++i) {
    for (QueryId q = 0; q < kOracleQueries; ++q) {
      SimTime t = Millis(1450);
      burst.push_back(TimedBatch{t, SourceBatch(q, 10 + q, t, 100, 1.0)});
    }
  }
  DriveDeterministic(&p, &clock, &burst, Millis(1500) - 1);
  tick();
  p.Stop();

  ASSERT_EQ(recorder->calls, 1);
  ASSERT_EQ(recorder->query_sic.size(), static_cast<size_t>(kOracleQueries));
  for (QueryId q = 0; q < kOracleQueries; ++q) {
    // Every result lies within the trailing STW, so its SIC is the total.
    EXPECT_DOUBLE_EQ(recorder->query_sic[q],
                     ClampQuerySic(p.ResultSicTotal(q)))
        << q;
  }
  // kModeled: the cost-model estimate itself, not scaled by the workers.
  EXPECT_EQ(recorder->capacity, expected.EstimateCapacity(opts.shed_interval));
  EXPECT_EQ(recorder->capacity, p.CurrentCapacity());
}

// A receiver fanning out to two aggregates: the first out-edge's batch is a
// copy, the last one takes the receiver's buffer, and both branches see
// every tuple — each delivers its window's result with the pane's full SIC.
TEST(ServerPipelineTest, FanOutDeliversEveryTupleOnEachEdge) {
  ManualClock clock;
  ServerOptions opts;
  opts.workers = 0;
  QueryBuilder b(1, "fan-out");
  OperatorId recv = b.Add(std::make_unique<ReceiverOp>(), 0);
  OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
  for (int i = 0; i < 2; ++i) {
    OperatorId avg = b.Add(
        std::make_unique<AggregateOp>(AggregateKind::kAvg, 0,
                                      WindowSpec::TumblingTime(kSecond)),
        0);
    b.Connect(recv, avg).Connect(avg, out);
  }
  b.BindSource(10, recv).SetRoot(out);
  auto graph = std::move(b.Build()).TakeValue();
  ServerPipeline p(opts, &clock,
                   std::make_unique<BalanceSicShedder>(Rng(1)));
  ASSERT_TRUE(p.AddQuery(graph.get()).ok());
  p.Start();
  for (SimTime t : {Millis(100), Millis(200), Millis(300)}) {
    clock.AdvanceTo(t);
    ASSERT_TRUE(p.Push(SourceBatch(1, 10, t, 10, 42.0)));
    p.RunUntilIdle();
  }
  while (p.NextTickTime() <= Millis(1500)) {
    clock.AdvanceTo(p.NextTickTime());
    p.DriveTick();
  }
  p.Stop();

  ASSERT_EQ(p.AcceptedTuplesTotal(1), 30u);
  EXPECT_EQ(p.ResultTuplesTotal(1), 2u);
  EXPECT_NEAR(p.ResultSicTotal(1), 2 * p.AcceptedSicTotal(1), 1e-12);
}

// A receiver that burns ~100 us of wall clock per ingest, so every slice
// that consumes a batch measures a non-zero busy time.
class SlowReceiverOp : public ReceiverOp {
 public:
  void Ingest(const std::vector<Tuple>& tuples, int port) override {
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::microseconds(100);
    while (std::chrono::steady_clock::now() < until) {
    }
    ReceiverOp::Ingest(tuples, port);
  }
};

// Measured busy time is recorded off the site lock; every read of it —
// stats() between ticks, the tick's interval rollover, stats() after
// Quiesce and after Stop — must still account each slice exactly once: the
// sum of the per-slice times the execute histogram observed.
TEST(ServerPipelineTest, MeasuredBusyTimeIsExactWhereverItIsRead) {
  telemetry::Telemetry tel;
  telemetry::Install(&tel);
  ManualClock clock;
  ServerOptions opts;
  opts.workers = 0;
  opts.accounting = CostAccounting::kMeasured;
  QueryBuilder b(1, "slow");
  OperatorId recv = b.Add(std::make_unique<SlowReceiverOp>(), 0);
  OperatorId avg = b.Add(
      std::make_unique<AggregateOp>(AggregateKind::kAvg, 0,
                                    WindowSpec::TumblingTime(kSecond)),
      0);
  OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
  b.Connect(recv, avg).Connect(avg, out).BindSource(10, recv).SetRoot(out);
  auto graph = std::move(b.Build()).TakeValue();
  ServerPipeline p(opts, &clock,
                   std::make_unique<BalanceSicShedder>(Rng(1)));
  ASSERT_TRUE(p.AddQuery(graph.get()).ok());
  p.Start();
  const telemetry::Histogram* execute =
      tel.metrics().GetHistogram("infra.server.execute_us");
  auto observed = [&] { return static_cast<SimDuration>(execute->Sum()); };

  for (int i = 0; i < 5; ++i) ASSERT_TRUE(p.Push(SourceBatch(1, 10, 0, 10, 1)));
  p.RunUntilIdle();  // slices ran; nothing folded their busy time yet
  ServerStats before_tick = p.stats();
  EXPECT_GE(before_tick.busy_time, 5 * 100);
  EXPECT_EQ(before_tick.busy_time, observed());

  // The rollover charges the interval with all of it: capacity is the
  // estimate from exactly these tuples and this busy time (x1 worker).
  CostModel expected;
  expected.RecordInterval(before_tick.tuples_processed, before_tick.busy_time);
  clock.AdvanceTo(p.NextTickTime());
  p.DriveTick();
  EXPECT_EQ(p.CurrentCapacity(), expected.EstimateCapacity(opts.shed_interval));
  EXPECT_EQ(p.stats().busy_time, observed());

  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(p.Push(SourceBatch(1, 10, clock.NowMicros(), 10, 1)));
  }
  p.Quiesce();
  EXPECT_EQ(p.stats().busy_time, observed());

  ASSERT_TRUE(p.Push(SourceBatch(1, 10, clock.NowMicros(), 10, 1)));
  p.RunUntilIdle();
  p.Stop();
  EXPECT_GE(p.stats().busy_time, 11 * 100);
  EXPECT_EQ(p.stats().busy_time, observed());
  telemetry::Uninstall();
}

// Records, at every Advance, the watermark its execution node passed in
// (read without the site lock) next to ShedController::Watermark taken
// under the lock at the same instant.
class WatermarkProbeOp : public ReceiverOp {
 public:
  void Advance(SimTime watermark, std::vector<Tuple>* out) override {
    seen.emplace_back(watermark, pipeline->LockedWatermark());
    ReceiverOp::Advance(watermark, out);
  }

  const ServerPipeline* pipeline = nullptr;
  std::vector<std::pair<SimTime, SimTime>> seen;
};

// The lock-free watermark equals the controller's at every step of a
// caller-driven run: arrivals, paced admissions, window pumps and shed
// ticks that prune the input buffer. Every batch arrives 250 ms after its
// creation, so whenever the buffer holds one, the oldest buffered batch,
// not the 200 ms grace, sets the watermark.
TEST(ServerPipelineTest, LockFreeWatermarkMatchesTheControllerAtEveryStep) {
  ManualClock clock;
  ServerOptions opts = OracleServerOptions(0);
  QueryBuilder b(1, "probe");
  auto probe_op = std::make_unique<WatermarkProbeOp>();
  WatermarkProbeOp* probe = probe_op.get();
  OperatorId recv = b.Add(std::move(probe_op), 0);
  OperatorId avg = b.Add(
      std::make_unique<AggregateOp>(AggregateKind::kAvg, 0,
                                    WindowSpec::TumblingTime(kSecond)),
      0);
  OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
  b.Connect(recv, avg).Connect(avg, out).BindSource(10, recv).SetRoot(out);
  auto graph = std::move(b.Build()).TakeValue();
  ServerPipeline p(opts, &clock,
                   std::make_unique<BalanceSicShedder>(Rng(1)));
  probe->pipeline = &p;
  ASSERT_TRUE(p.AddQuery(graph.get()).ok());
  p.Start();

  // A 100-tuple batch costs over 10 ms of modeled work. A burst every 5 ms
  // overloads the site (the ticks shed); a later stretch every 10 ms finds
  // the site busy with an empty buffer. The run is driven in 5 ms steps,
  // so every tick ends a step, comparing the two reads after each.
  std::vector<SimTime> arrival_times;
  for (SimTime t = Millis(300) + 3; t < Millis(600); t += Millis(5)) {
    arrival_times.push_back(t);
  }
  for (SimTime t = Millis(1200) + 3; t < Millis(1500); t += Millis(10)) {
    arrival_times.push_back(t);
  }
  int held_back = 0;
  int steps = 0;
  size_t next = 0;
  for (SimTime until = Millis(5); until < Millis(3000); until += Millis(5)) {
    std::vector<TimedBatch> arrivals;
    for (; next < arrival_times.size() && arrival_times[next] <= until;
         ++next) {
      SimTime at = arrival_times[next];
      arrivals.push_back(
          TimedBatch{at, SourceBatch(1, 10, at - Millis(250), 100, 1.0)});
    }
    DriveDeterministic(&p, &clock, &arrivals, until);
    ASSERT_EQ(p.Watermark(), p.LockedWatermark()) << until;
    if (p.Watermark() < clock.NowMicros() - opts.window_grace) {
      ++held_back;
    }
    ++steps;
  }
  p.Stop();
  ASSERT_FALSE(probe->seen.empty());
  for (const auto& [lock_free, locked] : probe->seen) {
    EXPECT_EQ(lock_free, locked);
  }
  EXPECT_GT(held_back, 0);      // the IB front held the watermark back
  EXPECT_LT(held_back, steps);  // and the grace bound applied otherwise
  EXPECT_GT(p.stats().tuples_shed, 0u);
}

// Push, the ingress's Pop and the lock-free Watermark race on live worker
// threads (the tsan job runs this): every value read is one the site could
// have published — the grace bound with an empty buffer, else the creation
// time of a buffered batch — and the two reads agree once the buffer
// drains.
TEST(ServerPipelineTest, LockFreeWatermarkUnderConcurrentPushAndPop) {
  ManualClock clock;
  clock.AdvanceTo(Seconds(10));
  ServerOptions opts;
  opts.workers = 2;
  auto graph = MakeAvgGraph(1, 10);
  ServerPipeline p(opts, &clock,
                   std::make_unique<BalanceSicShedder>(Rng(1)));
  ASSERT_TRUE(p.AddQuery(graph.get()).ok());
  p.Start();
  const SimTime bound = clock.NowMicros() - opts.window_grace;
  constexpr int kBatches = 2000;

  std::atomic<bool> done{false};
  std::thread source([&] {
    for (int i = 0; i < kBatches; ++i) {
      EXPECT_TRUE(p.Push(SourceBatch(1, 10, /*created=*/i, 4, 1.0)));
    }
    done.store(true, std::memory_order_release);
  });
  std::vector<SimTime> reads;
  while (!done.load(std::memory_order_acquire)) {
    reads.push_back(p.Watermark());
  }
  source.join();
  p.WaitIdle();
  p.Stop();

  ASSERT_FALSE(reads.empty());
  for (SimTime wm : reads) {
    EXPECT_TRUE(wm == bound || (wm >= 0 && wm < kBatches)) << wm;
  }
  EXPECT_EQ(p.Watermark(), bound);
  EXPECT_EQ(p.LockedWatermark(), bound);
  EXPECT_EQ(p.stats().tuples_processed, 4u * kBatches);
}

}  // namespace
}  // namespace themis
