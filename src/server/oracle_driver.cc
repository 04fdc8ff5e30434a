#include "server/oracle_driver.h"

#include <utility>

#include "node/node.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"
#include "shedding/balance_sic_shedder.h"
#include "sim/event_queue.h"

namespace themis {
namespace {

class NullRouter : public BatchRouter {
 public:
  void RouteBatch(NodeId, QueryId, FragmentId, Batch) override {}
  void DeliverResult(QueryId, SimTime, const std::vector<Tuple>&) override {}
};

template <typename Site>
OracleRun Collect(const Site& site) {
  OracleRun out{{}, {}, site.stats()};
  for (QueryId q = 0; q < kOracleQueries; ++q) {
    out.accepted_sic.push_back(site.AcceptedSicTotal(q));
    out.accepted_tuples.push_back(site.AcceptedTuplesTotal(q));
  }
  return out;
}

// 100-tuple source batches every 13/17/19/23 ms (query 0..3) up to
// `horizon` inclusive; same-time order is query order (the DES schedules
// its events in exactly this order, so FIFO ties match).
std::vector<TimedBatch> MakeOracleArrivals(SimTime horizon) {
  constexpr SimDuration kPeriods[kOracleQueries] = {Millis(13), Millis(17),
                                                    Millis(19), Millis(23)};
  std::vector<TimedBatch> arrivals;
  for (SimTime t = 0; t <= horizon; t += Millis(1)) {
    for (QueryId q = 0; q < kOracleQueries; ++q) {
      if (t % kPeriods[q] != 0) continue;
      std::vector<Tuple> ts(100, Tuple(t, 0.0, {Value(q + 1.0)}));
      Batch b = MakeBatch(q, /*op=*/0, /*port=*/0, t, std::move(ts));
      b.header.source = 10 + q;
      arrivals.push_back(TimedBatch{t, std::move(b)});
    }
  }
  return arrivals;
}

}  // namespace

void DriveDeterministic(ServerPipeline* pipeline, ManualClock* clock,
                        std::vector<TimedBatch>* arrivals, SimTime until) {
  size_t next_arrival = 0;
  for (;;) {
    constexpr SimTime kNever = ServerPipeline::kNever;
    SimTime t_arr = next_arrival < arrivals->size()
                        ? (*arrivals)[next_arrival].at
                        : kNever;
    SimTime t_adm = pipeline->NextAdmissionTime();
    SimTime t_tick = pipeline->NextTickTime();

    SimTime next = kNever;
    if (t_arr != kNever) next = t_arr;
    if (t_adm != kNever && (next == kNever || t_adm < next)) next = t_adm;
    if (next == kNever) {
      // Nothing queued and no arrivals left: only ticks remain (they still
      // close windows and flush late panes until the horizon).
      next = t_tick;
    }
    if (t_tick <= next) next = t_tick;  // ticks win ties, like the DES
    if (next > until) break;

    clock->AdvanceTo(next);
    if (next == t_tick) {
      pipeline->DriveTick();
      continue;  // same-time arrivals/admissions run on the next pass
    }
    while (next_arrival < arrivals->size() &&
           (*arrivals)[next_arrival].at == next) {
      pipeline->Push(std::move((*arrivals)[next_arrival].batch));
      ++next_arrival;
    }
    pipeline->NotifyIngress();
    pipeline->Quiesce();
  }
}


OracleGraphs MakeOracleGraphs() {
  OracleGraphs graphs;
  for (QueryId q = 0; q < kOracleQueries; ++q) {
    QueryBuilder b(q, "avg");
    OperatorId recv = b.Add(std::make_unique<ReceiverOp>(), 0);
    OperatorId avg = b.Add(
        std::make_unique<AggregateOp>(AggregateKind::kAvg, 0,
                                      WindowSpec::TumblingTime(kSecond)),
        0);
    OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
    b.Connect(recv, avg).Connect(avg, out).BindSource(10 + q, recv);
    b.SetRoot(out);
    graphs.push_back(std::move(b.Build()).TakeValue());
  }
  return graphs;
}

ServerOptions OracleServerOptions(size_t workers) {
  ServerOptions opts;
  opts.workers = workers;
  opts.cpu_speed = kOracleCpuSpeed;
  opts.accounting = CostAccounting::kModeled;
  opts.pace_admission = true;
  opts.disseminate_sic = false;
  opts.channel_capacity = 1 << 20;
  return opts;
}

OracleRun RunOracleDes(const OracleGraphs& graphs, SimTime horizon) {
  EventQueue queue;
  NullRouter router;
  NodeOptions options;
  options.cpu_speed = kOracleCpuSpeed;
  Node node(0, options, &queue, &router,
            std::make_unique<BalanceSicShedder>(Rng(7)));
  for (const auto& g : graphs) node.HostFragment(g.get(), 0);
  node.Start();  // first tick scheduled before any arrival: ties tick-first
  std::vector<TimedBatch> arrivals = MakeOracleArrivals(horizon);
  for (TimedBatch& a : arrivals) {
    Batch* b = &a.batch;
    queue.Schedule(a.at, [&node, b] { node.Receive(std::move(*b)); });
  }
  queue.RunUntil(horizon);
  return Collect(node);
}

OracleRun RunOracleServer(const OracleGraphs& graphs, size_t workers,
                          SimTime horizon, CheckpointStore* store,
                          const CheckpointConfig& config) {
  ManualClock clock;
  ServerPipeline pipeline(OracleServerOptions(workers), &clock,
                          std::make_unique<BalanceSicShedder>(Rng(7)));
  for (const auto& g : graphs) pipeline.AddQuery(g.get());
  if (store != nullptr) pipeline.EnableCheckpoints(store, config);
  pipeline.Start();
  std::vector<TimedBatch> arrivals = MakeOracleArrivals(horizon);
  DriveDeterministic(&pipeline, &clock, &arrivals, horizon);
  pipeline.Stop();
  return Collect(pipeline);
}

}  // namespace themis
