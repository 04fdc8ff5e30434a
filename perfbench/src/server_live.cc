// server-live: one real-time ServerPipeline on real threads (wall clock, 2
// workers, BALANCE-SIC) hosting a dozen Table 1 complex queries plus a
// low-rate canary whose receiver is a benchmark-owned probe operator. One
// generator (the driving thread) pushes payloads pre-built during set-up
// from the queries' own SourceModels. A run is kRounds rounds of:
//
//   closed     Push blocks on the input-buffer watermarks: capacity C.
//   overload   open loop at 2 C: admitted goodput and per-query accepted
//              SIC under shedding.
//
// preceded by one open loop at a fixed rate well below capacity, which
// measures the process's peak RSS and the canary's latency from each
// tuple's due time to its ingest. The DES engine, the network and
// SourceDriver scheduling are bypassed.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common.h"
#include "runtime/clock.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"
#include "server/server_pipeline.h"
#include "shedding/balance_sic_shedder.h"
#include "sim/event_queue.h"
#include "workload/workloads.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace themis;

constexpr int kQueries = 12;
constexpr size_t kWorkers = 2;
// Offered rate of the below-capacity phase, tuples/s: a fixed load, so the
// memory it holds (input buffer, open panes) does not follow the share of
// the host a run gets. Capacity C is 3-8 M tuples/s on a shared 4-vCPU VM.
constexpr double kBelowRate = 1.0e6;
// Offered rate of the overload phase, as a multiple of the closed-loop
// capacity measured just before it: a fixed overload factor whatever share
// of the host the run gets.
constexpr double kOverloadFactor = 2.0;
// The closed loop and the overload phase alternate in rounds, each overload
// window offered at twice the closed-loop capacity measured just before it,
// so drift in the host's speed between the two stays small. Shares of
// --seconds: one below-capacity phase first, then per round a closed slice
// and an overload slice.
constexpr int kRounds = 3;
constexpr double kClosedShare = 0.1;
constexpr double kBelowPhaseShare = 0.2;
constexpr double kOverloadShare = 0.15;
// The canary: one tuple per batch, this many per second, in both open-loop
// phases.
constexpr double kCanaryRate = 1000.0;
// Per-source rate of the pre-built payload. Only the batch size matters
// (the phases set the pace): one batch per source and second, large enough
// that per-tuple operator work, not per-batch ingress, bounds capacity.
constexpr double kSourceRate = 150.0;
// Window range of every query. Row panes keep their raw tuples, so resident
// memory grows with admitted rate x window; 1 s windows pushed the peak
// past 3 GB, a quarter second keeps it near 2-2.5 GB at full speed.
constexpr SimDuration kWindow = Millis(250);
// SIC time window. The paper's 10 s would reach back across phase
// boundaries; 2 s lets rate estimates and the shedder's trailing accepted
// SIC settle inside each phase.
constexpr SimDuration kStw = Seconds(2);
// Simulated span of pre-built payload: the generator cycles over it.
constexpr SimDuration kTemplateSpan = Seconds(2);
// Watermarks of the closed-loop pipeline: Push blocks at the high mark until
// the buffer drains to the low one.
constexpr size_t kIbHigh = 1 << 18;
constexpr size_t kIbLow = 1 << 17;
// Share of each open-loop phase spent settling before it is measured. The
// open pipeline idles while the closed one runs, and the shedder's rate
// and accepted-SIC estimates span one STW: at the benchmark's 40 s, the
// settling part of an overload phase (2.1 s) covers it.
constexpr double kSettleShare = 0.35;
constexpr int kSetups = 9;

/// Receiver that measures canary tuples on ingest: the probe operator.
/// Each canary tuple carries its due time (ns on the site's time base) as
/// its only payload value.
class ProbeOp : public ReceiverOp {
 public:
  explicit ProbeOp(const Clock::time_point* origin) : origin_(origin) {}

  void Ingest(const std::vector<Tuple>& tuples, int port) override {
    if (recording_.load(std::memory_order_acquire)) {
      double now_ns = std::chrono::duration<double, std::nano>(Clock::now() -
                                                               *origin_)
                          .count();
      std::lock_guard<std::mutex> lock(mu_);
      for (const Tuple& t : tuples) {
        latency_ms_.push_back((now_ns - AsDouble(t.values[0])) * 1e-6);
      }
    }
    ReceiverOp::Ingest(tuples, port);
  }

  void SetRecording(bool on) { recording_.store(on, std::memory_order_release); }
  std::vector<double> TakeLatencies() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(latency_ms_);
  }

 private:
  const Clock::time_point* origin_;
  std::atomic<bool> recording_{false};
  std::mutex mu_;
  std::vector<double> latency_ms_;
};

/// Benchmark-owned shedder decorator: times every SelectBatchesToKeep call
/// on BALANCE-SIC and records the input-buffer size it saw.
class TimedShedder : public Shedder {
 public:
  explicit TimedShedder(uint64_t seed) : inner_(Rng(seed)) {}

  std::vector<size_t> SelectBatchesToKeep(const std::deque<Batch>& ib,
                                          const ShedContext& ctx) override {
    auto t0 = perfbench::Clock::now();
    std::vector<size_t> keep = inner_.SelectBatchesToKeep(ib, ctx);
    double us = SecondsSince(t0) * 1e6;
    std::lock_guard<std::mutex> lock(mu_);
    select_us_.push_back(us);
    ib_batches_.push_back(static_cast<double>(ib.size()));
    return keep;
  }
  const char* name() const override { return inner_.name(); }

  std::vector<double> select_us() const {
    std::lock_guard<std::mutex> lock(mu_);
    return select_us_;
  }
  std::vector<double> ib_batches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ib_batches_;
  }

 private:
  BalanceSicShedder inner_;
  mutable std::mutex mu_;
  std::vector<double> select_us_;
  std::vector<double> ib_batches_;
};

/// One pre-built source batch (rows in emission order of the template).
struct Payload {
  BatchHeader header;
  std::vector<Tuple> tuples;
};

/// The queries hosted on one pipeline, with the probe and shedder it owns.
struct Host {
  std::vector<std::unique_ptr<QueryGraph>> graphs;
  ProbeOp* probe = nullptr;
  TimedShedder* shedder = nullptr;
  std::unique_ptr<ServerPipeline> pipeline;
};

/// A fully built site. The closed loop runs on a pipeline whose Push blocks
/// on the input-buffer watermarks; the open loops run on a twin without
/// watermarks, so a generator ahead of capacity is never throttled and the
/// shedder alone keeps the buffer in check.
struct Site {
  WallClock clock;
  /// Time base of due times and canary latencies (next to the clock's
  /// epoch, which it does not expose).
  Clock::time_point origin = Clock::now();
  double NowNs() const {
    return std::chrono::duration<double, std::nano>(Clock::now() - origin)
        .count();
  }
  Host closed;
  Host open;
  std::vector<Payload> payloads;  ///< template, in emission order
  QueryId canary = kQueries;
  SourceId canary_source = 0;
  double build_s = 0.0;           ///< WorkloadFactory::Make* time
  double gen_ns_per_tuple = 0.0;  ///< payload pre-generation
};

std::unique_ptr<QueryGraph> MakeCanaryGraph(QueryId q, SourceId src,
                                            const Clock::time_point* origin,
                                            ProbeOp** probe) {
  QueryBuilder b(q, "canary");
  auto op = std::make_unique<ProbeOp>(origin);
  *probe = op.get();
  OperatorId recv = b.Add(std::move(op), 0);
  OperatorId avg = b.Add(
      std::make_unique<AggregateOp>(AggregateKind::kAvg, 0,
                                    WindowSpec::TumblingTime(kWindow)),
      0);
  OperatorId out = b.Add(std::make_unique<OutputOp>(), 0);
  b.Connect(recv, avg).Connect(avg, out).BindSource(src, recv).SetRoot(out);
  return std::move(b.Build()).TakeValue();
}

/// Builds the queries (the same ids and sources for the same seed) and a
/// pipeline hosting them. `sources` receives each query's source models.
void BuildHost(uint64_t seed, Site* site, bool watermarks, Host* host,
               std::vector<std::map<SourceId, SourceModel>>* sources) {
  WorkloadFactory factory(seed);
  Rng rng(seed ^ 0x5eedull);
  // The Table 1 mix: AVG-all over 10 sources per fragment, TOP-5 over 20
  // (10 CPU + memory pairs), COV over 2, one to three fragments each: each
  // count on four queries, dealt in seed-shuffled order, so that every
  // seed offers the same total work.
  std::vector<int> fragments;
  for (QueryId q = 0; q < kQueries; ++q) fragments.push_back(1 + q % 3);
  rng.Shuffle(&fragments);
  for (QueryId q = 0; q < kQueries; ++q) {
    ComplexQueryOptions co;
    co.fragments = fragments[q];
    co.sources_per_fragment = q % 3 == 1 ? 20 : 10;
    co.source_rate = kSourceRate;
    co.batches_per_sec = 1;
    co.window = kWindow;
    auto t0 = Clock::now();
    BuiltQuery built =
        factory.MakeComplex(static_cast<ComplexKind>(q % 3), q, co);
    site->build_s += SecondsSince(t0);
    if (sources != nullptr) sources->push_back(built.sources);
    host->graphs.push_back(std::move(built.graph));
  }
  site->canary_source = factory.AllocateSourceId();
  host->graphs.push_back(MakeCanaryGraph(site->canary, site->canary_source,
                                         &site->origin, &host->probe));
  ServerOptions opts;
  opts.workers = kWorkers;
  opts.stw = kStw;
  if (watermarks) {
    opts.ib_high_watermark = kIbHigh;
    opts.ib_low_watermark = kIbLow;
  }
  auto shedder = std::make_unique<TimedShedder>(seed);
  host->shedder = shedder.get();
  host->pipeline =
      std::make_unique<ServerPipeline>(opts, &site->clock, std::move(shedder));
  for (const auto& g : host->graphs) host->pipeline->AddQuery(g.get());
}

std::unique_ptr<Site> BuildSite(uint64_t seed, Checks* checks) {
  auto site = std::make_unique<Site>();
  std::vector<std::map<SourceId, SourceModel>> sources;
  BuildHost(seed, site.get(), true, &site->closed, &sources);
  BuildHost(seed, site.get(), false, &site->open, nullptr);
  site->build_s /= 2;  // report one build of the query set

  // Pre-build the payloads: every source of every query replayed through
  // a SourceDriver on a private event queue over the template span.
  EventQueue queue;
  std::vector<std::unique_ptr<SourceDriver>> drivers;
  std::vector<std::pair<SimTime, size_t>> order;
  auto t0 = Clock::now();
  for (QueryId q = 0; q < kQueries; ++q) {
    const QueryGraph* graph = site->closed.graphs[q].get();
    for (const auto& [src, model] : sources[q]) {
      OperatorId target = kInvalidId;
      int port = 0;
      for (const auto& binding : graph->sources()) {
        if (binding.source == src) {
          target = binding.target;
          port = binding.port;
        }
      }
      checks->Record("source_binding_found", target != kInvalidId,
                     "source " + std::to_string(src));
      drivers.push_back(std::make_unique<SourceDriver>(
          src, q, target, port, model, &queue, Rng(seed + src),
          [site = site.get(), &order, &queue](Batch b) {
            order.emplace_back(queue.now(), site->payloads.size());
            site->payloads.push_back({b.header, std::move(b.tuples)});
          }));
      drivers.back()->Start();
    }
  }
  queue.RunUntil(kTemplateSpan);
  for (auto& d : drivers) d->Stop();
  std::stable_sort(order.begin(), order.end());
  std::vector<Payload> sorted;
  sorted.reserve(order.size());
  uint64_t tuples = 0;
  for (const auto& [at, index] : order) {
    sorted.push_back(std::move(site->payloads[index]));
    tuples += sorted.back().tuples.size();
  }
  site->payloads = std::move(sorted);
  site->gen_ns_per_tuple = SecondsSince(t0) * 1e9 /
                           static_cast<double>(std::max<uint64_t>(tuples, 1));
  site->closed.pipeline->Start();
  site->open.pipeline->Start();
  return site;
}

/// Per-phase observations.
struct Phase {
  double wall_s = 0.0;
  uint64_t offered = 0;    ///< pushed during the measured window
  uint64_t processed = 0;  ///< admitted during the measured window
  size_t ib_max = 0;
  std::vector<double> lag_ms;  ///< generator lateness behind schedule
};

/// Everything one server job measured.
struct ServerJob {
  std::vector<double> setup_s;
  std::vector<Phase> closed;    ///< one per round
  Phase below;
  std::vector<Phase> overload;  ///< one per round
  std::vector<double> latency_ms;
  /// Per round, per query: share of its offered tuples admitted in the
  /// overload window. Eq. (1) gives every tuple of a query's equal-rate
  /// sources the same SIC, so this is the share of the query's SIC it
  /// accepted.
  std::vector<std::vector<double>> shares;
  std::vector<double> push_us;
  std::vector<double> queue_depth;
  ServerStats stats;
  /// Process peak RSS at the end of the below-capacity phase (set-up plus
  /// a fixed load), MB.
  double peak_rss_mb = 0.0;
  double run_wall_s = 0.0;
  uint64_t run_allocations = 0;
  double build_s = 0.0;
  double gen_ns_per_tuple = 0.0;
  std::vector<double> select_us;
  std::vector<double> ib_batches;
};

/// The generator: pushes template payloads re-stamped to their due time.
/// Due times are kept in nanoseconds on the site's time base; tuples carry
/// them in microseconds (the pipeline's clock) and canary tuples also carry
/// the exact due time in their payload for the probe.
class Generator {
 public:
  Generator(Site* site, bool time_pushes, ServerJob* job)
      : site_(site), time_pushes_(time_pushes), job_(job) {}

  /// Closed loop for `seconds` on `host`: every Push as soon as the last
  /// returned.
  void Closed(Host* host, double seconds, Phase* phase) {
    host_ = host;
    auto t0 = Clock::now();
    uint64_t base = host_->pipeline->stats().tuples_processed;
    while (SecondsSince(t0) < seconds) {
      for (int i = 0; i < 64; ++i) Push(site_->NowNs(), false);
      Poll(phase);
    }
    phase->wall_s = SecondsSince(t0);
    phase->processed = host_->pipeline->stats().tuples_processed - base;
  }

  /// Open loop at `rate` tuples/s (plus the canary) for `seconds`; the
  /// first kSettleShare of it is not measured.
  void Open(Host* host, double rate, double seconds, Phase* phase,
            bool overload) {
    host_ = host;
    const double start = site_->NowNs();
    const double settle_end = start + seconds * kSettleShare * 1e9;
    const double end = start + seconds * 1e9;
    double main_due = start;
    double canary_due = start;
    bool measuring = false;
    double measure_start = 0.0;
    uint64_t base = 0;
    std::vector<uint64_t> accepted_base;
    int polls = 0;
    while (true) {
      bool canary = canary_due <= main_due;
      double due = canary ? canary_due : main_due;
      // A generator that fell behind stops at the phase end too: the phase
      // offers at most the scheduled load, never more wall time.
      if (due >= end || site_->NowNs() >= end) break;
      if (!measuring && due >= settle_end) {
        measuring = true;
        WaitUntil(due);
        measure_start = site_->NowNs();
        base = host_->pipeline->stats().tuples_processed;
        if (overload) {
          offered_.assign(kQueries, 0);
          accepted_base = AcceptedTuples();
        } else {
          host_->probe->SetRecording(true);
        }
      }
      WaitUntil(due);
      if (measuring) phase->lag_ms.push_back((site_->NowNs() - due) * 1e-6);
      Push(due, canary);
      if (canary) {
        canary_due += 1e9 / kCanaryRate;
      } else {
        main_due += static_cast<double>(last_size_) * 1e9 / rate;
        if (measuring) {
          phase->offered += last_size_;
          if (overload) offered_[last_query_] += last_size_;
        }
      }
      if (measuring && ++polls % 64 == 0) Poll(phase);
    }
    WaitUntil(end);
    host_->probe->SetRecording(false);
    phase->wall_s = (site_->NowNs() - measure_start) * 1e-9;
    phase->processed = host_->pipeline->stats().tuples_processed - base;
    if (overload) {
      std::vector<uint64_t> accepted = AcceptedTuples();
      job_->shares.emplace_back();
      for (QueryId q = 0; q < kQueries; ++q) {
        job_->shares.back().push_back(
            offered_[q] == 0 ? 0.0
                             : static_cast<double>(accepted[q] -
                                                   accepted_base[q]) /
                                   static_cast<double>(offered_[q]));
      }
    }
  }

  /// Waits (up to 10 s) until the input buffer is empty and everything
  /// admitted has run; true when it got there.
  bool Drain(Host* host) {
    host_ = host;
    auto t0 = Clock::now();
    while (SecondsSince(t0) < 10.0) {
      if (host_->pipeline->ib_tuples() == 0) {
        host_->pipeline->WaitIdle();
        if (host_->pipeline->ib_tuples() == 0) return true;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return false;
  }

  uint64_t pushes() const { return pushes_; }
  uint64_t rejected() const { return rejected_; }

 private:
  void WaitUntil(double due_ns) {
    while (true) {
      double left = due_ns - site_->NowNs();
      if (left <= 0.0) return;
      if (left > 200e3) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(static_cast<int64_t>(left - 100e3)));
      } else {
        std::this_thread::yield();
      }
    }
  }

  /// Pushes the next template payload (or a canary tuple) due at `due_ns`.
  void Push(double due_ns, bool canary) {
    const SimTime due_us = static_cast<SimTime>(due_ns * 1e-3);
    Batch b;
    if (canary) {
      b = MakeBatch(site_->canary, 0, 0, due_us,
                    {Tuple(due_us, 0.0, {Value(due_ns)})});
      b.header.source = site_->canary_source;
    } else {
      const Payload& p = site_->payloads[next_];
      next_ = (next_ + 1) % site_->payloads.size();
      b.header = p.header;
      b.header.created = due_us;
      b.tuples = p.tuples;
      for (Tuple& t : b.tuples) t.timestamp = due_us;
      last_query_ = p.header.query_id;
      last_size_ = b.tuples.size();
    }
    bool ok;
    if (time_pushes_) {
      auto t0 = Clock::now();
      ok = host_->pipeline->Push(std::move(b));
      job_->push_us.push_back(SecondsSince(t0) * 1e6);
    } else {
      ok = host_->pipeline->Push(std::move(b));
    }
    ++pushes_;
    if (!ok) ++rejected_;
  }

  void Poll(Phase* phase) {
    phase->ib_max = std::max(phase->ib_max, host_->pipeline->ib_tuples());
    if (time_pushes_) {
      if (auto* tel = telemetry::Get()) {
        job_->queue_depth.push_back(
            tel->metrics().GetGauge("infra.server.queue_depth")->Value());
      }
    }
  }

  std::vector<uint64_t> AcceptedTuples() const {
    std::vector<uint64_t> out;
    for (QueryId q = 0; q < kQueries; ++q) {
      out.push_back(host_->pipeline->AcceptedTuplesTotal(q));
    }
    return out;
  }

  Site* site_;
  Host* host_ = nullptr;
  bool time_pushes_;
  ServerJob* job_;
  size_t next_ = 0;
  QueryId last_query_ = 0;
  size_t last_size_ = 0;
  std::vector<uint64_t> offered_;
  uint64_t pushes_ = 0;
  uint64_t rejected_ = 0;
};

double Rate(const Phase& p, uint64_t tuples) {
  return static_cast<double>(tuples) / p.wall_s;
}

/// Median closed-loop capacity and overload goodput over the rounds.
double ClosedTps(const ServerJob& job) {
  std::vector<double> r;
  for (const Phase& p : job.closed) r.push_back(Rate(p, p.processed));
  return Median(r);
}
double OverloadGoodput(const ServerJob& job) {
  std::vector<double> r;
  for (const Phase& p : job.overload) r.push_back(Rate(p, p.processed));
  return Median(r);
}

/// Checks a drained host: exact tuple conservation, and that every query
/// delivered results.
void CheckHost(Host* host, bool drained, Checks* checks) {
  checks->Record("server_drains", drained, "input buffer never emptied");
  ServerStats s = host->pipeline->stats();
  uint64_t resident = host->pipeline->ib_tuples();
  checks->Record(
      "server_tuple_conservation",
      s.tuples_received == s.tuples_processed + s.tuples_shed + resident,
      "received " + std::to_string(s.tuples_received) +
          " != processed+shed+resident " +
          std::to_string(s.tuples_processed + s.tuples_shed + resident));
  // Panes close on shed ticks once the watermark passes them, and results
  // of multi-fragment queries need a pump per hop: give the ticker up to
  // two seconds after the drain.
  auto all_delivered = [host] {
    for (QueryId q = 0; q < kQueries; ++q) {
      if (host->pipeline->ResultTuplesTotal(q) == 0) return false;
    }
    return true;
  };
  auto t0 = Clock::now();
  while (!all_delivered() && SecondsSince(t0) < 2.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  for (QueryId q = 0; q < kQueries; ++q) {
    checks->Record("query_delivers_results",
                   host->pipeline->ResultTuplesTotal(q) > 0,
                   "query " + std::to_string(q) + " delivered no result");
  }
}

/// One server job: set-up (kSetups times), then, with `open_loops`, the
/// below-capacity phase, then kRounds rounds of a closed-loop slice and,
/// with `open_loops`, an overload slice.
ServerJob RunServerJob(uint64_t seed, double seconds, bool open_loops,
                       bool traced, Checks* checks, Spans* spans) {
  ServerJob job;
  std::unique_ptr<Site> site;
  for (int i = 0; i < kSetups; ++i) {
    site.reset();  // the previous set-up stops and joins its threads
    auto t0 = Clock::now();
    SpanScope span(spans, "bench.setup");
    site = BuildSite(seed, checks);
    job.setup_s.push_back(SecondsSince(t0));
  }
  job.build_s = site->build_s;
  job.gen_ns_per_tuple = site->gen_ns_per_tuple;

  Generator gen(site.get(), traced, &job);
  uint64_t alloc_base = Allocations();
  auto run_t0 = Clock::now();
  bool drained = true;
  if (open_loops) {
    {
      SpanScope span(spans, "bench.server.open_loop_below");
      gen.Open(&site->open, kBelowRate, seconds * kBelowPhaseShare,
               &job.below, false);
    }
    SpanScope span(spans, "bench.server.drain");
    drained = gen.Drain(&site->open) && drained;
    job.peak_rss_mb = PeakRssMb();
  }
  job.closed.resize(kRounds);
  job.overload.resize(open_loops ? kRounds : 0);
  for (int r = 0; r < kRounds; ++r) {
    {
      SpanScope span(spans, "bench.server.closed_loop");
      gen.Closed(&site->closed, seconds * kClosedShare, &job.closed[r]);
    }
    {
      // The closed pipeline empties before the open one runs, so the two
      // never compete for the workers' cores.
      SpanScope span(spans, "bench.server.drain");
      drained = gen.Drain(&site->closed) && drained;
    }
    if (!open_loops) continue;
    const double capacity = Rate(job.closed[r], job.closed[r].processed);
    {
      SpanScope span(spans, "bench.server.open_loop_overload");
      gen.Open(&site->open, kOverloadFactor * capacity,
               seconds * kOverloadShare, &job.overload[r], true);
    }
    SpanScope span(spans, "bench.server.drain");
    drained = gen.Drain(&site->open) && drained;
  }
  job.latency_ms = site->open.probe->TakeLatencies();
  job.run_wall_s = SecondsSince(run_t0);
  job.run_allocations = Allocations() - alloc_base;

  CheckHost(&site->closed, drained, checks);
  if (open_loops) {
    CheckHost(&site->open, drained, checks);
    checks->Record("canary_delivers_results",
                   site->open.pipeline->ResultTuplesTotal(site->canary) > 0,
                   "canary delivered no result");
  }
  checks->Record("push_accepted_before_stop", gen.pushes(), gen.rejected(),
                 std::to_string(gen.rejected()) + " pushes rejected");
  for (const std::vector<double>& round : job.shares) {
    for (double share : round) {
      checks->Record("accepted_share_finite_nonnegative",
                     std::isfinite(share) && share >= 0.0,
                     std::to_string(share));
    }
  }
  job.stats = site->open.pipeline->stats();
  ServerStats closed = site->closed.pipeline->stats();
  job.stats.tuples_received += closed.tuples_received;
  job.stats.tuples_processed += closed.tuples_processed;
  job.stats.tuples_shed += closed.tuples_shed;
  job.stats.busy_time += closed.busy_time;
  for (Host* host : {&site->closed, &site->open}) {
    std::vector<double> us = host->shedder->select_us();
    std::vector<double> batches = host->shedder->ib_batches();
    job.select_us.insert(job.select_us.end(), us.begin(), us.end());
    job.ib_batches.insert(job.ib_batches.end(), batches.begin(),
                          batches.end());
  }
  site->closed.pipeline->Stop();
  site->open.pipeline->Stop();
  return job;
}

/// Generator alone into a null sink: the ceiling the open loops stand on.
double GeneratorCeiling(uint64_t seed, Checks* checks) {
  std::unique_ptr<Site> site = BuildSite(seed, checks);
  site->closed.pipeline->Stop();
  site->open.pipeline->Stop();
  uint64_t tuples = 0;
  size_t next = 0;
  auto t0 = Clock::now();
  while (SecondsSince(t0) < 0.3) {
    for (int i = 0; i < 256; ++i) {
      const Payload& p = site->payloads[next];
      next = (next + 1) % site->payloads.size();
      Batch b;
      b.header = p.header;
      b.tuples = p.tuples;
      SimTime due = static_cast<SimTime>(site->NowNs() * 1e-3);
      for (Tuple& t : b.tuples) t.timestamp = due;
      tuples += b.size();
    }
  }
  return static_cast<double>(tuples) / SecondsSince(t0);
}

}  // namespace

void RunServerLive(const Args& args, Result* result) {
  if (!args.trace) {
    ServerJob job = RunServerJob(args.seed, args.seconds, true, false,
                                 &result->checks, nullptr);
    std::vector<double> means, jains;
    for (const std::vector<double>& round : job.shares) {
      means.push_back(Mean(round));
      jains.push_back(Jain(round));
    }
    std::printf("rounds (tuples/s):");
    for (int r = 0; r < kRounds; ++r) {
      const Phase& o = job.overload[r];
      std::printf(" [closed %.0f; overload offered %.0f admitted %.0f]",
                  Rate(job.closed[r], job.closed[r].processed),
                  Rate(o, o.offered), Rate(o, o.processed));
    }
    std::printf("; below offered %.0f admitted %.0f; %zu canary samples\n",
                Rate(job.below, job.below.offered),
                Rate(job.below, job.below.processed), job.latency_ms.size());
    result->E2e("setup_s", Median(job.setup_s), "s");
    result->E2e("tuples_per_s", ClosedTps(job), "tuples/s");
    result->E2e("peak_rss_mb", job.peak_rss_mb, "MB");
    result->E2e("mean_sic", Median(means), "SIC");
    result->E2e("jain", Median(jains), "index");
    result->E2e("overload_goodput_tuples_per_s", OverloadGoodput(job),
                "tuples/s");
    return;
  }

  // Telemetry overhead base: the closed loop alone, untraced.
  ServerJob plain = RunServerJob(args.seed, args.seconds, false, false,
                                 &result->checks, nullptr);
  double ceiling = GeneratorCeiling(args.seed, &result->checks);
  ServerJob job;
  {
    TracedPass pass;
    result->spans.SetTimeBase(&pass.telemetry().tracer());
    job = RunServerJob(args.seed, args.seconds, true, true, &result->checks,
                       &result->spans);
    result->program_trace = pass.ExportTrace();
    auto& m = pass.metrics();
    auto p99 = [&m](const char* name) {
      return HistogramPercentile(*m.GetHistogram(name), 99);
    };
    result->Layer("workload.build_s", job.build_s);
    result->Layer("workload.gen_ns_per_tuple", job.gen_ns_per_tuple);
    std::vector<double> lag = job.below.lag_ms;
    for (const Phase& p : job.overload) {
      lag.insert(lag.end(), p.lag_ms.begin(), p.lag_ms.end());
    }
    result->Layer("workload.gen_lag_p99_ms", Percentile(lag, 99));
    result->Layer("workload.gen_ceiling_tuples_per_s", ceiling);
    const ServerStats& s = job.stats;
    result->Layer("shedding.shed_fraction",
                  static_cast<double>(s.tuples_shed) /
                      static_cast<double>(s.tuples_received));
    result->Layer("shedding.select_calls",
                  static_cast<double>(job.select_us.size()));
    result->Layer("shedding.select_us_p50", Percentile(job.select_us, 50));
    result->Layer("shedding.select_us_p99", Percentile(job.select_us, 99));
    result->Layer("shedding.ib_batches_p99", Percentile(job.ib_batches, 99));
    result->Layer("runtime.allocs_per_tuple",
                  static_cast<double>(job.run_allocations) /
                      static_cast<double>(s.tuples_processed));
    result->Layer("runtime.pool_hit_ratio", pass.PoolHitRatio());
    result->Layer("server.push_us_p50", Percentile(job.push_us, 50));
    result->Layer("server.push_us_p99", Percentile(job.push_us, 99));
    result->Layer("server.ib_tuples_max",
                  static_cast<double>(job.below.ib_max));
    result->Layer("server.busy_share",
                  static_cast<double>(s.busy_time) * 1e-6 /
                      (job.run_wall_s * static_cast<double>(kWorkers)));
    result->Layer("server.stamp_us_p99", p99("infra.server.stamp_us"));
    result->Layer("server.ingest_us_p99", p99("infra.server.ingest_us"));
    result->Layer("server.execute_us_p99", p99("infra.server.execute_us"));
    result->Layer("server.shed_us_p99", p99("infra.server.shed_us"));
    result->Layer("server.queue_depth_p99", Percentile(job.queue_depth, 99));
    result->Layer("server.credit_stalls",
                  static_cast<double>(
                      pass.CounterValue("infra.server.credit_stalls")));
    result->Layer("server.latency_p50_ms", Percentile(job.latency_ms, 50));
    result->Layer("server.latency_p99_ms", Percentile(job.latency_ms, 99));
    result->Layer("telemetry.overhead", ClosedTps(plain) / ClosedTps(job));
    result->Layer("telemetry.spans_evicted",
                  static_cast<double>(pass.evicted()));
  }
  result->spans.SetTimeBase(nullptr);
}

}  // namespace perfbench
