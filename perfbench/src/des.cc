#include "des.h"

#include <cmath>
#include <string>

#include "runtime/batch_pool.h"
#include "sim/event_queue.h"

namespace perfbench {

using themis::Fsps;
using themis::NodeId;
using themis::SimTime;

DesRunner::DesRunner(Fsps* fsps, Checks* checks, Spans* spans, DesJob* job)
    : fsps_(fsps), checks_(checks), spans_(spans), job_(job) {
  alloc_base_ = Allocations();
}

void DesRunner::AdvanceTo(SimTime t) {
  while (fsps_->now() < t) {
    SimTime now = fsps_->now();
    SimTime next_second = (now / themis::kSecond + 1) * themis::kSecond;
    SimTime stop = std::min(t, next_second);
    run_clock_.Start();
    {
      SpanScope span(spans_, "bench.fsps.run_for");
      fsps_->RunFor(stop - now);
    }
    run_clock_.Stop();
    CheckBoundary();
  }
}

void DesRunner::ApplyPlan(themis::TopologyPlan plan,
                          const std::vector<NodeId>& crashes) {
  for (NodeId n : crashes) {
    themis::Node* node = fsps_->node(n);
    if (node != nullptr && node->alive()) {
      drained_at_crash_[n] += node->input_buffer().num_tuples();
    }
  }
  run_clock_.Start();
  themis::Status st;
  {
    SpanScope span(spans_, "bench.plan.apply");
    st = plan.Apply();
  }
  job_->plans += 1;
  run_clock_.Stop();
  checks_->Record("status.topology_plan_apply", st.ok(), st.ToString());
}

void DesRunner::CheckBoundary() {
  // Node-side tuple conservation. A node counts every live arrival as
  // received; what it received is processed, shed, still buffered, or was
  // drained from its buffer by a crash. Arrivals at a dead node are never
  // counted as received, so they do not enter the balance.
  uint64_t failed = 0;
  std::string detail;
  std::vector<NodeId> ids = fsps_->node_ids();
  for (NodeId n : ids) {
    themis::Node* node = fsps_->node(n);
    const themis::NodeStats& s = node->stats();
    uint64_t drained = 0;
    if (auto it = drained_at_crash_.find(n); it != drained_at_crash_.end()) {
      drained = it->second;
    }
    uint64_t accounted = s.tuples_processed + s.tuples_shed +
                         node->input_buffer().num_tuples() + drained;
    if (accounted != s.tuples_received) {
      if (failed == 0) {
        detail = "node " + std::to_string(n) + " at t_us=" +
                 std::to_string(fsps_->now()) + ": received " +
                 std::to_string(s.tuples_received) + " != processed+shed+" +
                 "buffered+drained " + std::to_string(accounted);
      }
      ++failed;
    }
  }
  checks_->Record("node_tuple_conservation", ids.size(), failed, detail);

  failed = 0;
  detail.clear();
  std::vector<double> sics = fsps_->AllQuerySics();
  for (size_t i = 0; i < sics.size(); ++i) {
    if (!std::isfinite(sics[i]) || sics[i] < 0.0 || sics[i] > 1.0) {
      if (failed == 0) {
        detail = "query #" + std::to_string(i) + " SIC " +
                 std::to_string(sics[i]) + " at t_us=" +
                 std::to_string(fsps_->now());
      }
      ++failed;
    }
  }
  checks_->Record("sic_finite_in_unit_interval", sics.size(), failed, detail);
}

void DesRunner::Finish() {
  job_->run_allocations = Allocations() - alloc_base_;
  job_->run_s = run_clock_.seconds();
  job_->run_laps = run_clock_.laps();
  themis::NodeStats total = fsps_->TotalNodeStats();
  job_->received = total.tuples_received;
  job_->processed = total.tuples_processed;
  job_->shed = total.tuples_shed;
  job_->dropped_dead = total.tuples_dropped_dead;
  job_->events = fsps_->engine()->executed();
  job_->messages = fsps_->network()->messages_sent();
  job_->bytes = fsps_->network()->bytes_sent();
  job_->replaced_fragments = fsps_->churn_stats().replaced_fragments;
  job_->final_sics = fsps_->AllQuerySics();
  job_->end_time = fsps_->now();
  for (NodeId n : fsps_->node_ids()) {
    const auto& s = fsps_->node(n)->checkpoint_store()->stats();
    job_->ckpt.taken += s.taken;
    job_->ckpt.skipped_clean += s.skipped_clean;
    job_->ckpt.restores += s.restores;
    job_->ckpt.missed += s.missed;
    job_->ckpt.bytes_written += s.bytes_written;
  }
}

double ReplayGenerationNsPerTuple(const DesJob& job, bool columnar) {
  themis::EventQueue queue;
  themis::BatchPool pool;
  uint64_t tuples = 0;
  auto sink = [&tuples, &pool](themis::Batch b) {
    tuples += b.size();
    pool.Release(std::move(b));
  };
  std::vector<std::unique_ptr<themis::SourceDriver>> drivers;
  drivers.reserve(job.sources.size());
  for (size_t i = 0; i < job.sources.size(); ++i) {
    themis::SourceModel model = job.sources[i].second;
    model.columnar = columnar;
    drivers.push_back(std::make_unique<themis::SourceDriver>(
        static_cast<themis::SourceId>(i), 0, 0, 0, model, &queue,
        themis::Rng(1000 + i), sink, &pool));
    themis::SourceDriver* d = drivers.back().get();
    queue.Schedule(job.sources[i].first, [d] { d->Start(); });
  }
  auto t0 = Clock::now();
  queue.RunUntil(job.end_time);
  double s = SecondsSince(t0);
  return tuples == 0 ? 0.0 : s * 1e9 / static_cast<double>(tuples);
}

}  // namespace perfbench
