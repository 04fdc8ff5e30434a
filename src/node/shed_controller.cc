#include "node/shed_controller.h"

#include <algorithm>
#include <utility>

namespace themis {

ShedController::ShedController(const SiteOptions& options,
                               std::unique_ptr<Shedder> shedder,
                               QueryRows* rows)
    : options_(options),
      shedder_(std::move(shedder)),
      rows_(rows),
      detector_(options.headroom),
      stamper_(options.stw) {
  ib_.set_pool(&pool_);
}

bool ShedController::Ingest(Batch batch, SimTime now, const QueryRow* hosted) {
  stats_.batches_received += 1;
  stats_.tuples_received += batch.size();
  if (hosted == nullptr) {
    // Unknown query: either never hosted here or undeployed while this
    // batch was in flight. Drop at ingress (recycling the buffer).
    pool_.Release(std::move(batch));
    return false;
  }
  // Source batches carry unstamped tuples; apply Eq. (1) using the online
  // rate estimate for this (query, source) pair (§6 "SIC maintenance").
  stamper_.StampSourceBatch(&batch, now, hosted->graph->num_sources());
  ib_.Push(std::move(batch));
  return true;
}

void ShedController::RemoveQuery(QueryId q) {
  stamper_.RemoveQuery(q);
  ib_.RemoveQuery(q);
}

void ShedController::Admit(QueryRow& row, QueryId q, SimTime now, double sic,
                           uint64_t tuples) {
  row.Accepted(options_.stw).Add(now, sic, tuples);
  if (telemetry::Telemetry* tel = telemetry::Get()) {
    query_telemetry_.RecordAccepted(tel, q, sic, tuples);
  }
  stats_.batches_processed += 1;
  stats_.tuples_processed += tuples;
  interval_tuples_ += tuples;
}

void ShedController::ChargeBusy(SimDuration busy) {
  interval_busy_ += busy;
  stats_.busy_time += busy;
}

void ShedController::RollInterval() {
  stats_.detector_invocations += 1;
  cost_model_.RecordInterval(interval_tuples_, interval_busy_);
  interval_tuples_ = 0;
  interval_busy_ = 0;
}

size_t ShedController::EstimateCapacity() const {
  return cost_model_.EstimateCapacity(options_.shed_interval);
}

bool ShedController::DetectAndShed(SimTime now, size_t capacity) {
  telemetry::Telemetry* tel = telemetry::Get();
  stats_.last_capacity = capacity;

  rows_->RefreshEfficiency(now);

  bool overloaded = detector_.IsOverloaded(ib_.num_tuples(), capacity);
  if (tel != nullptr) {
    RecordShedTick(tel, ib_.num_tuples(), capacity, overloaded);
    pool_telemetry_.Publish(tel, pool_.stats());
  }
  if (!overloaded) return false;

  // The local accepted mass enters scaled to predict *result* SIC: queries
  // lose SIC mass semantically (filters dropping whole panes, join windows
  // with one side missing), and equalising raw accepted mass would leave
  // low-efficiency queries permanently below the water level.
  rows_->FillShedInputs(now, &query_sic_snapshot_, &accepted_snapshot_);
  ShedContext ctx;
  ctx.capacity_tuples = capacity;
  ctx.now = now;
  ctx.query_sic = &query_sic_snapshot_;
  ctx.local_accepted_sic = &accepted_snapshot_;
  std::vector<size_t> keep = shedder_->SelectBatchesToKeep(ib_.batches(), ctx);
  if (tel != nullptr) {
    RecordShedDrops(tel, &query_telemetry_, ib_.batches(), keep);
  }
  size_t before_batches = ib_.num_batches();
  size_t dropped = ib_.RetainIndices(keep);
  if (dropped > 0) {
    stats_.shed_invocations += 1;
    stats_.tuples_shed += dropped;
    stats_.batches_shed += before_batches - ib_.num_batches();
  }
  return true;
}

}  // namespace themis
