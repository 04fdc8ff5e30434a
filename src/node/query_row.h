// Per-query state of a site, one dense row per QueryId. The discrete-event
// Node and the real-time ServerPipeline both keep a QueryTable of rows that
// extend QueryRow with their executor's own fields, so a per-batch or
// per-tick lookup is an index, not a map find. Their shared ShedController
// runs the table's shed-tick steps through the QueryRows interface.
#ifndef THEMIS_NODE_QUERY_ROW_H_
#define THEMIS_NODE_QUERY_ROW_H_

#include <algorithm>
#include <memory>
#include <vector>

#include "common/stats.h"
#include "common/time_types.h"
#include "runtime/query_graph.h"
#include "sic/stw_tracker.h"

namespace themis {

/// SIC mass and tuples of one query over the trailing STW, plus running
/// totals since the site started.
struct SicAccount {
  explicit SicAccount(SimDuration stw) : tracker(stw) {}

  void Add(SimTime now, double sic, uint64_t tuples) {
    tracker.AddResultSic(now, sic);
    total_sic += sic;
    total_tuples += tuples;
  }

  StwTracker tracker;
  double total_sic = 0.0;
  uint64_t total_tuples = 0;
};

/// The per-query fields both runtimes share.
struct QueryRow {
  /// The hosted query's graph; null while the row hosts nothing (a row can
  /// exist before hosting or after unhosting, e.g. for a late SIC update).
  const QueryGraph* graph = nullptr;
  /// Latest disseminated result SIC (§5.2); meaningful only if `has_sic`.
  double sic = 0.0;
  bool has_sic = false;
  /// Admission account, created with the first admitted batch: an empty
  /// StwTracker already allocates its deque, so rows stay lazy (and, held
  /// by pointer, cheap to move when the table grows).
  std::unique_ptr<SicAccount> accepted;
  /// Result SIC per accepted SIC, smoothed slowly. Updated only once a
  /// disseminated value has arrived.
  Ewma efficiency{0.05};

  void SetSic(double value) {
    sic = value;
    has_sic = true;
  }
  SicAccount& Accepted(SimDuration stw) {
    if (!accepted) accepted = std::make_unique<SicAccount>(stw);
    return *accepted;
  }
};

/// The shed-tick steps over a table's rows, whatever their row type.
class QueryRows {
 public:
  /// Shed-tick step run every tick: folds each admitted query's result SIC
  /// per accepted SIC into its efficiency estimate.
  virtual void RefreshEfficiency(SimTime now) = 0;
  /// Shed-tick step run on overloaded ticks: BALANCE-SIC's per-query
  /// inputs (see ShedContext), both indexed by QueryId.
  virtual void FillShedInputs(SimTime now, std::vector<double>* query_sic,
                              std::vector<double>* accepted) = 0;

 protected:
  ~QueryRows() = default;
};

/// \brief Dense table of `Row`s (QueryRow subtypes) indexed by QueryId.
///
/// Query ids are small non-negative ints. Index order is ascending query
/// order, which the deterministic tick loops rely on.
template <typename Row>
class QueryTable final : public QueryRows {
 public:
  /// The row of `q` (non-negative), growing the table on first use.
  Row& Get(QueryId q) {
    if (static_cast<size_t>(q) >= rows_.size()) rows_.resize(q + 1);
    return rows_[q];
  }
  /// The row of `q`, or null if the table never grew to it.
  Row* Find(QueryId q) {
    if (q < 0 || static_cast<size_t>(q) >= rows_.size()) return nullptr;
    return &rows_[q];
  }
  const Row* Find(QueryId q) const {
    if (q < 0 || static_cast<size_t>(q) >= rows_.size()) return nullptr;
    return &rows_[q];
  }
  /// The row of `q` if it hosts a query, else null.
  Row* Hosted(QueryId q) {
    Row* row = Find(q);
    return row != nullptr && row->graph != nullptr ? row : nullptr;
  }
  /// Drops every field of `q`'s row (query unhosting).
  void Reset(QueryId q) {
    if (Row* row = Find(q)) *row = Row{};
  }

  size_t size() const { return rows_.size(); }
  const Row& operator[](size_t q) const { return rows_[q]; }
  auto begin() { return rows_.begin(); }
  auto end() { return rows_.end(); }

  /// Shed-tick step run every tick: folds each admitted query's result SIC
  /// per accepted SIC into its efficiency estimate. The disseminated value
  /// lags the accept level by the operator pipeline latency, hence the slow
  /// EWMA; queries with (almost) nothing accepted or no disseminated value
  /// yet keep their estimate.
  void RefreshEfficiency(SimTime now) override {
    for (Row& row : rows_) {
      if (!row.accepted) continue;
      double accepted = row.accepted->tracker.QuerySic(now);
      if (accepted > 0.02 && row.has_sic) {
        row.efficiency.Update(std::clamp(row.sic / accepted, 0.0, 1.2));
      }
    }
  }

  /// Shed-tick step run on overloaded ticks: BALANCE-SIC's per-query inputs
  /// (see ShedContext), both indexed by QueryId. `query_sic` holds the
  /// disseminated values (0 where none arrived); `accepted` the trailing
  /// accepted mass scaled by the efficiency estimate, so it predicts result
  /// SIC (0 where nothing was admitted).
  void FillShedInputs(SimTime now, std::vector<double>* query_sic,
                      std::vector<double>* accepted) override {
    query_sic->assign(rows_.size(), 0.0);
    accepted->assign(rows_.size(), 0.0);
    for (size_t q = 0; q < rows_.size(); ++q) {
      Row& row = rows_[q];
      if (row.has_sic) (*query_sic)[q] = row.sic;
      if (!row.accepted) continue;
      double eff = 1.0;
      if (row.efficiency.has_value()) {
        eff = std::max(row.efficiency.value(), 0.05);
      }
      (*accepted)[q] = row.accepted->tracker.QuerySic(now) * eff;
    }
  }

 private:
  std::vector<Row> rows_;
};

}  // namespace themis

#endif  // THEMIS_NODE_QUERY_ROW_H_
