// BALANCE-SIC fair shedding — Algorithm 1 of §5, with the practical
// refinements of §6:
//   * batch granularity (batches are the shedding unit),
//   * local SIC projection: the shedder starts from the disseminated result
//     SIC minus the SIC mass sitting in the input buffer ("assume everything
//     is discarded"), then adds batches back as it accepts them,
//   * max(x_SIC) selection: within a query, the highest-SIC batches are
//     accepted first so capacity buys the most valuable tuples.
#ifndef THEMIS_SHEDDING_BALANCE_SIC_SHEDDER_H_
#define THEMIS_SHEDDING_BALANCE_SIC_SHEDDER_H_

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "shedding/shedder.h"

namespace themis {

/// Tuning knobs; defaults reproduce the paper, the alternatives exist for the
/// ablation benches called out in DESIGN.md §5.
struct BalanceSicOptions {
  /// Accept highest-SIC batches first (Alg. 1 line 16, max(x_SIC)). When
  /// false, batches are accepted in FIFO arrival order (ablation).
  bool prefer_high_sic = true;
  /// Subtract in-buffer SIC mass from the disseminated q_SIC before the
  /// water-filling loop (§6 tuple shedder projection). When false, the loop
  /// starts from the disseminated value directly (ablation).
  bool project_local_shedding = true;
  /// Within a query, interleave accepted batches round-robin across the
  /// query's sources. With equal-rate sources all batches carry the same SIC
  /// value, so this is a tie-break refinement of max(x_SIC) that keeps
  /// multi-input operators (join, covariance) fed from every source — an
  /// all-CPU-no-memory window would emit nothing and lose its SIC mass.
  bool interleave_sources = true;
  /// Within a query, bucket candidate batches by the operator window their
  /// creation time falls into and complete one bucket before starting the
  /// next. Under extreme overload a query keeps less than one batch per
  /// window; spreading those few batches across many windows would leave
  /// every multi-input window half-fed and productive of nothing. Completing
  /// windows one at a time keeps the accepted SIC mass result-bearing.
  /// 0 disables grouping.
  SimDuration window_group = kSecond;
};

/// Orders candidate batch indices into `ib` best-first for the max(x_SIC)
/// rule: descending batch SIC, FIFO (ascending index) order breaking ties.
/// `idxs` must arrive ascending; `keys` is caller-owned scratch. The result
/// is exactly the permutation a stable sort by descending SIC gives.
void SortBySicDesc(std::vector<size_t>* idxs, const std::deque<Batch>& ib,
                   std::vector<std::pair<double, size_t>>* keys);

/// \brief Water-filling batch selection that equalises query result SIC.
///
/// Each iteration raises the query with the minimum projected SIC up to the
/// second-lowest level by accepting its batches, mirroring
/// selectTuplesToKeep(); the projected values play the role of updateSIC(Q).
class BalanceSicShedder : public Shedder {
 public:
  BalanceSicShedder(Rng rng, BalanceSicOptions options = {})
      : rng_(rng), options_(options) {}

  std::vector<size_t> SelectBatchesToKeep(const std::deque<Batch>& ib,
                                          const ShedContext& ctx) override;

  const char* name() const override { return "balance-sic"; }

 private:
  struct QueryState {
    QueryId query = kInvalidId;
    double projected_sic = 0.0;   // plays the role of q_SIC during the loop
    std::vector<size_t> batches;  // candidate batch indices, best-first
    size_t next = 0;              // cursor into `batches`

    bool Exhausted() const { return next >= batches.size(); }
  };

  Rng rng_;
  BalanceSicOptions options_;

  // Scratch reused across invocations: the selection runs every shedding
  // interval over the whole input buffer, and re-allocating its per-query
  // index vectors each time dominated profiles. The nested vectors keep
  // their capacity; *_used_ counters track the live prefix.
  std::vector<QueryState> states_;
  // Query -> states_ slot, generation-stamped so resetting between
  // invocations is O(1) (query ids are small dense ints).
  struct IndexSlot {
    uint64_t generation = 0;
    uint32_t slot = 0;
  };
  std::vector<IndexSlot> state_index_;
  uint64_t generation_ = 0;
  std::vector<std::pair<int64_t, std::vector<size_t>>> buckets_;
  size_t buckets_used_ = 0;
  std::vector<std::pair<SourceId, std::vector<size_t>>> per_source_;
  size_t per_source_used_ = 0;
  std::vector<std::pair<double, int64_t>> bucket_order_;
  std::vector<size_t> flattened_;
  // (sic, index) keys of the best-first candidate sort.
  std::vector<std::pair<double, size_t>> sort_keys_;
  // All states' projected SIC values, kept sorted during the acceptance
  // loop so the q'' target level is an upper_bound instead of a scan.
  std::vector<double> sorted_sic_;
};

}  // namespace themis

#endif  // THEMIS_SHEDDING_BALANCE_SIC_SHEDDER_H_
