// Deterministic driver for oracle runs: advances a ManualClock through the
// merged timeline of arrivals, paced admissions and shed ticks, quiescing
// the pipeline at every instant — reproducing the discrete-event schedule on
// the server machinery (0 workers: caller-driven; >=1 workers: real threads
// synchronized at each instant). Also the pinned overloaded scenario the
// server-vs-DES tests and bench run on both runtimes.
#ifndef THEMIS_SERVER_ORACLE_DRIVER_H_
#define THEMIS_SERVER_ORACLE_DRIVER_H_

#include <memory>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/clock.h"
#include "server/server_pipeline.h"

namespace themis {

/// A source batch to Push at an absolute time.
struct TimedBatch {
  SimTime at = 0;
  Batch batch;
};

/// Drives `pipeline` (started, pace_admission + kModeled accounting, on
/// `clock`) through `arrivals` (sorted ascending by `at`; same-time order
/// is the injection order) until simulated time `until` inclusive. Ticks
/// win ties against arrivals and admissions, like the event queue schedules
/// them. Consumes the arrival batches.
void DriveDeterministic(ServerPipeline* pipeline, ManualClock* clock,
                        std::vector<TimedBatch>* arrivals, SimTime until);

// The pinned oracle scenario: four AVG queries overloading one site.
// Constraints that make DES/server equality exact:
//  - every operator cost divided by cpu_speed is an integral microsecond
//    count (the DES truncates per-admission work sums once, the server
//    truncates per charge; integral pieces make both exact),
//  - per-batch work stays below the 250 ms shed interval (ticks then always
//    precede same-time admissions, as the event queue schedules them),
//  - arrival times avoid the 250 ms tick grid (coprime periods; first
//    collision at 3.25 s, past the 3.2 s horizon).
constexpr SimTime kOracleHorizon = Millis(3200);
constexpr double kOracleCpuSpeed = 0.01;  // 1 us/tuple costs -> 100 us/tuple
constexpr int kOracleQueries = 4;

using OracleGraphs = std::vector<std::unique_ptr<QueryGraph>>;
/// Query q averages source 10 + q over 1 s tumbling windows.
OracleGraphs MakeOracleGraphs();
/// The server twin's options: modeled accounting, paced admission, no SIC
/// dissemination (the DES twin has no coordinator either), and channels
/// that never backpressure.
ServerOptions OracleServerOptions(size_t workers);

/// What one runtime admitted and shed on the scenario.
struct OracleRun {
  std::vector<double> accepted_sic;       ///< by QueryId
  std::vector<uint64_t> accepted_tuples;  ///< by QueryId
  SiteStats stats;
};
/// Runs the scenario on a discrete-event Node hosting `graphs`.
OracleRun RunOracleDes(const OracleGraphs& graphs, SimTime horizon);
/// Runs the scenario on a ServerPipeline hosting `graphs`, capturing
/// checkpoints into `store` (not owned) with `config` when non-null.
OracleRun RunOracleServer(const OracleGraphs& graphs, size_t workers,
                          SimTime horizon, CheckpointStore* store = nullptr,
                          const CheckpointConfig& config = {});

}  // namespace themis

#endif  // THEMIS_SERVER_ORACLE_DRIVER_H_
