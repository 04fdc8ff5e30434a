// Oracle equivalence: the real-time server in deterministic mode (manual
// clock, modeled cost accounting, paced admission) must reproduce the
// discrete-event Node's schedule exactly — same admissions, same shed
// decisions, same accepted-SIC totals, bit for bit — on a pinned overloaded
// multi-query scenario. Run both caller-driven (0 workers) and on one real
// worker thread.
#include <gtest/gtest.h>

#include <memory>

#include "runtime/checkpoint.h"
#include "runtime/clock.h"
#include "server/oracle_driver.h"
#include "server/server_pipeline.h"
#include "shedding/balance_sic_shedder.h"

namespace themis {
namespace {

// The pinned scenario (server/oracle_driver.h) runs on both runtimes over
// the same graph objects.
void RunServerAndCompare(size_t workers) {
  OracleGraphs graphs = MakeOracleGraphs();
  OracleRun des = RunOracleDes(graphs, kOracleHorizon);
  // Sanity: the scenario genuinely overloads the node and sheds.
  ASSERT_GT(des.stats.tuples_shed, 0u);
  ASSERT_GT(des.stats.tuples_processed, 0u);

  OracleRun server = RunOracleServer(graphs, workers, kOracleHorizon);
  for (int q = 0; q < kOracleQueries; ++q) {
    SCOPED_TRACE(q);
    EXPECT_EQ(server.accepted_tuples[q], des.accepted_tuples[q]);
    EXPECT_DOUBLE_EQ(server.accepted_sic[q], des.accepted_sic[q]);
  }
  EXPECT_EQ(server.stats.tuples_processed, des.stats.tuples_processed);
  EXPECT_EQ(server.stats.tuples_shed, des.stats.tuples_shed);
  EXPECT_EQ(server.stats.shed_invocations, des.stats.shed_invocations);
}

TEST(ServerOracleTest, CallerDrivenMatchesDes) { RunServerAndCompare(0); }

TEST(ServerOracleTest, SingleWorkerThreadMatchesDes) { RunServerAndCompare(1); }

// --- server checkpoint seam ----------------------------------------------

// Capture rides the server's tick exactly like the DES shed tick: enabling
// checkpoints in deterministic mode must not change a single accepted
// tuple, SIC total or shed decision.
TEST(ServerCheckpointTest, CaptureIsByteIdenticalToOff) {
  CheckpointConfig config;
  config.enabled = true;
  config.cadence = Millis(500);
  CheckpointStore store;
  OracleRun off = RunOracleServer(MakeOracleGraphs(), 0, kOracleHorizon);
  OracleRun on =
      RunOracleServer(MakeOracleGraphs(), 0, kOracleHorizon, &store, config);
  ASSERT_GT(store.stats().taken, 0u);  // genuinely captured
  for (int q = 0; q < kOracleQueries; ++q) {
    SCOPED_TRACE(q);
    EXPECT_EQ(on.accepted_tuples[q], off.accepted_tuples[q]);
    EXPECT_DOUBLE_EQ(on.accepted_sic[q], off.accepted_sic[q]);
  }
  EXPECT_EQ(on.stats.tuples_processed, off.stats.tuples_processed);
  EXPECT_EQ(on.stats.tuples_shed, off.stats.tuples_shed);
  EXPECT_EQ(on.stats.shed_invocations, off.stats.shed_invocations);
}

// Process-restart model: a fresh pipeline hosting twin graphs restores the
// previous incarnation's operator state from the shared store before
// Start(). The twins' re-serialized images are byte-equal to the stored
// ones — the restore hit every (query, operator) pair, none were missed.
TEST(ServerCheckpointTest, RestartRestoresEveryOperatorFromTheStore) {
  CheckpointStore store;
  CheckpointConfig config;
  config.enabled = true;
  config.cadence = Millis(250);
  RunOracleServer(MakeOracleGraphs(), 0, kOracleHorizon, &store, config);
  // Every operator of every query has an image (3 ops per avg graph).
  ASSERT_EQ(store.size(), static_cast<size_t>(3 * kOracleQueries));

  // "Restart": twin graphs (same builder, same ids), fresh pipeline, same
  // durable store.
  OracleGraphs twins = MakeOracleGraphs();
  ManualClock clock2;
  ServerPipeline restarted(OracleServerOptions(0), &clock2,
                           std::make_unique<BalanceSicShedder>(Rng(7)));
  for (const auto& g : twins) restarted.AddQuery(g.get());
  restarted.EnableCheckpoints(&store, config);
  restarted.RestoreHostedFromStore();
  EXPECT_EQ(store.stats().restores,
            static_cast<uint64_t>(3 * kOracleQueries));
  EXPECT_EQ(store.stats().missed, 0u);

  for (int q = 0; q < kOracleQueries; ++q) {
    const QueryGraph* twin = twins[q].get();
    for (FragmentId frag : twin->fragment_ids()) {
      for (OperatorId oid : twin->fragment_ops(frag)) {
        SCOPED_TRACE(testing::Message() << "q=" << q << " op=" << oid);
        const CheckpointStore::Entry* entry = store.Find(q, oid);
        ASSERT_NE(entry, nullptr);
        CheckpointWriter w;
        twin->op(oid)->Checkpoint(&w);
        EXPECT_EQ(w.bytes(), entry->bytes);
      }
    }
  }
}

}  // namespace
}  // namespace themis
