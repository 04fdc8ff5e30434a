// Tests of the Eq. (3) SIC propagation machinery (runtime/operator.h),
// including the paper's Figure 2 worked example.
#include <gtest/gtest.h>

#include <memory>

#include "runtime/batch_pool.h"
#include "runtime/operator.h"
#include "runtime/operators/aggregates.h"
#include "runtime/operators/receiver.h"

namespace themis {
namespace {

Tuple T(SimTime ts, double sic, double v = 0.0) {
  return Tuple(ts, sic, {Value(v)});
}

// A windowed operator that halves its pane (used to observe Eq. 3 shares).
class HalveOp : public WindowedOperator {
 public:
  explicit HalveOp(WindowSpec spec) : WindowedOperator("halve", spec, 1.0) {}

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override {
    for (size_t i = 0; i < pane.tuples.size() / 2; ++i) {
      Tuple t;
      t.values = pane.tuples[i].values;
      out->push_back(std::move(t));
    }
  }
};

TEST(WindowedOperatorTest, Eq3DistributesSicEqually) {
  HalveOp op(WindowSpec::TumblingTime(kSecond));
  op.Ingest({T(10, 0.1), T(20, 0.2), T(30, 0.3), T(40, 0.4)}, 0);
  std::vector<Tuple> out;
  op.Advance(kSecond, &out);
  ASSERT_EQ(out.size(), 2u);
  // Eq. (3): each derived tuple gets (0.1+0.2+0.3+0.4)/2.
  EXPECT_DOUBLE_EQ(out[0].sic, 0.5);
  EXPECT_DOUBLE_EQ(out[1].sic, 0.5);
  // Derived tuples are stamped with the pane end (emission time).
  EXPECT_EQ(out[0].timestamp, kSecond);
}

TEST(WindowedOperatorTest, EmptyOutputLosesSic) {
  // An operator that produces nothing from a pane: the pane's SIC mass does
  // not reach the result — exactly the "derived tuple not generated" case of
  // Fig. 2.
  class DropAllOp : public WindowedOperator {
   public:
    DropAllOp()
        : WindowedOperator("drop", WindowSpec::TumblingTime(kSecond), 1) {}

   protected:
    void ProcessPane(const Pane&, std::vector<Tuple>*) override {}
  };
  DropAllOp op;
  op.Ingest({T(10, 0.5)}, 0);
  std::vector<Tuple> out;
  op.Advance(kSecond, &out);
  EXPECT_TRUE(out.empty());
}

TEST(PassThroughOperatorTest, ForwardsTuplesWithSicUntouched) {
  PassThroughOperator op("pt", 0.1);
  op.Ingest({T(10, 0.25, 1.0), T(20, 0.125, 2.0)}, 0);
  std::vector<Tuple> out;
  op.Advance(0, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].sic, 0.25);
  EXPECT_DOUBLE_EQ(out[1].sic, 0.125);
  // Second advance emits nothing (buffer drained).
  out.clear();
  op.Advance(0, &out);
  EXPECT_TRUE(out.empty());
}

// Into an empty output whose buffer fits the pending tuples, Advance hands
// the pending buffer itself over (no copy) and keeps the output's former
// buffer; an output larger than the pending buffer gets a copy instead, so
// the operator never keeps more capacity than it grew to itself.
TEST(PassThroughOperatorTest, AdvanceHandsOffPendingBufferWithoutGrowingIt) {
  BatchPool pool;
  std::vector<Tuple> in;
  for (int i = 0; i < 8; ++i) in.push_back(T(10 + i, 0.125, i));

  PassThroughOperator op("pt", 0.1);
  op.Ingest(in, 0);  // pending: exactly 8 tuples of capacity
  std::vector<Tuple> out;
  out.reserve(8);
  const Tuple* out_buffer = out.data();
  op.Advance(0, &out);
  ASSERT_EQ(out.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(out[i].timestamp, 10 + i);
    EXPECT_EQ(out[i].values[0], Value(static_cast<double>(i)));
  }
  EXPECT_NE(out.data(), out_buffer);  // the tuples were not copied into it
  op.ReleaseState(&pool);
  Batch kept = pool.Acquire();
  EXPECT_EQ(kept.tuples.data(), out_buffer);  // swapped buffers
  EXPECT_EQ(kept.tuples.capacity(), 8u);

  PassThroughOperator small("pt", 0.1);
  small.Ingest({T(1, 0.5, 1.0), T(2, 0.5, 2.0)}, 0);  // capacity 2
  std::vector<Tuple> big;
  big.reserve(1024);
  const Tuple* big_buffer = big.data();
  small.Advance(0, &big);
  ASSERT_EQ(big.size(), 2u);
  EXPECT_EQ(big[0].timestamp, 1);
  EXPECT_EQ(big[1].timestamp, 2);
  EXPECT_EQ(big.data(), big_buffer);  // copied into the caller's buffer
  small.ReleaseState(&pool);
  Batch retained = pool.Acquire();
  EXPECT_LE(retained.tuples.capacity(), 2u);
}

// The Figure 2 example: a query with operators a (root), b, c over 2 sources.
// During one STW, b receives 4 source tuples (SIC 0.125 each), c receives
// 2 source tuples (SIC 0.25 each); b emits 2 derived tuples, c emits 2;
// a receives the 4 derived tuples and emits 2 result tuples.
class Fig2Op : public WindowedOperator {
 public:
  Fig2Op(std::string name, size_t outputs)
      : WindowedOperator(std::move(name), WindowSpec::TumblingTime(kSecond), 1),
        outputs_(outputs) {}

 protected:
  void ProcessPane(const Pane& pane, std::vector<Tuple>* out) override {
    if (pane.tuples.empty()) return;
    for (size_t i = 0; i < outputs_; ++i) out->push_back(Tuple());
  }

 private:
  size_t outputs_;
};

TEST(SicPropagationTest, Figure2PerfectProcessing) {
  Fig2Op b("b", 2), c("c", 2), a("a", 2);

  b.Ingest({T(1, 0.125), T(2, 0.125), T(3, 0.125), T(4, 0.125)}, 0);
  c.Ingest({T(1, 0.25), T(2, 0.25)}, 0);

  std::vector<Tuple> mid;
  b.Advance(kSecond, &mid);
  c.Advance(kSecond, &mid);
  ASSERT_EQ(mid.size(), 4u);
  // b's deriveds carry 0.25 each, c's carry 0.25 each (Fig. 2 middle row).
  for (const Tuple& t : mid) EXPECT_DOUBLE_EQ(t.sic, 0.25);

  a.Ingest(mid, 0);
  std::vector<Tuple> result;
  a.Advance(2 * kSecond, &result);
  ASSERT_EQ(result.size(), 2u);
  double q_sic = result[0].sic + result[1].sic;
  EXPECT_DOUBLE_EQ(result[0].sic, 0.5);
  EXPECT_DOUBLE_EQ(q_sic, 1.0);  // perfect processing
}

TEST(SicPropagationTest, Figure2WithShedding) {
  // Operator b sheds two of its input tuples; operator a sheds one of its
  // input (derived) tuples. Result SIC must be 0.5.
  Fig2Op b("b", 1), c("c", 2), a("a", 1);

  // b keeps only 2 of its 4 source tuples (shed before ingestion) and now
  // emits 1 derived tuple for the thinner pane.
  b.Ingest({T(1, 0.125), T(2, 0.125)}, 0);
  c.Ingest({T(1, 0.25), T(2, 0.25)}, 0);

  std::vector<Tuple> mid;
  b.Advance(kSecond, &mid);   // 1 tuple, SIC 0.25
  c.Advance(kSecond, &mid);   // 2 tuples, SIC 0.25 each
  ASSERT_EQ(mid.size(), 3u);

  // a sheds one of c's derived tuples: ingest only b's tuple and one of c's.
  a.Ingest({mid[0], mid[1]}, 0);
  std::vector<Tuple> result;
  a.Advance(2 * kSecond, &result);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result[0].sic, 0.5);  // q_SIC = 0.5, as in the paper
}

TEST(BinaryWindowedOperatorTest, PairsPanesByEnd) {
  class ConcatOp : public BinaryWindowedOperator {
   public:
    ConcatOp()
        : BinaryWindowedOperator("cc", WindowSpec::TumblingTime(kSecond), 1) {}
    int left_count = -1, right_count = -1;

   protected:
    void ProcessPanes(const Pane& l, const Pane& r,
                      std::vector<Tuple>* out) override {
      left_count = static_cast<int>(l.tuples.size());
      right_count = static_cast<int>(r.tuples.size());
      out->push_back(Tuple());
    }
  };
  ConcatOp op;
  op.Ingest({T(10, 0.3)}, 0);
  op.Ingest({T(20, 0.3), T(30, 0.4)}, 1);
  std::vector<Tuple> out;
  op.Advance(kSecond, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(op.left_count, 1);
  EXPECT_EQ(op.right_count, 2);
  EXPECT_DOUBLE_EQ(out[0].sic, 1.0);  // union of both panes' SIC
}

TEST(BinaryWindowedOperatorTest, SilentSideYieldsEmptyPane) {
  class CountSidesOp : public BinaryWindowedOperator {
   public:
    CountSidesOp()
        : BinaryWindowedOperator("cs", WindowSpec::TumblingTime(kSecond), 1) {}
    int calls = 0;
    size_t last_left = 99, last_right = 99;

   protected:
    void ProcessPanes(const Pane& l, const Pane& r,
                      std::vector<Tuple>* out) override {
      ++calls;
      last_left = l.tuples.size();
      last_right = r.tuples.size();
      out->push_back(Tuple());
    }
  };
  CountSidesOp op;
  op.Ingest({T(10, 0.5)}, 0);  // nothing on port 1
  std::vector<Tuple> out;
  op.Advance(kSecond, &out);
  EXPECT_EQ(op.calls, 1);
  EXPECT_EQ(op.last_left, 1u);
  EXPECT_EQ(op.last_right, 0u);
}

}  // namespace
}  // namespace themis
