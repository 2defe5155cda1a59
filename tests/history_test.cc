// Tests for HistoryStore and the query processor's past-query support
// ("a range query may ask about the past, present, or the future").

#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/core/history_store.h"
#include "stq/core/query_processor.h"

namespace stq {
namespace {

TEST(HistoryStoreTest, SampleAndHoldSemantics) {
  HistoryStore history;
  history.RecordReport(1, Point{0.1, 0.1}, 10.0);
  history.RecordReport(1, Point{0.5, 0.5}, 20.0);

  EXPECT_FALSE(history.LocationAt(1, 9.9).has_value());  // before first report
  EXPECT_EQ(*history.LocationAt(1, 10.0), (Point{0.1, 0.1}));
  EXPECT_EQ(*history.LocationAt(1, 15.0), (Point{0.1, 0.1}));  // holds
  EXPECT_EQ(*history.LocationAt(1, 20.0), (Point{0.5, 0.5}));
  EXPECT_EQ(*history.LocationAt(1, 99.0), (Point{0.5, 0.5}));
  EXPECT_FALSE(history.LocationAt(2, 50.0).has_value());  // unknown object
}

TEST(HistoryStoreTest, SameTimestampSupersedes) {
  HistoryStore history;
  history.RecordReport(1, Point{0.1, 0.1}, 10.0);
  history.RecordReport(1, Point{0.2, 0.2}, 10.0);
  EXPECT_EQ(*history.LocationAt(1, 10.0), (Point{0.2, 0.2}));
  EXPECT_EQ(history.num_samples(), 1u);
}

TEST(HistoryStoreTest, RemovalTombstones) {
  HistoryStore history;
  history.RecordReport(1, Point{0.1, 0.1}, 10.0);
  history.RecordRemoval(1, 20.0);
  EXPECT_TRUE(history.LocationAt(1, 15.0).has_value());
  EXPECT_FALSE(history.LocationAt(1, 20.0).has_value());
  EXPECT_FALSE(history.LocationAt(1, 30.0).has_value());

  // An id reused after removal comes back.
  history.RecordReport(1, Point{0.9, 0.9}, 25.0);
  EXPECT_EQ(*history.LocationAt(1, 26.0), (Point{0.9, 0.9}));
  EXPECT_FALSE(history.LocationAt(1, 22.0).has_value());
}

TEST(HistoryStoreTest, OutOfOrderReportsClampForward) {
  HistoryStore history;
  history.RecordReport(1, Point{0.1, 0.1}, 10.0);
  history.RecordReport(1, Point{0.2, 0.2}, 5.0);  // stale device clock
  // Clamped to t=10 and supersedes that sample.
  EXPECT_EQ(*history.LocationAt(1, 10.0), (Point{0.2, 0.2}));
  EXPECT_FALSE(history.LocationAt(1, 5.0).has_value());
}

TEST(HistoryStoreTest, LinearInterpolationBetweenReports) {
  HistoryStore history;
  history.RecordReport(1, Point{0.0, 0.0}, 0.0);
  history.RecordReport(1, Point{1.0, 0.5}, 10.0);

  // Sample-and-hold sits at the earlier report.
  EXPECT_EQ(*history.LocationAt(1, 5.0), (Point{0.0, 0.0}));
  // Linear interpolation walks the straight line between reports.
  const Point mid =
      *history.LocationAt(1, 5.0, HistoryStore::Interpolation::kLinear);
  EXPECT_DOUBLE_EQ(mid.x, 0.5);
  EXPECT_DOUBLE_EQ(mid.y, 0.25);
  // Past the last report both modes hold the final position.
  EXPECT_EQ(*history.LocationAt(1, 20.0,
                                HistoryStore::Interpolation::kLinear),
            (Point{1.0, 0.5}));
}

TEST(HistoryStoreTest, LinearInterpolationStopsAtRemoval) {
  HistoryStore history;
  history.RecordReport(1, Point{0.0, 0.0}, 0.0);
  history.RecordRemoval(1, 10.0);
  // No interpolation toward a tombstone: the object holds, then vanishes.
  EXPECT_EQ(*history.LocationAt(1, 5.0,
                                HistoryStore::Interpolation::kLinear),
            (Point{0.0, 0.0}));
  EXPECT_FALSE(history.LocationAt(1, 10.0,
                                  HistoryStore::Interpolation::kLinear)
                   .has_value());
}

TEST(HistoryStoreTest, RangeAtWithInterpolation) {
  HistoryStore history;
  history.RecordReport(1, Point{0.0, 0.5}, 0.0);
  history.RecordReport(1, Point{1.0, 0.5}, 10.0);
  const Rect center{0.4, 0.4, 0.6, 0.6};
  // At t=5 the interpolated position (0.5, 0.5) is inside; the held
  // position (0.0, 0.5) is not.
  EXPECT_TRUE(history.RangeAt(center, 5.0).empty());
  EXPECT_EQ(history.RangeAt(center, 5.0,
                            HistoryStore::Interpolation::kLinear),
            std::vector<ObjectId>{1});
}

TEST(HistoryStoreTest, RangeAtFiltersByHistoricLocation) {
  HistoryStore history;
  history.RecordReport(1, Point{0.1, 0.1}, 0.0);
  history.RecordReport(2, Point{0.5, 0.5}, 0.0);
  history.RecordReport(1, Point{0.6, 0.6}, 10.0);  // p1 moves into the region

  const Rect region{0.4, 0.4, 0.7, 0.7};
  EXPECT_EQ(history.RangeAt(region, 5.0), std::vector<ObjectId>{2});
  EXPECT_EQ(history.RangeAt(region, 10.0), (std::vector<ObjectId>{1, 2}));
  EXPECT_TRUE(history.RangeAt(region, -1.0).empty());
}

TEST(HistoryStoreTest, PruneKeepsSampleAndHold) {
  HistoryStore history;
  history.RecordReport(1, Point{0.1, 0.1}, 0.0);
  history.RecordReport(1, Point{0.2, 0.2}, 10.0);
  history.RecordReport(1, Point{0.3, 0.3}, 20.0);
  history.PruneBefore(15.0);
  // The t=10 sample must survive: it is the holder for queries at t=15.
  EXPECT_EQ(*history.LocationAt(1, 15.0), (Point{0.2, 0.2}));
  EXPECT_EQ(*history.LocationAt(1, 25.0), (Point{0.3, 0.3}));
  EXPECT_EQ(history.num_samples(), 2u);  // t=0 dropped
}

TEST(HistoryStoreTest, PruneDropsDeadTombstones) {
  HistoryStore history;
  history.RecordReport(1, Point{0.1, 0.1}, 0.0);
  history.RecordRemoval(1, 5.0);
  history.PruneBefore(50.0);
  EXPECT_EQ(history.num_objects_tracked(), 0u);
}

// History lives in the ingestion front, so past queries answer the same
// on the single grid and on a sharded engine.
class PastQueryTest : public ::testing::TestWithParam<int> {
 protected:
  QueryProcessorOptions Options() const {
    QueryProcessorOptions options;
    options.num_shards = GetParam();
    return options;
  }
};

TEST_P(PastQueryTest, RequiresHistoryOption) {
  QueryProcessor qp(Options());  // record_history defaults to false
  EXPECT_EQ(qp.history(), nullptr);
  EXPECT_EQ(qp.EvaluatePastRangeQuery(Rect{0, 0, 1, 1}, 0.0).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_P(PastQueryTest, AnswersMatchThePastStates) {
  QueryProcessorOptions options = Options();
  options.record_history = true;
  QueryProcessor qp(options);
  ASSERT_NE(qp.history(), nullptr);

  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.9, 0.9}, 0.0).ok());
  qp.EvaluateTick(0.0);
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.9, 0.1}, 10.0).ok());
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.5, 0.5}, 10.0).ok());
  qp.EvaluateTick(10.0);
  ASSERT_TRUE(qp.RemoveObject(2).ok());
  qp.EvaluateTick(20.0);

  const Rect center{0.4, 0.4, 0.6, 0.6};
  EXPECT_EQ(*qp.EvaluatePastRangeQuery(center, 0.0),
            std::vector<ObjectId>{1});
  EXPECT_EQ(*qp.EvaluatePastRangeQuery(center, 10.0),
            std::vector<ObjectId>{2});
  EXPECT_TRUE(qp.EvaluatePastRangeQuery(center, 20.0)->empty());
}

// Property: for a random report stream, a past query at any recorded tick
// time equals the present-time answer that was current at that tick.
TEST_P(PastQueryTest, PastAnswersEqualHistoricalPresentAnswers) {
  QueryProcessorOptions options = Options();
  options.record_history = true;
  options.grid_cells_per_side = 8;
  QueryProcessor qp(options);
  Xorshift128Plus rng(321);

  const Rect region{0.3, 0.3, 0.7, 0.7};
  ASSERT_TRUE(qp.RegisterRangeQuery(1, region).ok());
  for (ObjectId id = 1; id <= 40; ++id) {
    ASSERT_TRUE(
        qp.UpsertObject(id, Point{rng.NextDouble(), rng.NextDouble()}, 0.0)
            .ok());
  }
  std::vector<std::vector<ObjectId>> answers_at_tick;
  qp.EvaluateTick(0.0);
  answers_at_tick.push_back(*qp.CurrentAnswer(1));

  for (int tick = 1; tick <= 10; ++tick) {
    for (ObjectId id = 1; id <= 40; ++id) {
      if (rng.NextBool(0.5)) {
        ASSERT_TRUE(qp.UpsertObject(id,
                                    Point{rng.NextDouble(), rng.NextDouble()},
                                    tick * 10.0)
                        .ok());
      }
    }
    qp.EvaluateTick(tick * 10.0);
    answers_at_tick.push_back(*qp.CurrentAnswer(1));
  }

  for (int tick = 0; tick <= 10; ++tick) {
    EXPECT_EQ(*qp.EvaluatePastRangeQuery(region, tick * 10.0),
              answers_at_tick[tick])
        << "past answer diverged at tick " << tick;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, PastQueryTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace stq
