// API-level tests of QueryProcessor: registration rules, buffering
// semantics, tick mechanics, answers, removals, and error handling.

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "stq/common/random.h"
#include "stq/core/query_processor.h"

namespace stq {
namespace {

QueryProcessorOptions TestOptions(int grid = 16) {
  QueryProcessorOptions options;
  options.grid_cells_per_side = grid;
  return options;
}

TEST(QueryProcessorTest, EmptyTickProducesNothing) {
  QueryProcessor qp(TestOptions());
  const TickResult r = qp.EvaluateTick(0.0);
  EXPECT_TRUE(r.updates.empty());
  EXPECT_EQ(r.stats.positive_updates, 0u);
  EXPECT_EQ(qp.num_objects(), 0u);
}

TEST(QueryProcessorTest, ReportsAreBufferedUntilTick) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 0.0).ok());
  EXPECT_EQ(qp.num_objects(), 0u);  // not yet applied
  EXPECT_EQ(qp.pending_reports(), 1u);
  qp.EvaluateTick(0.0);
  EXPECT_EQ(qp.num_objects(), 1u);
  EXPECT_EQ(qp.pending_reports(), 0u);
}

TEST(QueryProcessorTest, LastReportWinsWithinOneTick) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 0.1, 0.1}).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.05, 0.05}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.9, 0.9}, 0.5).ok());
  const TickResult r = qp.EvaluateTick(1.0);
  // Only the final location matters: the object never enters the answer.
  EXPECT_TRUE(r.updates.empty());
  EXPECT_EQ(r.stats.object_updates_applied, 1u);
}

TEST(QueryProcessorTest, StaleObjectReportRejected) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 10.0).ok());
  qp.EvaluateTick(10.0);
  EXPECT_TRUE(qp.UpsertObject(1, Point{0.6, 0.6}, 5.0).IsInvalidArgument());
  EXPECT_TRUE(qp.UpsertObject(1, Point{0.6, 0.6}, 10.0).ok());  // equal ok
}

TEST(QueryProcessorTest, StaleCheckAgainstPendingRemoval) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 10.0).ok());
  qp.EvaluateTick(10.0);
  ASSERT_TRUE(qp.RemoveObject(1).ok());
  // After a pending removal the id may be reused with any timestamp.
  EXPECT_TRUE(qp.UpsertObject(1, Point{0.1, 0.1}, 0.0).ok());
}

TEST(QueryProcessorTest, StaleReportAgainstPendingUpsertRejected) {
  // Regression: a second report for the same object within one tick with
  // an *older* timestamp must not overwrite the newer pending report.
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.4, 0.4, 0.6, 0.6}).ok());
  qp.EvaluateTick(0.0);
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 5.0).ok());
  EXPECT_TRUE(qp.UpsertObject(1, Point{0.9, 0.9}, 3.0).IsInvalidArgument());
  EXPECT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 5.0).ok());  // equal ok
  const TickResult r = qp.EvaluateTick(6.0);
  // The t=5 report survived: the object is inside the query.
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Positive(1, 1)});
  EXPECT_EQ(qp.object_store().Find(1)->t, 5.0);
}

TEST(QueryProcessorTest, StaleCheckAfterRemoveThenUpsertUsesPendingTime) {
  // After remove + re-upsert within one tick, the pending upsert's
  // timestamp (not the doomed store record's) is the staleness baseline.
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 10.0).ok());
  qp.EvaluateTick(10.0);
  ASSERT_TRUE(qp.RemoveObject(1).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.1, 0.1}, 3.0).ok());  // id reuse
  EXPECT_TRUE(qp.UpsertObject(1, Point{0.2, 0.2}, 2.0).IsInvalidArgument());
  EXPECT_TRUE(qp.UpsertObject(1, Point{0.2, 0.2}, 4.0).ok());
  qp.EvaluateTick(11.0);
  EXPECT_EQ(qp.object_store().Find(1)->t, 4.0);
}

TEST(QueryProcessorTest, RemoveUnknownObjectFails) {
  QueryProcessor qp(TestOptions());
  EXPECT_TRUE(qp.RemoveObject(42).IsNotFound());
}

TEST(QueryProcessorTest, RemoveBufferedObjectIsANoOp) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 0.0).ok());
  ASSERT_TRUE(qp.RemoveObject(1).ok());  // cancels the pending upsert
  qp.EvaluateTick(0.0);
  EXPECT_EQ(qp.num_objects(), 0u);
}

TEST(QueryProcessorTest, RemovalEmitsNegativesForMemberships) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.4, 0.4, 0.6, 0.6}).ok());
  ASSERT_TRUE(qp.UpsertObject(7, Point{0.5, 0.5}, 0.0).ok());
  qp.EvaluateTick(0.0);
  ASSERT_TRUE(qp.RemoveObject(7).ok());
  const TickResult r = qp.EvaluateTick(1.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Negative(1, 7)});
  EXPECT_EQ(qp.num_objects(), 0u);
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(QueryProcessorTest, DuplicateQueryRegistrationRejected) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 0.1, 0.1}).ok());
  EXPECT_TRUE(
      qp.RegisterRangeQuery(1, Rect{0.2, 0.2, 0.3, 0.3}).IsAlreadyExists());
  qp.EvaluateTick(0.0);
  EXPECT_TRUE(
      qp.RegisterKnnQuery(1, Point{0.5, 0.5}, 2).IsAlreadyExists());
}

TEST(QueryProcessorTest, EmptyRegionRejected) {
  QueryProcessor qp(TestOptions());
  EXPECT_TRUE(qp.RegisterRangeQuery(1, Rect::Empty()).IsInvalidArgument());
  EXPECT_TRUE(qp.RegisterPredictiveQuery(2, Rect::Empty(), 0.0, 1.0)
                  .IsInvalidArgument());
}

TEST(QueryProcessorTest, BadKnnParametersRejected) {
  QueryProcessor qp(TestOptions());
  EXPECT_TRUE(qp.RegisterKnnQuery(1, Point{0.5, 0.5}, 0).IsInvalidArgument());
  EXPECT_TRUE(qp.RegisterKnnQuery(1, Point{0.5, 0.5}, -3).IsInvalidArgument());
}

TEST(QueryProcessorTest, BadPredictiveWindowRejected) {
  QueryProcessor qp(TestOptions());
  EXPECT_TRUE(qp.RegisterPredictiveQuery(1, Rect{0, 0, 1, 1}, 5.0, 3.0)
                  .IsInvalidArgument());
}

TEST(QueryProcessorTest, MoveUnknownQueryFails) {
  QueryProcessor qp(TestOptions());
  EXPECT_TRUE(qp.MoveRangeQuery(9, Rect{0, 0, 1, 1}).IsNotFound());
  EXPECT_TRUE(qp.MoveKnnQuery(9, Point{0.5, 0.5}).IsNotFound());
  EXPECT_TRUE(qp.MovePredictiveQuery(9, Rect{0, 0, 1, 1}).IsNotFound());
}

TEST(QueryProcessorTest, MoveWrongKindFails) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0, 0, 0.1, 0.1}).ok());
  qp.EvaluateTick(0.0);
  EXPECT_TRUE(qp.MoveKnnQuery(1, Point{0.5, 0.5}).IsInvalidArgument());
  EXPECT_TRUE(
      qp.MovePredictiveQuery(1, Rect{0, 0, 1, 1}).IsInvalidArgument());
}

TEST(QueryProcessorTest, MoveOnPendingRegistrationFoldsIn) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.85, 0.85}, 0.0).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 0.1, 0.1}).ok());
  // Move before the registration ever ticked: the query is born at the
  // final region.
  ASSERT_TRUE(qp.MoveRangeQuery(1, Rect{0.8, 0.8, 0.9, 0.9}).ok());
  const TickResult r = qp.EvaluateTick(0.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Positive(1, 1)});
}

TEST(QueryProcessorTest, UnregisterDropsSilently) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.4, 0.4, 0.6, 0.6}).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 0.0).ok());
  qp.EvaluateTick(0.0);
  ASSERT_TRUE(qp.UnregisterQuery(1).ok());
  const TickResult r = qp.EvaluateTick(1.0);
  EXPECT_TRUE(r.updates.empty());  // the client dropped the answer itself
  EXPECT_EQ(qp.num_queries(), 0u);
  // The object's QList must have been scrubbed.
  EXPECT_TRUE(qp.object_store().Find(1)->queries.empty());
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(QueryProcessorTest, UnregisterUnknownFails) {
  QueryProcessor qp(TestOptions());
  EXPECT_TRUE(qp.UnregisterQuery(1).IsNotFound());
}

TEST(QueryProcessorTest, RegisterUnregisterWithinOneTickIsANoOp) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0, 0, 1, 1}).ok());
  ASSERT_TRUE(qp.UnregisterQuery(1).ok());
  const TickResult r = qp.EvaluateTick(0.0);
  EXPECT_TRUE(r.updates.empty());
  EXPECT_EQ(qp.num_queries(), 0u);
}

TEST(QueryProcessorTest, MoveAfterUnregisterDoesNotResurrect) {
  // Regression: register → unregister → move within one tick. The move is
  // rejected, and even if one reached the buffer it must not fold into the
  // pending unregister and resurrect the query (see UpdateBuffer tests for
  // the buffer-layer half of this contract).
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 0.0).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.4, 0.4, 0.6, 0.6}).ok());
  qp.EvaluateTick(0.0);
  ASSERT_TRUE(qp.UnregisterQuery(1).ok());
  EXPECT_TRUE(qp.MoveRangeQuery(1, Rect{0.4, 0.4, 0.6, 0.6}).IsNotFound());
  const TickResult r = qp.EvaluateTick(1.0);
  EXPECT_TRUE(r.updates.empty());
  EXPECT_EQ(qp.num_queries(), 0u);
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(QueryProcessorTest, ReRegistrationAfterUnregisterInSameTick) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 0.0).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0, 0, 0.1, 0.1}).ok());
  qp.EvaluateTick(0.0);
  ASSERT_TRUE(qp.UnregisterQuery(1).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.4, 0.4, 0.6, 0.6}).ok());
  const TickResult r = qp.EvaluateTick(1.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Positive(1, 1)});
}

TEST(QueryProcessorTest, CurrentAnswerMatchesUpdates) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 0.5, 0.5}).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.1, 0.1}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.2, 0.2}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(3, Point{0.9, 0.9}, 0.0).ok());
  qp.EvaluateTick(0.0);
  Result<std::vector<ObjectId>> answer = qp.CurrentAnswer(1);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(*answer, (std::vector<ObjectId>{1, 2}));
  EXPECT_TRUE(qp.CurrentAnswer(9).status().IsNotFound());
}

TEST(QueryProcessorTest, MovingObjectAcrossQueriesInOneTick) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 0.2, 0.2}).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(2, Rect{0.8, 0.8, 1.0, 1.0}).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.1, 0.1}, 0.0).ok());
  qp.EvaluateTick(0.0);
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.9, 0.9}, 1.0).ok());
  const TickResult r = qp.EvaluateTick(1.0);
  const std::vector<Update> expected = {Update::Negative(1, 1),
                                        Update::Positive(2, 1)};
  EXPECT_EQ(r.updates, expected);
}

TEST(QueryProcessorTest, ObjectAndQueryMoveTogether) {
  // The query moves onto the object's new location while the object moves
  // too: exactly one positive, no duplicates.
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 0.1, 0.1}).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 0.0).ok());
  qp.EvaluateTick(0.0);
  ASSERT_TRUE(qp.MoveRangeQuery(1, Rect{0.7, 0.7, 0.9, 0.9}).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.8, 0.8}, 1.0).ok());
  const TickResult r = qp.EvaluateTick(1.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Positive(1, 1)});
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(QueryProcessorTest, OverlappingQueriesEachGetUpdates) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 0.5, 0.5}).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(2, Rect{0.2, 0.2, 0.7, 0.7}).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.3, 0.3}, 0.0).ok());
  const TickResult r = qp.EvaluateTick(0.0);
  const std::vector<Update> expected = {Update::Positive(1, 1),
                                        Update::Positive(2, 1)};
  EXPECT_EQ(r.updates, expected);
}

TEST(QueryProcessorTest, QueryShrinkAndGrowIncrementally) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.1, 0.1}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.3, 0.3}, 0.0).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 0.4, 0.4}).ok());
  qp.EvaluateTick(0.0);

  // Shrink: p2 falls out, p1 stays (no re-report of p1).
  ASSERT_TRUE(qp.MoveRangeQuery(1, Rect{0.0, 0.0, 0.2, 0.2}).ok());
  TickResult r = qp.EvaluateTick(1.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Negative(1, 2)});

  // Grow back: only p2 re-enters.
  ASSERT_TRUE(qp.MoveRangeQuery(1, Rect{0.0, 0.0, 0.4, 0.4}).ok());
  r = qp.EvaluateTick(2.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Positive(1, 2)});
}

TEST(QueryProcessorTest, KnnWithFewerObjectsThanK) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterKnnQuery(1, Point{0.5, 0.5}, 5).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.1, 0.1}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.9, 0.9}, 0.0).ok());
  TickResult r = qp.EvaluateTick(0.0);
  EXPECT_EQ(r.updates.size(), 2u);  // everything is an answer

  // A third object anywhere must join immediately (k not yet filled).
  ASSERT_TRUE(qp.UpsertObject(3, Point{0.05, 0.95}, 1.0).ok());
  r = qp.EvaluateTick(1.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Positive(1, 3)});
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(QueryProcessorTest, KnnFocalPointMove) {
  QueryProcessor qp(TestOptions());
  for (ObjectId id = 1; id <= 4; ++id) {
    ASSERT_TRUE(
        qp.UpsertObject(id, Point{0.1 * static_cast<double>(id), 0.1}, 0.0)
            .ok());
  }
  ASSERT_TRUE(qp.RegisterKnnQuery(1, Point{0.1, 0.1}, 2).ok());
  qp.EvaluateTick(0.0);
  EXPECT_EQ(*qp.CurrentAnswer(1), (std::vector<ObjectId>{1, 2}));

  ASSERT_TRUE(qp.MoveKnnQuery(1, Point{0.4, 0.1}).ok());
  const TickResult r = qp.EvaluateTick(1.0);
  const std::vector<Update> expected = {
      Update::Negative(1, 1), Update::Negative(1, 2), Update::Positive(1, 3),
      Update::Positive(1, 4)};
  EXPECT_EQ(r.updates, expected);
  EXPECT_EQ(*qp.CurrentAnswer(1), (std::vector<ObjectId>{3, 4}));
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(QueryProcessorTest, KnnDistanceTiesBreakByLowerId) {
  QueryProcessor qp(TestOptions());
  // Four objects at identical distance from the focal point.
  ASSERT_TRUE(qp.UpsertObject(4, Point{0.6, 0.5}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(3, Point{0.4, 0.5}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.5, 0.6}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.4}, 0.0).ok());
  ASSERT_TRUE(qp.RegisterKnnQuery(1, Point{0.5, 0.5}, 2).ok());
  qp.EvaluateTick(0.0);
  EXPECT_EQ(*qp.CurrentAnswer(1), (std::vector<ObjectId>{1, 2}));
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(QueryProcessorTest, PredictiveQueryMoveProducesDeltas) {
  QueryProcessorOptions options = TestOptions();
  options.prediction_horizon = 100.0;
  QueryProcessor qp(options);
  ASSERT_TRUE(qp.UpsertPredictiveObject(1, Point{0.0, 0.2},
                                        Velocity{0.05, 0.0}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertPredictiveObject(2, Point{0.0, 0.8},
                                        Velocity{0.05, 0.0}, 0.0).ok());
  ASSERT_TRUE(
      qp.RegisterPredictiveQuery(1, Rect{0.4, 0.1, 0.6, 0.3}, 8.0, 12.0)
          .ok());
  qp.EvaluateTick(0.0);
  EXPECT_EQ(*qp.CurrentAnswer(1), std::vector<ObjectId>{1});

  // Slide the region to the upper corridor: p2 in, p1 out.
  ASSERT_TRUE(qp.MovePredictiveQuery(1, Rect{0.4, 0.7, 0.6, 0.9}).ok());
  const TickResult r = qp.EvaluateTick(1.0);
  const std::vector<Update> expected = {Update::Negative(1, 1),
                                        Update::Positive(1, 2)};
  EXPECT_EQ(r.updates, expected);
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(QueryProcessorTest, PredictionHorizonLimitsMatches) {
  QueryProcessorOptions options = TestOptions();
  options.prediction_horizon = 5.0;
  QueryProcessor qp(options);
  // Would reach the region at t=10, but the engine only predicts 5 s past
  // the report.
  ASSERT_TRUE(qp.UpsertPredictiveObject(1, Point{0.0, 0.5},
                                        Velocity{0.05, 0.0}, 0.0).ok());
  ASSERT_TRUE(
      qp.RegisterPredictiveQuery(1, Rect{0.45, 0.45, 0.55, 0.55}, 9.0, 11.0)
          .ok());
  TickResult r = qp.EvaluateTick(0.0);
  EXPECT_TRUE(r.updates.empty());

  // A fresh report at t=6 extends the knowable window to t=11: match.
  ASSERT_TRUE(qp.UpsertPredictiveObject(1, Point{0.30, 0.5},
                                        Velocity{0.05, 0.0}, 6.0).ok());
  r = qp.EvaluateTick(6.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Positive(1, 1)});
}

TEST(QueryProcessorTest, SampledObjectMatchesPredictiveQueryWhenInside) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 0.0).ok());
  ASSERT_TRUE(
      qp.RegisterPredictiveQuery(1, Rect{0.4, 0.4, 0.6, 0.6}, 2.0, 4.0).ok());
  const TickResult r = qp.EvaluateTick(0.0);
  // A sampled object is a zero-velocity trajectory: it sits in the region
  // for the whole window.
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Positive(1, 1)});
}

TEST(QueryProcessorTest, MixedQueryKindsCoexist) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 0.3, 0.3}).ok());
  ASSERT_TRUE(qp.RegisterKnnQuery(2, Point{0.9, 0.9}, 1).ok());
  ASSERT_TRUE(
      qp.RegisterPredictiveQuery(3, Rect{0.4, 0.4, 0.6, 0.6}, 0.0, 100.0)
          .ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.1, 0.1}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.95, 0.95}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertPredictiveObject(3, Point{0.35, 0.5},
                                        Velocity{0.01, 0.0}, 0.0).ok());
  const TickResult r = qp.EvaluateTick(0.0);
  const std::vector<Update> expected = {Update::Positive(1, 1),
                                        Update::Positive(2, 2),
                                        Update::Positive(3, 3)};
  EXPECT_EQ(r.updates, expected);
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(QueryProcessorTest, StatsCountSignsAndPhases) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 0.5, 0.5}).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.1, 0.1}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.9, 0.9}, 0.0).ok());
  TickResult r = qp.EvaluateTick(0.0);
  EXPECT_EQ(r.stats.object_updates_applied, 2u);
  EXPECT_EQ(r.stats.query_changes_applied, 1u);
  EXPECT_EQ(r.stats.positive_updates, 1u);
  EXPECT_EQ(r.stats.negative_updates, 0u);

  ASSERT_TRUE(qp.UpsertObject(1, Point{0.95, 0.95}, 1.0).ok());
  r = qp.EvaluateTick(1.0);
  EXPECT_EQ(r.stats.positive_updates, 0u);
  EXPECT_EQ(r.stats.negative_updates, 1u);
}

TEST(QueryProcessorTest, WireBytesFollowCostModel) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.0, 0.0, 1.0, 1.0}).ok());
  for (ObjectId id = 1; id <= 10; ++id) {
    ASSERT_TRUE(qp.UpsertObject(id, Point{0.5, 0.5}, 0.0).ok());
  }
  const TickResult r = qp.EvaluateTick(0.0);
  EXPECT_EQ(r.WireBytes(qp.options().wire_cost),
            qp.options().wire_cost.UpdateBytes(10));
}

TEST(QueryProcessorTest, ObjectSwitchesBetweenSampledAndPredictive) {
  QueryProcessor qp(TestOptions());
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.4, 0.4, 0.6, 0.6}).ok());
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.5, 0.5}, 0.0).ok());
  qp.EvaluateTick(0.0);
  // Becomes predictive (footprint indexing) while staying in the region.
  ASSERT_TRUE(qp.UpsertPredictiveObject(1, Point{0.5, 0.5},
                                        Velocity{0.001, 0.0}, 1.0).ok());
  TickResult r = qp.EvaluateTick(1.0);
  EXPECT_TRUE(r.updates.empty());  // membership unchanged
  // And back to sampled, now outside.
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.9, 0.9}, 2.0).ok());
  r = qp.EvaluateTick(2.0);
  EXPECT_EQ(r.updates, std::vector<Update>{Update::Negative(1, 1)});
  EXPECT_TRUE(qp.CheckInvariants().ok());
}

TEST(QueryProcessorTest, ManyTicksKeepInvariants) {
  QueryProcessor qp(TestOptions(8));
  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.2, 0.2, 0.6, 0.6}).ok());
  ASSERT_TRUE(qp.RegisterKnnQuery(2, Point{0.5, 0.5}, 3).ok());
  double x = 0.05;
  for (int tick = 0; tick < 20; ++tick) {
    for (ObjectId id = 1; id <= 5; ++id) {
      const double phase = static_cast<double>(id) / 10.0;
      ASSERT_TRUE(qp.UpsertObject(id, Point{x + phase, 0.4},
                                  static_cast<double>(tick)).ok());
    }
    qp.EvaluateTick(static_cast<double>(tick));
    ASSERT_TRUE(qp.CheckInvariants().ok()) << "tick " << tick;
    x += 0.03;
    if (x > 0.5) x = 0.05;
  }
}

// Only the sharded engine runs a worker pool: a single grid ticks
// serially whatever options.worker_threads says, so a grid built with 4
// workers reports 1 and emits the 1-worker grid's streams.
TEST(QueryProcessorTest, SingleGridIgnoresWorkerThreads) {
  auto run = [](int workers) {
    QueryProcessorOptions options = TestOptions();
    options.worker_threads = workers;
    QueryProcessor qp(options);
    EXPECT_EQ(qp.worker_threads(), 1);
    // The call sequence depends only on the seed, never on the statuses.
    Xorshift128Plus rng(424242);
    std::vector<std::vector<Update>> streams;
    for (int tick = 1; tick <= 8; ++tick) {
      const double now = static_cast<double>(tick);
      for (int op = 0; op < 60; ++op) {
        const ObjectId oid = 1 + rng.NextUint64(40);
        const QueryId qid = 1 + rng.NextUint64(16);
        const Point p{rng.NextDouble(), rng.NextDouble()};
        const double t = now + rng.NextDouble();
        switch (rng.NextUint64(10)) {
          case 0:
          case 1:
            (void)qp.UpsertObject(oid, p, t);
            break;
          case 2:
            (void)qp.UpsertPredictiveObject(
                oid, p,
                Velocity{rng.NextDouble(-0.05, 0.05),
                         rng.NextDouble(-0.05, 0.05)},
                t);
            break;
          case 3:
            (void)qp.RemoveObject(oid);
            break;
          case 4:
            (void)qp.RegisterRangeQuery(
                qid, Rect::CenteredSquare(p, rng.NextDouble(0.05, 0.3)));
            break;
          case 5:
            (void)qp.RegisterKnnQuery(qid, p, 3);
            break;
          case 6:
            (void)qp.RegisterCircleQuery(qid, p, 0.15);
            break;
          case 7:
            (void)qp.RegisterPredictiveQuery(
                qid, Rect::CenteredSquare(p, 0.2), now, now + 10.0);
            break;
          case 8:
            (void)qp.MoveRangeQuery(qid, Rect::CenteredSquare(p, 0.2));
            (void)qp.MoveKnnQuery(qid, p);
            (void)qp.MoveCircleQuery(qid, p);
            (void)qp.MovePredictiveQuery(qid, Rect::CenteredSquare(p, 0.2));
            break;
          case 9:
            (void)qp.UnregisterQuery(qid);
            break;
        }
      }
      streams.push_back(qp.EvaluateTick(now).updates);
      EXPECT_TRUE(qp.CheckInvariants().ok()) << "tick " << tick;
    }
    return streams;
  };
  const std::vector<std::vector<Update>> serial = run(1);
  size_t updates = 0;
  for (const std::vector<Update>& s : serial) updates += s.size();
  EXPECT_GT(updates, 0u);  // the workload produced traffic
  EXPECT_EQ(run(4), serial);
}

// --- Non-finite input at the API edge, on the single grid and 4 shards ---

class NonFiniteInputTest : public ::testing::TestWithParam<int> {
 protected:
  static constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  static constexpr double kInf = std::numeric_limits<double>::infinity();

  NonFiniteInputTest() : qp_(Options()) {}

  QueryProcessorOptions Options() const {
    QueryProcessorOptions options = TestOptions();
    options.num_shards = GetParam();
    options.record_history = true;
    return options;
  }

  // One live query of every kind and one object, so that every Move*
  // call below would succeed with finite arguments.
  void SetUp() override {
    ASSERT_TRUE(qp_.UpsertObject(1, Point{0.5, 0.5}, 1.0).ok());
    ASSERT_TRUE(qp_.RegisterRangeQuery(1, Rect{0.2, 0.2, 0.6, 0.6}).ok());
    ASSERT_TRUE(qp_.RegisterKnnQuery(2, Point{0.5, 0.5}, 2).ok());
    ASSERT_TRUE(qp_.RegisterCircleQuery(3, Point{0.5, 0.5}, 0.1).ok());
    ASSERT_TRUE(
        qp_.RegisterPredictiveQuery(4, Rect{0.2, 0.2, 0.6, 0.6}, 0.0, 10.0)
            .ok());
    qp_.EvaluateTick(1.0);
    ASSERT_EQ(qp_.pending_reports(), 0u);
  }

  // Every rejection is an InvalidArgument naming the non-finite value,
  // and nothing reaches the report buffer.
  void ExpectRejected(const Status& s) {
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_NE(s.ToString().find("must be finite"), std::string::npos)
        << s.ToString();
    EXPECT_EQ(qp_.pending_reports(), 0u);
  }

  QueryProcessor qp_;
};

TEST_P(NonFiniteInputTest, UpsertObject) {
  for (double bad : {kNaN, kInf, -kInf}) {
    ExpectRejected(qp_.UpsertObject(1, Point{bad, 0.5}, 2.0));
    ExpectRejected(qp_.UpsertObject(1, Point{0.5, bad}, 2.0));
    ExpectRejected(qp_.UpsertObject(7, Point{0.5, 0.5}, bad));
  }
}

TEST_P(NonFiniteInputTest, UpsertPredictiveObject) {
  for (double bad : {kNaN, kInf, -kInf}) {
    ExpectRejected(qp_.UpsertPredictiveObject(1, Point{bad, 0.5},
                                              Velocity{0.01, 0.0}, 2.0));
    ExpectRejected(qp_.UpsertPredictiveObject(1, Point{0.5, 0.5},
                                              Velocity{bad, 0.0}, 2.0));
    ExpectRejected(qp_.UpsertPredictiveObject(1, Point{0.5, 0.5},
                                              Velocity{0.0, bad}, 2.0));
    ExpectRejected(qp_.UpsertPredictiveObject(7, Point{0.5, 0.5},
                                              Velocity{0.01, 0.0}, bad));
  }
}

TEST_P(NonFiniteInputTest, RangeQueries) {
  for (double bad : {kNaN, kInf, -kInf}) {
    ExpectRejected(qp_.RegisterRangeQuery(9, Rect{bad, 0.2, 0.6, 0.6}));
    ExpectRejected(qp_.RegisterRangeQuery(9, Rect{0.2, 0.2, 0.6, bad}));
    ExpectRejected(qp_.MoveRangeQuery(1, Rect{0.2, bad, 0.6, 0.6}));
    ExpectRejected(qp_.MoveRangeQuery(1, Rect{0.2, 0.2, bad, 0.6}));
  }
  // Infinite corners that would otherwise clamp to the whole universe.
  ExpectRejected(qp_.RegisterRangeQuery(9, Rect{-kInf, -kInf, kInf, kInf}));
}

TEST_P(NonFiniteInputTest, KnnQueries) {
  for (double bad : {kNaN, kInf, -kInf}) {
    ExpectRejected(qp_.RegisterKnnQuery(9, Point{bad, 0.5}, 3));
    ExpectRejected(qp_.MoveKnnQuery(2, Point{0.5, bad}));
  }
}

TEST_P(NonFiniteInputTest, CircleQueries) {
  for (double bad : {kNaN, kInf, -kInf}) {
    ExpectRejected(qp_.RegisterCircleQuery(9, Point{bad, 0.5}, 0.1));
    ExpectRejected(qp_.RegisterCircleQuery(9, Point{0.5, 0.5}, bad));
    ExpectRejected(qp_.MoveCircleQuery(3, Point{0.5, bad}));
  }
}

TEST_P(NonFiniteInputTest, PredictiveQueries) {
  for (double bad : {kNaN, kInf, -kInf}) {
    ExpectRejected(qp_.RegisterPredictiveQuery(9, Rect{bad, 0.2, 0.6, 0.6},
                                               0.0, 10.0));
    ExpectRejected(qp_.RegisterPredictiveQuery(9, Rect{0.2, 0.2, 0.6, 0.6},
                                               bad, 10.0));
    ExpectRejected(qp_.RegisterPredictiveQuery(9, Rect{0.2, 0.2, 0.6, 0.6},
                                               0.0, bad));
    ExpectRejected(qp_.MovePredictiveQuery(4, Rect{0.2, 0.2, bad, 0.6}));
  }
}

TEST_P(NonFiniteInputTest, PastRangeQuery) {
  for (double bad : {kNaN, kInf, -kInf}) {
    const Result<std::vector<ObjectId>> by_region =
        qp_.EvaluatePastRangeQuery(Rect{bad, 0.0, 1.0, 1.0}, 1.0);
    ASSERT_FALSE(by_region.ok());
    ExpectRejected(by_region.status());
    const Result<std::vector<ObjectId>> by_time =
        qp_.EvaluatePastRangeQuery(Rect{0.0, 0.0, 1.0, 1.0}, bad);
    ASSERT_FALSE(by_time.ok());
    ExpectRejected(by_time.status());
  }
}

// A finite but huge velocity puts the predictive footprint ~1e301 past
// the universe: every cell, leaf and shard index computed from it must
// saturate, and the answers must still match the from-scratch oracle.
TEST_P(NonFiniteInputTest, HugeVelocityTicksCleanly) {
  ASSERT_TRUE(qp_.UpsertPredictiveObject(1, Point{0.5, 0.5},
                                         Velocity{1e300, -1e300}, 2.0)
                  .ok());
  ASSERT_TRUE(qp_.UpsertPredictiveObject(5, Point{0.3, 0.3},
                                         Velocity{-1e300, 1e300}, 2.0)
                  .ok());
  ASSERT_TRUE(qp_.UpsertObject(6, Point{0.4, 0.4}, 2.0).ok());
  qp_.EvaluateTick(2.0);
  EXPECT_TRUE(qp_.CheckInvariants().ok());
  for (QueryId qid = 1; qid <= 4; ++qid) {
    const Result<std::vector<ObjectId>> answer = qp_.CurrentAnswer(qid);
    const Result<std::vector<ObjectId>> scratch = qp_.EvaluateFromScratch(qid);
    ASSERT_TRUE(answer.ok() && scratch.ok()) << "query " << qid;
    EXPECT_EQ(*answer, *scratch) << "query " << qid;
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, NonFiniteInputTest, ::testing::Values(1, 4));

// --- k-NN query lifecycle streams, on the single grid and 4 shards ---
//
// Pins the tick stream when a k-NN query is dropped or re-registered in
// the same tick that removes one of its members: the removal's negative
// still ships for the old incarnation, and a re-registration's answer
// starts again from empty (every member ships as a positive).

class KnnLifecycleTest : public ::testing::TestWithParam<int> {
 protected:
  KnnLifecycleTest() : qp_(Options()) {}

  QueryProcessorOptions Options() const {
    QueryProcessorOptions options = TestOptions(/*grid=*/8);
    options.num_shards = GetParam();
    return options;
  }

  void SetUp() override {
    ASSERT_TRUE(qp_.UpsertObject(1, Point{0.50, 0.50}, 0.0).ok());
    ASSERT_TRUE(qp_.UpsertObject(2, Point{0.52, 0.50}, 0.0).ok());
    ASSERT_TRUE(qp_.UpsertObject(3, Point{0.90, 0.90}, 0.0).ok());
    ASSERT_TRUE(qp_.UpsertObject(4, Point{0.45, 0.45}, 0.0).ok());
  }

  // Ticks at 1.0 and returns the stream as "(Q1, +p2)" strings.
  std::vector<std::string> Tick1() {
    std::vector<std::string> stream;
    for (const Update& u : qp_.EvaluateTick(1.0).updates) {
      stream.push_back(u.DebugString());
    }
    EXPECT_TRUE(qp_.CheckInvariants().ok());
    return stream;
  }

  QueryProcessor qp_;
};

TEST_P(KnnLifecycleTest, UnregisterWithMemberRemoval) {
  ASSERT_TRUE(qp_.RegisterKnnQuery(1, Point{0.5, 0.5}, 2).ok());
  qp_.EvaluateTick(0.0);
  ASSERT_TRUE(qp_.UnregisterQuery(1).ok());
  ASSERT_TRUE(qp_.RemoveObject(2).ok());
  EXPECT_EQ(Tick1(), (std::vector<std::string>{"(Q1, -p2)"}));
  EXPECT_FALSE(qp_.HasQuery(1));
}

TEST_P(KnnLifecycleTest, KnnReregisteredAsRange) {
  ASSERT_TRUE(qp_.RegisterKnnQuery(1, Point{0.5, 0.5}, 2).ok());
  qp_.EvaluateTick(0.0);
  ASSERT_TRUE(qp_.UnregisterQuery(1).ok());
  ASSERT_TRUE(qp_.RegisterRangeQuery(1, Rect{0.4, 0.4, 0.6, 0.6}).ok());
  ASSERT_TRUE(qp_.RemoveObject(2).ok());
  EXPECT_EQ(Tick1(), (std::vector<std::string>{"(Q1, +p1)", "(Q1, -p2)",
                                               "(Q1, +p4)"}));
}

TEST_P(KnnLifecycleTest, RangeReregisteredAsKnn) {
  ASSERT_TRUE(qp_.RegisterRangeQuery(1, Rect{0.4, 0.4, 0.6, 0.6}).ok());
  qp_.EvaluateTick(0.0);
  ASSERT_TRUE(qp_.UnregisterQuery(1).ok());
  ASSERT_TRUE(qp_.RegisterKnnQuery(1, Point{0.5, 0.5}, 1).ok());
  ASSERT_TRUE(qp_.RemoveObject(4).ok());
  EXPECT_EQ(Tick1(), (std::vector<std::string>{"(Q1, +p1)", "(Q1, -p4)"}));
}

TEST_P(KnnLifecycleTest, KnnReregisteredAsKnn) {
  ASSERT_TRUE(qp_.RegisterKnnQuery(1, Point{0.5, 0.5}, 2).ok());
  qp_.EvaluateTick(0.0);
  ASSERT_TRUE(qp_.UnregisterQuery(1).ok());
  ASSERT_TRUE(qp_.RegisterKnnQuery(1, Point{0.46, 0.46}, 3).ok());
  ASSERT_TRUE(qp_.RemoveObject(2).ok());
  EXPECT_EQ(Tick1(), (std::vector<std::string>{"(Q1, +p1)", "(Q1, -p2)",
                                               "(Q1, +p3)", "(Q1, +p4)"}));
}

INSTANTIATE_TEST_SUITE_P(Shards, KnnLifecycleTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace stq
