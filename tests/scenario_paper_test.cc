// Executable versions of the paper's worked examples (Figures 1-4).
//
// The figures' exact coordinates are not published, so each scenario
// reconstructs a concrete geometry that realizes the figure's printed
// update stream exactly — same moving objects/queries, same positive and
// negative tuples. The expected streams below are the ones printed in the
// paper's text.

#include <vector>

#include <gtest/gtest.h>

#include "stq/core/query_processor.h"
#include "stq/core/server.h"
#include "stq/core/client.h"

namespace stq {
namespace {

QueryProcessorOptions SmallGridOptions() {
  QueryProcessorOptions options;
  options.grid_cells_per_side = 8;
  return options;
}

// --- Figure 1: spatio-temporal range queries --------------------------------
//
// Nine objects p1..p9 and five range queries Q1..Q5. Between T0 and T1
// objects p2, p3, p6, p8 move and queries Q1, Q3, Q5 move. The paper
// reports: (Q1,-p5), (Q2,-p2), (Q2,+p3), (Q3,-p7), (Q4,-p6), (Q4,+p8),
// (Q5,-p4).
TEST(Figure1RangeQueries, ReproducesPaperUpdateStream) {
  QueryProcessor qp(SmallGridOptions());

  // T0 placement. Black (stationary) objects: p1, p4, p5, p7, p9.
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.05, 0.05}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.55, 0.55}, 0.0).ok());  // in Q2
  ASSERT_TRUE(qp.UpsertObject(3, Point{0.45, 0.45}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(4, Point{0.90, 0.90}, 0.0).ok());  // in Q5
  ASSERT_TRUE(qp.UpsertObject(5, Point{0.15, 0.15}, 0.0).ok());  // in Q1
  ASSERT_TRUE(qp.UpsertObject(6, Point{0.15, 0.75}, 0.0).ok());  // in Q4
  ASSERT_TRUE(qp.UpsertObject(7, Point{0.75, 0.15}, 0.0).ok());  // in Q3
  ASSERT_TRUE(qp.UpsertObject(8, Point{0.25, 0.75}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(9, Point{0.40, 0.90}, 0.0).ok());

  ASSERT_TRUE(qp.RegisterRangeQuery(1, Rect{0.10, 0.10, 0.20, 0.20}).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(2, Rect{0.50, 0.50, 0.60, 0.60}).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(3, Rect{0.70, 0.10, 0.80, 0.20}).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(4, Rect{0.10, 0.70, 0.20, 0.80}).ok());
  ASSERT_TRUE(qp.RegisterRangeQuery(5, Rect{0.85, 0.85, 0.95, 0.95}).ok());

  // T0 evaluation: the first-time answers arrive as positives.
  const TickResult t0 = qp.EvaluateTick(0.0);
  const std::vector<Update> expected_t0 = {
      Update::Positive(1, 5), Update::Positive(2, 2), Update::Positive(3, 7),
      Update::Positive(4, 6), Update::Positive(5, 4)};
  EXPECT_EQ(t0.updates, expected_t0);

  // T1: p2 leaves Q2, p3 enters Q2, p6 leaves Q4, p8 enters Q4; Q1, Q3,
  // and Q5 drive off their answers.
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.75, 0.75}, 1.0).ok());
  ASSERT_TRUE(qp.UpsertObject(3, Point{0.55, 0.58}, 1.0).ok());
  ASSERT_TRUE(qp.UpsertObject(6, Point{0.15, 0.60}, 1.0).ok());
  ASSERT_TRUE(qp.UpsertObject(8, Point{0.18, 0.72}, 1.0).ok());
  ASSERT_TRUE(qp.MoveRangeQuery(1, Rect{0.30, 0.30, 0.40, 0.40}).ok());
  ASSERT_TRUE(qp.MoveRangeQuery(3, Rect{0.70, 0.30, 0.80, 0.40}).ok());
  ASSERT_TRUE(qp.MoveRangeQuery(5, Rect{0.85, 0.60, 0.95, 0.70}).ok());

  const TickResult t1 = qp.EvaluateTick(1.0);
  const std::vector<Update> expected_t1 = {
      Update::Negative(1, 5), Update::Negative(2, 2), Update::Positive(2, 3),
      Update::Negative(3, 7), Update::Negative(4, 6), Update::Positive(4, 8),
      Update::Negative(5, 4)};
  EXPECT_EQ(t1.updates, expected_t1);

  EXPECT_TRUE(qp.CheckInvariants().ok());
}

// --- Figure 2: spatio-temporal k-NN queries ------------------------------------
//
// Two 3-NN queries. At T0 the answers are Q1 = {p2,p3,p4} and
// Q2 = {p5,p6,p7}. At T1 objects p1 and p7 move: p1 enters Q1's answer
// circle and invalidates the furthest neighbor p4; p7 drives away from Q2
// and p8 replaces it. Updates: (Q1,-p4), (Q1,+p1), (Q2,-p7), (Q2,+p8).
TEST(Figure2KnnQueries, ReproducesPaperUpdateStream) {
  QueryProcessor qp(SmallGridOptions());

  ASSERT_TRUE(qp.UpsertObject(1, Point{0.50, 0.50}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(2, Point{0.18, 0.20}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(3, Point{0.20, 0.25}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(4, Point{0.28, 0.20}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(5, Point{0.78, 0.80}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(6, Point{0.80, 0.85}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(7, Point{0.88, 0.80}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertObject(8, Point{0.80, 0.90}, 0.0).ok());

  ASSERT_TRUE(qp.RegisterKnnQuery(1, Point{0.20, 0.20}, 3).ok());
  ASSERT_TRUE(qp.RegisterKnnQuery(2, Point{0.80, 0.80}, 3).ok());

  const TickResult t0 = qp.EvaluateTick(0.0);
  const std::vector<Update> expected_t0 = {
      Update::Positive(1, 2), Update::Positive(1, 3), Update::Positive(1, 4),
      Update::Positive(2, 5), Update::Positive(2, 6), Update::Positive(2, 7)};
  EXPECT_EQ(t0.updates, expected_t0);

  // T1: p1 moves next to Q1's focal point; p7 drives away from Q2.
  ASSERT_TRUE(qp.UpsertObject(1, Point{0.22, 0.20}, 1.0).ok());
  ASSERT_TRUE(qp.UpsertObject(7, Point{0.95, 0.95}, 1.0).ok());

  const TickResult t1 = qp.EvaluateTick(1.0);
  const std::vector<Update> expected_t1 = {
      Update::Positive(1, 1), Update::Negative(1, 4),
      Update::Negative(2, 7), Update::Positive(2, 8)};
  EXPECT_EQ(t1.updates, expected_t1);

  // Unlike range queries, k-NN regions change size over time: Q2's circle
  // now reaches p8.
  double q2_radius = 0.0;
  qp.ForEachQueryInfo([&](const QueryProcessor::QueryInfo& q) {
    if (q.id == 2) q2_radius = q.circle.radius;
  });
  EXPECT_NEAR(q2_radius, 0.10, 1e-9);

  EXPECT_TRUE(qp.CheckInvariants().ok());
}

// --- Figure 3: predictive spatio-temporal range queries --------------------------
//
// Five predictive objects report location + velocity at T0; the query asks
// for objects that will intersect its region during a future window. The
// T0 answer is {p1, p4}. At T1, p1, p2, and p3 report new velocities; only
// (Q,+p2) and (Q,-p1) are produced — no tuple for p3 (new information,
// unchanged membership) nor for p4/p5 (no new information).
TEST(Figure3PredictiveQueries, ReproducesPaperUpdateStream) {
  QueryProcessor qp(SmallGridOptions());

  // T0 = 0: predictive reports (location, velocity).
  ASSERT_TRUE(qp.UpsertPredictiveObject(1, Point{0.00, 0.50},
                                        Velocity{0.05, 0.0}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertPredictiveObject(2, Point{0.00, 0.00},
                                        Velocity{0.01, 0.01}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertPredictiveObject(3, Point{1.00, 0.50},
                                        Velocity{0.0, 0.0}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertPredictiveObject(4, Point{0.50, 0.30},
                                        Velocity{0.0, 0.02}, 0.0).ok());
  ASSERT_TRUE(qp.UpsertPredictiveObject(5, Point{0.90, 0.90},
                                        Velocity{-0.01, -0.01}, 0.0).ok());

  // "Objects that will intersect my region between t=10 and t=12."
  ASSERT_TRUE(qp.RegisterPredictiveQuery(1, Rect{0.40, 0.40, 0.60, 0.60},
                                         10.0, 12.0).ok());

  const TickResult t0 = qp.EvaluateTick(0.0);
  const std::vector<Update> expected_t0 = {Update::Positive(1, 1),
                                           Update::Positive(1, 4)};
  EXPECT_EQ(t0.updates, expected_t0);

  // T1 = 5: p1 turns north (won't reach the region any more), p2 turns
  // east toward the region, p3 reports new info that still misses.
  ASSERT_TRUE(qp.UpsertPredictiveObject(1, Point{0.25, 0.50},
                                        Velocity{0.0, 0.05}, 5.0).ok());
  ASSERT_TRUE(qp.UpsertPredictiveObject(2, Point{0.30, 0.50},
                                        Velocity{0.02, 0.0}, 5.0).ok());
  ASSERT_TRUE(qp.UpsertPredictiveObject(3, Point{1.00, 0.50},
                                        Velocity{0.0, 0.01}, 5.0).ok());

  const TickResult t1 = qp.EvaluateTick(5.0);
  const std::vector<Update> expected_t1 = {Update::Negative(1, 1),
                                           Update::Positive(1, 2)};
  EXPECT_EQ(t1.updates, expected_t1);

  EXPECT_TRUE(qp.CheckInvariants().ok());
}

// --- Figure 4: out-of-sync clients -------------------------------------------------
//
// The committed answer of Q at T1 is {p1,p2}. The client then disconnects
// and misses (-p2) at T2 and (+p3),(+p4) at T3. On wakeup at T4 the server
// ships exactly the committed-vs-current difference (-p2,+p3,+p4), and the
// client converges to the correct {p1,p3,p4}.
TEST(Figure4OutOfSync, DiffRecoveryConverges) {
  Server::Options options;
  options.processor.grid_cells_per_side = 8;
  Server server(options);
  Client client(100);

  ASSERT_TRUE(server.AttachClient(100).ok());
  ASSERT_TRUE(server.RegisterRangeQuery(1, 100,
                                        Rect{0.40, 0.40, 0.60, 0.60}).ok());
  ASSERT_TRUE(server.ReportObject(1, Point{0.45, 0.50}, 0.0).ok());
  ASSERT_TRUE(server.ReportObject(2, Point{0.55, 0.50}, 0.0).ok());
  ASSERT_TRUE(server.ReportObject(3, Point{0.10, 0.10}, 0.0).ok());
  ASSERT_TRUE(server.ReportObject(4, Point{0.90, 0.90}, 0.0).ok());

  // T1: first answer {p1,p2} delivered and explicitly committed (a
  // stationary query sends a commit message at its convenience).
  for (const Server::Delivery& d : server.Tick(1.0)) {
    ASSERT_TRUE(d.delivered);
    client.ApplyUpdates(d.updates);
  }
  EXPECT_EQ(client.SortedAnswerOf(1), (std::vector<ObjectId>{1, 2}));
  ASSERT_TRUE(server.CommitQuery(1).ok());
  client.Commit(1);  // the commit message originates at the client

  // Client goes out of sync.
  ASSERT_TRUE(server.DisconnectClient(100).ok());

  // T2: p2 leaves. The negative update is lost.
  ASSERT_TRUE(server.ReportObject(2, Point{0.90, 0.10}, 2.0).ok());
  for (const Server::Delivery& d : server.Tick(2.0)) {
    EXPECT_FALSE(d.delivered);
  }

  // T3: p3 and p4 enter. Also lost.
  ASSERT_TRUE(server.ReportObject(3, Point{0.50, 0.45}, 3.0).ok());
  ASSERT_TRUE(server.ReportObject(4, Point{0.50, 0.55}, 3.0).ok());
  for (const Server::Delivery& d : server.Tick(3.0)) {
    EXPECT_FALSE(d.delivered);
  }

  // The client's stale view would be wrong if it merely resumed the
  // stream — exactly the paper's Figure 4 hazard.
  EXPECT_EQ(client.SortedAnswerOf(1), (std::vector<ObjectId>{1, 2}));

  // T4: wakeup. The server ships diff(committed={p1,p2},
  // current={p1,p3,p4}) = (-p2,+p3,+p4).
  Result<Server::Delivery> recovery = server.ReconnectClient(100);
  ASSERT_TRUE(recovery.ok());
  const std::vector<Update> expected = {
      Update::Negative(1, 2), Update::Positive(1, 3), Update::Positive(1, 4)};
  EXPECT_EQ(recovery->updates, expected);

  client.RollbackToCommitted();
  client.ApplyUpdates(recovery->updates);
  EXPECT_EQ(client.SortedAnswerOf(1), (std::vector<ObjectId>{1, 3, 4}));

  // The recovery delta (3 tuples) is cheaper than a naive full resend of
  // the whole 3-object answer would have been for any larger answer; both
  // costs are accounted.
  EXPECT_EQ(recovery->bytes,
            options.processor.wire_cost.UpdateBytes(3));
}

// The naive baseline ships the complete answer on wakeup instead.
TEST(Figure4OutOfSync, NaiveFullAnswerRecovery) {
  Server::Options options;
  options.processor.grid_cells_per_side = 8;
  options.recovery = RecoveryPolicy::kFullAnswer;
  Server server(options);

  ASSERT_TRUE(server.AttachClient(100).ok());
  ASSERT_TRUE(server.RegisterRangeQuery(1, 100,
                                        Rect{0.40, 0.40, 0.60, 0.60}).ok());
  for (ObjectId id = 1; id <= 50; ++id) {
    ASSERT_TRUE(server.ReportObject(id, Point{0.50, 0.50}, 0.0).ok());
  }
  server.Tick(1.0);
  ASSERT_TRUE(server.CommitQuery(1).ok());
  ASSERT_TRUE(server.DisconnectClient(100).ok());

  // One object leaves while the client is away.
  ASSERT_TRUE(server.ReportObject(1, Point{0.9, 0.9}, 2.0).ok());
  server.Tick(2.0);

  Result<Server::Delivery> recovery = server.ReconnectClient(100);
  ASSERT_TRUE(recovery.ok());
  EXPECT_TRUE(recovery->updates.empty());
  ASSERT_EQ(recovery->full_answers.size(), 1u);
  EXPECT_EQ(recovery->full_answers[0].second.size(), 49u);
  // 49 entries of full answer vs. a single-negative diff: the naive
  // policy pays ~28x more bytes here.
  EXPECT_EQ(recovery->bytes,
            options.processor.wire_cost.CompleteAnswerBytes(49));
  EXPECT_GT(recovery->bytes, options.processor.wire_cost.UpdateBytes(1) * 20);
}

}  // namespace
}  // namespace stq
